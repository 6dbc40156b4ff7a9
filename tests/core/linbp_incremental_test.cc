#include "src/core/linbp_incremental.h"

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/convergence.h"
#include "src/core/coupling.h"
#include "src/graph/beliefs.h"
#include "src/graph/generators.h"
#include "src/obs/obs.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace {

using testing::ExpectMatrixNear;
using testing::ExpectSameGraph;

LinBpOptions TightOptions(LinBpVariant variant = LinBpVariant::kLinBp) {
  LinBpOptions options;
  options.variant = variant;
  options.max_iterations = 1000;
  options.tolerance = 1e-13;
  return options;
}

// Spans named `name` in the tracer's Chrome-trace export.
int CountSpans(const obs::Tracer& tracer, const std::string& name) {
  const std::string json = tracer.ChromeTraceJson();
  const std::string key = "\"name\":\"" + name + "\"";
  int count = 0;
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + 1)) {
    ++count;
  }
  return count;
}

TEST(LinBpStateTest, ColdStartMatchesRunLinBp) {
  const Graph g = RandomConnectedGraph(20, 15, /*seed=*/1);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.05);
  const SeededBeliefs seeded = SeedPaperBeliefs(20, 3, 5, /*seed=*/2);
  const LinBpState state(g, hhat, seeded.residuals, TightOptions());
  ASSERT_TRUE(state.converged());
  const LinBpResult reference =
      RunLinBp(g, hhat, seeded.residuals, TightOptions());
  ExpectMatrixNear(state.beliefs(), reference.beliefs, 1e-11);
}

TEST(LinBpStateTest, BeliefUpdateMatchesColdSolve) {
  const Graph g = RandomConnectedGraph(25, 20, /*seed=*/3);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.05);
  SeededBeliefs seeded = SeedPaperBeliefs(25, 3, 6, /*seed=*/4);
  LinBpState state(g, hhat, seeded.residuals, TightOptions());

  // Flip one node's explicit beliefs.
  DenseMatrix row(1, 3);
  row.At(0, 0) = -0.08;
  row.At(0, 1) = 0.05;
  row.At(0, 2) = 0.03;
  const std::int64_t node = seeded.explicit_nodes[0];
  state.UpdateExplicitBeliefs({node}, row);
  ASSERT_TRUE(state.converged());

  for (int c = 0; c < 3; ++c) seeded.residuals.At(node, c) = row.At(0, c);
  const LinBpResult reference =
      RunLinBp(g, hhat, seeded.residuals, TightOptions());
  ExpectMatrixNear(state.beliefs(), reference.beliefs, 1e-10);
}

TEST(LinBpStateTest, F32StateColdAndWarmSolvesTrackF64) {
  // A warm state in f32 belief storage: the cold solve and a warm
  // re-solve after a belief update both stay within float resolution of
  // the f64 state, and the stored beliefs are exactly representable as
  // float (the loop computed them in f32 and widened on exit).
  const Graph g = RandomConnectedGraph(25, 20, /*seed=*/3);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.05);
  SeededBeliefs seeded = SeedPaperBeliefs(25, 3, 6, /*seed=*/4);
  LinBpOptions f32_options = TightOptions();
  f32_options.tolerance = 1e-7;  // reachable by a float-stored iterate
  f32_options.precision = Precision::kF32;
  LinBpOptions f64_options = TightOptions();
  f64_options.tolerance = 1e-7;
  LinBpState f32_state(g, hhat, seeded.residuals, f32_options);
  LinBpState f64_state(g, hhat, seeded.residuals, f64_options);
  ASSERT_TRUE(f32_state.converged());
  ASSERT_TRUE(f64_state.converged());
  ExpectMatrixNear(f32_state.beliefs(), f64_state.beliefs(), 1e-5);

  DenseMatrix row(1, 3);
  row.At(0, 0) = -0.08;
  row.At(0, 1) = 0.05;
  row.At(0, 2) = 0.03;
  const std::int64_t node = seeded.explicit_nodes[0];
  ASSERT_GE(f32_state.UpdateExplicitBeliefs({node}, row), 0);
  ASSERT_GE(f64_state.UpdateExplicitBeliefs({node}, row), 0);
  ASSERT_TRUE(f32_state.converged());
  ExpectMatrixNear(f32_state.beliefs(), f64_state.beliefs(), 1e-5);
  for (std::int64_t v = 0; v < f32_state.beliefs().rows(); ++v) {
    for (std::int64_t c = 0; c < f32_state.beliefs().cols(); ++c) {
      const double b = f32_state.beliefs().At(v, c);
      EXPECT_EQ(b, static_cast<double>(static_cast<float>(b)));
    }
  }
}

TEST(LinBpStateTest, WarmStartUsesFewerSweepsForSmallChanges) {
  const Graph g = RandomConnectedGraph(200, 300, /*seed=*/5);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.03);
  const SeededBeliefs seeded = SeedPaperBeliefs(200, 3, 20, /*seed=*/6);
  LinBpState state(g, hhat, seeded.residuals, TightOptions());
  const int cold = state.cold_start_iterations();

  // A tiny nudge to one explicit belief re-converges much faster.
  DenseMatrix row(1, 3);
  const std::int64_t node = seeded.explicit_nodes[0];
  for (int c = 0; c < 3; ++c) {
    row.At(0, c) = seeded.residuals.At(node, c) * 1.01;
  }
  const int warm = state.UpdateExplicitBeliefs({node}, row);
  ASSERT_TRUE(state.converged());
  EXPECT_LT(warm, cold);
}

TEST(LinBpStateTest, EdgeUpdateMatchesColdSolve) {
  const Graph g = RandomConnectedGraph(25, 15, /*seed=*/7);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.04);
  const SeededBeliefs seeded = SeedPaperBeliefs(25, 3, 5, /*seed=*/8);
  LinBpState state(g, hhat, seeded.residuals, TightOptions());

  // Add an edge not present yet.
  std::int64_t u = 0;
  std::int64_t v = 0;
  for (u = 0; u < 25 && v == 0; ++u) {
    for (std::int64_t w = u + 1; w < 25; ++w) {
      if (g.adjacency().At(u, w) == 0.0) {
        v = w;
        break;
      }
    }
    if (v != 0) break;
  }
  ASSERT_NE(v, 0);
  state.AddEdges({{u, v, 1.0}});
  ASSERT_TRUE(state.converged());

  std::vector<Edge> edges = g.edges();
  edges.push_back({u, v, 1.0});
  const LinBpResult reference = RunLinBp(Graph(25, edges), hhat,
                                         seeded.residuals, TightOptions());
  ExpectMatrixNear(state.beliefs(), reference.beliefs, 1e-10);
}

TEST(LinBpStateTest, AddEdgesRejectsInvalidBatchesWithoutAborting) {
  const Graph g = PathGraph(4);  // edges 0-1, 1-2, 2-3
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.05);
  const SeededBeliefs seeded = SeedPaperBeliefs(4, 3, 2, /*seed=*/3);
  LinBpState state(g, hhat, seeded.residuals, TightOptions());
  ASSERT_TRUE(state.converged());
  const DenseMatrix before = state.beliefs();

  // Every invalid batch reports an error and leaves the state untouched
  // (beliefs AND graph) — the PR 3 "errors, never crashes" convention.
  struct Case {
    std::vector<Edge> batch;
    const char* expect;
  };
  const std::vector<Case> cases = {
      {{{0, 1, 1.0}}, "already exists"},
      {{{0, 2, 1.0}, {2, 0, 1.0}}, "duplicate edge"},
      {{{0, 4, 1.0}}, "outside"},
      {{{-1, 2, 1.0}}, "outside"},
      {{{2, 2, 1.0}}, "self-loop"},
      {{{0, 2, std::nan("")}}, "non-finite"},
      // A valid edge does not rescue a batch with an invalid one.
      {{{0, 2, 1.0}, {1, 3, 1.0}, {1, 3, 2.0}}, "duplicate edge"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_EQ(state.AddEdges(c.batch, &error), -1);
    EXPECT_NE(error.find(c.expect), std::string::npos) << error;
    EXPECT_EQ(state.graph().num_undirected_edges(),
              g.num_undirected_edges());
    ExpectMatrixNear(state.beliefs(), before, 0.0);
  }
  // The null-error overload still refuses without crashing.
  EXPECT_EQ(state.AddEdges({{0, 1, 1.0}}), -1);

  // After all the rejections, a valid batch still applies cleanly.
  std::string error;
  EXPECT_GT(state.AddEdges({{0, 2, 1.0}}, &error), 0) << error;
  ASSERT_TRUE(state.converged());
  std::vector<Edge> edges = g.edges();
  edges.push_back({0, 2, 1.0});
  const LinBpResult reference = RunLinBp(Graph(4, edges), hhat,
                                         seeded.residuals, TightOptions());
  ExpectMatrixNear(state.beliefs(), reference.beliefs, 1e-10);
}

TEST(LinBpStateTest, RemoveEdgesMatchesColdSolve) {
  const Graph g = RandomConnectedGraph(25, 20, /*seed=*/11);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.04);
  const SeededBeliefs seeded = SeedPaperBeliefs(25, 3, 5, /*seed=*/12);
  LinBpState state(g, hhat, seeded.residuals, TightOptions());

  // Drop two edges in one batch (endpoint order flipped on the second:
  // removal is by undirected pair, not by stored orientation).
  std::vector<Edge> edges = g.edges();
  const Edge first = edges[0];
  const Edge second = edges[edges.size() / 2];
  EXPECT_GT(state.RemoveEdges({{first.u, first.v, 1.0},
                               {second.v, second.u, 1.0}}),
            0);
  ASSERT_TRUE(state.converged());
  EXPECT_EQ(state.graph().num_undirected_edges(),
            g.num_undirected_edges() - 2);

  edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(edges.size() / 2));
  edges.erase(edges.begin());
  const LinBpResult reference = RunLinBp(Graph(25, edges), hhat,
                                         seeded.residuals, TightOptions());
  ExpectMatrixNear(state.beliefs(), reference.beliefs, 1e-10);
}

TEST(LinBpStateTest, UpdateEdgeWeightsMatchesColdSolve) {
  const Graph g = RandomConnectedGraph(25, 20, /*seed=*/13);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.04);
  const SeededBeliefs seeded = SeedPaperBeliefs(25, 3, 5, /*seed=*/14);
  LinBpState state(g, hhat, seeded.residuals, TightOptions());

  std::vector<Edge> edges = g.edges();
  const std::size_t a = 0;
  const std::size_t b = edges.size() / 2;
  EXPECT_GT(state.UpdateEdgeWeights({{edges[a].u, edges[a].v, 2.0},
                                     {edges[b].v, edges[b].u, 0.25}}),
            0);
  ASSERT_TRUE(state.converged());
  // Reweighting never changes the edge count.
  EXPECT_EQ(state.graph().num_undirected_edges(), g.num_undirected_edges());

  edges[a].weight = 2.0;
  edges[b].weight = 0.25;
  const LinBpResult reference = RunLinBp(Graph(25, edges), hhat,
                                         seeded.residuals, TightOptions());
  ExpectMatrixNear(state.beliefs(), reference.beliefs, 1e-10);
}

TEST(LinBpStateTest, RemoveAndReweightRejectInvalidBatchesWithoutAborting) {
  const Graph g = PathGraph(4);  // edges 0-1, 1-2, 2-3
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.05);
  const SeededBeliefs seeded = SeedPaperBeliefs(4, 3, 2, /*seed=*/5);
  LinBpState state(g, hhat, seeded.residuals, TightOptions());
  ASSERT_TRUE(state.converged());
  const DenseMatrix before = state.beliefs();

  struct Case {
    std::vector<Edge> batch;
    const char* expect;
  };
  // Shared failure modes: absent edge, out-of-range endpoint, self-loop,
  // duplicate pair in the batch (orientation-insensitive), and a valid
  // edge failing to rescue an invalid batch.
  const std::vector<Case> shared_cases = {
      {{{0, 2, 1.0}}, "does not exist"},
      {{{0, 4, 1.0}}, "outside"},
      {{{-1, 2, 1.0}}, "outside"},
      {{{2, 2, 1.0}}, "self-loop"},
      {{{0, 1, 1.0}, {1, 0, 2.0}}, "duplicate edge"},
      {{{0, 1, 1.0}, {1, 3, 1.0}}, "does not exist"},
  };
  for (const Case& c : shared_cases) {
    std::string error;
    EXPECT_EQ(state.RemoveEdges(c.batch, &error), -1);
    EXPECT_NE(error.find(c.expect), std::string::npos) << error;
    error.clear();
    EXPECT_EQ(state.UpdateEdgeWeights(c.batch, &error), -1);
    EXPECT_NE(error.find(c.expect), std::string::npos) << error;
    EXPECT_EQ(state.graph().num_undirected_edges(),
              g.num_undirected_edges());
    ExpectMatrixNear(state.beliefs(), before, 0.0);
  }
  // Reweighting validates the new weight; removal ignores it (an edge is
  // named by its endpoints).
  std::string error;
  EXPECT_EQ(state.UpdateEdgeWeights({{0, 1, std::nan("")}}, &error), -1);
  EXPECT_NE(error.find("non-finite"), std::string::npos) << error;
  ExpectMatrixNear(state.beliefs(), before, 0.0);
  EXPECT_GT(state.RemoveEdges({{0, 1, std::nan("")}}, &error), 0) << error;
  EXPECT_EQ(state.graph().num_undirected_edges(),
            g.num_undirected_edges() - 1);
}

TEST(LinBpStateTest, UpdateExplicitBeliefsRejectsInvalidBatches) {
  const Graph g = PathGraph(4);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.05);
  const SeededBeliefs seeded = SeedPaperBeliefs(4, 3, 2, /*seed=*/7);
  LinBpState state(g, hhat, seeded.residuals, TightOptions());
  ASSERT_TRUE(state.converged());
  const DenseMatrix before = state.beliefs();

  DenseMatrix row(1, 3);
  row.At(0, 0) = 0.05;
  row.At(0, 1) = -0.05;
  struct Case {
    std::vector<std::int64_t> nodes;
    DenseMatrix residuals;
    const char* expect;
  };
  DenseMatrix bad_row = row;
  bad_row.At(0, 2) = std::nan("");
  const std::vector<Case> cases = {
      {{4}, row, "outside"},
      {{-1}, row, "outside"},
      {{0, 1}, row, "rows"},          // 2 nodes, 1 residual row
      {{0}, DenseMatrix(1, 2), "coupling has 3"},
      {{0}, bad_row, "non-finite"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_EQ(state.UpdateExplicitBeliefs(c.nodes, c.residuals, &error), -1);
    EXPECT_NE(error.find(c.expect), std::string::npos) << error;
    ExpectMatrixNear(state.beliefs(), before, 0.0);
  }
  // The null-error overload refuses without crashing, then a valid
  // update still applies.
  EXPECT_EQ(state.UpdateExplicitBeliefs({4}, row), -1);
  EXPECT_GT(state.UpdateExplicitBeliefs({0}, row), 0);
  ASSERT_TRUE(state.converged());
}

TEST(LinBpStateTest, DivergentEdgeUpdateRollsBackGraphAndBeliefs) {
  const Graph g = RandomConnectedGraph(25, 20, /*seed=*/17);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.04);
  const SeededBeliefs seeded = SeedPaperBeliefs(25, 3, 5, /*seed=*/18);
  LinBpState state(g, hhat, seeded.residuals, TightOptions());
  ASSERT_TRUE(state.converged());
  const DenseMatrix before = state.beliefs();

  // Reweighting every edge by 50x scales rho(M) well past 1, so the
  // warm re-solve diverges. The early abort turns that into a failed
  // solve, and the all-or-nothing contract rolls the mutation back.
  std::vector<Edge> heavy = g.edges();
  for (Edge& e : heavy) e.weight = 50.0;
  std::string error;
  EXPECT_EQ(state.UpdateEdgeWeights(heavy, &error), -1);
  EXPECT_NE(error.find("diverging"), std::string::npos) << error;
  EXPECT_NE(error.find("rho_hat="), std::string::npos) << error;
  EXPECT_FALSE(state.converged());
  ExpectSameGraph(state.graph(), g);
  ExpectMatrixNear(state.beliefs(), before, 0.0);
  // The abort's diagnostics survive on the state for inspection.
  EXPECT_GT(state.diagnostics().empirical_contraction, 1.0);
  EXPECT_GT(state.diagnostics().spectral_radius_estimate, 1.0);

  // A sane reweight on the rolled-back state still applies cleanly.
  Edge mild = g.edges()[0];
  mild.weight = 1.5;
  EXPECT_GT(state.UpdateEdgeWeights({mild}, &error), 0) << error;
  ASSERT_TRUE(state.converged());
}

// A rolled-back edit restores the rho(M) cache it found. The divergence
// abort estimates the rejected operator's rho(M) for its message; that
// value must never describe the restored graph, in the next solve's
// diagnostics or in SpectralRadius().
TEST(LinBpStateTest, RolledBackEditRestoresTheSpectralRadiusCache) {
  const Graph g = RandomConnectedGraph(25, 20, /*seed=*/17);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.04);
  const SeededBeliefs seeded = SeedPaperBeliefs(25, 3, 5, /*seed=*/18);
  const double cold =
      LinBpOperatorSpectralRadius(g, hhat, LinBpVariant::kLinBp);
  ASSERT_LT(cold, 1.0);
  std::vector<Edge> heavy = g.edges();
  for (Edge& e : heavy) e.weight = 50.0;
  DenseMatrix row(1, 3);
  row.At(0, 0) = 0.06;
  row.At(0, 1) = -0.02;
  row.At(0, 2) = -0.04;

  for (const bool filled : {false, true}) {
    SCOPED_TRACE(filled ? "cache filled before the edit"
                        : "cache stale before the edit");
    LinBpState state(g, hhat, seeded.residuals, TightOptions());
    EXPECT_EQ(state.diagnostics().spectral_radius_estimate, -1.0);
    if (filled) {
      EXPECT_EQ(state.SpectralRadius(), cold);
    }
    EXPECT_EQ(state.UpdateEdgeWeights(heavy), -1);
    EXPECT_GT(state.diagnostics().spectral_radius_estimate, 1.0);

    EXPECT_GT(state.UpdateExplicitBeliefs({3}, row), 0);
    ASSERT_TRUE(state.converged());
    EXPECT_EQ(state.diagnostics().spectral_radius_estimate,
              filled ? cold : -1.0);
    EXPECT_EQ(state.SpectralRadius(), cold);
    EXPECT_GT(state.UpdateExplicitBeliefs({4}, row), 0);
    EXPECT_EQ(state.diagnostics().spectral_radius_estimate, cold);
  }
}

// After every op of a replayed add/reweight/delete/belief trace, and
// after a rolled-back edit, SpectralRadius() is bit-identical to a cold
// estimate of the graph the state now holds.
TEST(LinBpStateTest, SpectralRadiusIsTheColdEstimateAfterEveryOp) {
  const std::int64_t n = 30;
  const Graph g = RandomConnectedGraph(n, 25, /*seed=*/23);
  const DenseMatrix hhat = testing::RandomResidualCoupling(3, 0.03, 24);
  const SeededBeliefs seeded = SeedPaperBeliefs(n, 3, 6, /*seed=*/25);
  LinBpState state(g, hhat, seeded.residuals, TightOptions());
  std::vector<Edge> edges = g.edges();
  auto cold = [&] {
    return LinBpOperatorSpectralRadius(Graph(n, edges), hhat,
                                       LinBpVariant::kLinBp);
  };
  Rng rng(26);
  for (int op = 0; op < 12; ++op) {
    SCOPED_TRACE(op);
    int sweeps = 0;
    const std::size_t picked = rng.NextBounded(edges.size());
    switch (op % 4) {
      case 0: {  // add an edge the graph does not have
        const Graph current(n, edges);
        Edge added{0, 0, 1.0 + rng.NextDouble()};
        while (added.u == added.v ||
               current.adjacency().At(added.u, added.v) != 0.0) {
          added.u = rng.NextInt(0, n - 1);
          added.v = rng.NextInt(0, n - 1);
        }
        sweeps = state.AddEdges({added});
        edges.push_back(added);
        break;
      }
      case 1:  // reweight
        edges[picked].weight = 0.5 + rng.NextDouble();
        sweeps = state.UpdateEdgeWeights({edges[picked]});
        break;
      case 2:  // delete
        sweeps = state.RemoveEdges({edges[picked]});
        edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(picked));
        break;
      case 3: {  // belief update: the cache survives it
        const double before = state.SpectralRadius();
        DenseMatrix row(1, 3);
        row.At(0, 0) = 0.1 * rng.NextDouble();
        row.At(0, 1) = -row.At(0, 0);
        sweeps = state.UpdateExplicitBeliefs({rng.NextInt(0, n - 1)}, row);
        EXPECT_EQ(state.diagnostics().spectral_radius_estimate, before);
        break;
      }
    }
    EXPECT_GT(sweeps, 0);
    ASSERT_TRUE(state.converged());
    EXPECT_EQ(state.SpectralRadius(), cold());
  }

  std::vector<Edge> heavy = edges;
  for (Edge& e : heavy) e.weight = 50.0;
  EXPECT_EQ(state.UpdateEdgeWeights(heavy), -1);
  EXPECT_EQ(state.SpectralRadius(), cold());
}

// The update layer's spans: an edge update opens update_validate,
// update_graph_edit and update_resolve and no longer estimates rho(M);
// SpectralRadius() opens a spectral_estimate span only when it
// computes.
TEST(LinBpStateTest, UpdateSpansAndOnDemandSpectralEstimate) {
  const Graph g = RandomConnectedGraph(20, 15, /*seed=*/31);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.05);
  const SeededBeliefs seeded = SeedPaperBeliefs(20, 3, 5, /*seed=*/32);
  LinBpState state(g, hhat, seeded.residuals, TightOptions());
  Edge added{0, 1, 1.0};
  while (g.adjacency().At(added.u, added.v) != 0.0) ++added.v;
  DenseMatrix row(1, 3);
  row.At(0, 0) = 0.05;
  row.At(0, 2) = -0.05;
  obs::Counter& estimates = obs::Registry::Global().GetCounter(
      "linbp_spectral_estimates_total");
  const std::int64_t estimates_before = estimates.Value();

  obs::Tracer tracer;
  obs::SetActiveTracer(&tracer);
  EXPECT_GT(state.AddEdges({added}), 0);
  EXPECT_EQ(CountSpans(tracer, "update_validate"), 1);
  EXPECT_EQ(CountSpans(tracer, "update_graph_edit"), 1);
  EXPECT_EQ(CountSpans(tracer, "update_resolve"), 1);
  EXPECT_GT(CountSpans(tracer, "linbp_sweep"), 0);
  EXPECT_EQ(CountSpans(tracer, "spectral_estimate"), 0);
  // A belief update edits no graph.
  EXPECT_GT(state.UpdateExplicitBeliefs({2}, row), 0);
  EXPECT_EQ(CountSpans(tracer, "update_validate"), 2);
  EXPECT_EQ(CountSpans(tracer, "update_graph_edit"), 1);
  EXPECT_EQ(CountSpans(tracer, "update_resolve"), 2);
  // A rejected batch stops in validation.
  EXPECT_EQ(state.AddEdges({added}), -1);
  EXPECT_EQ(CountSpans(tracer, "update_validate"), 3);
  EXPECT_EQ(CountSpans(tracer, "update_graph_edit"), 1);
  const double rho = state.SpectralRadius();
  EXPECT_EQ(CountSpans(tracer, "spectral_estimate"), 1);
  EXPECT_EQ(state.SpectralRadius(), rho);
  EXPECT_EQ(CountSpans(tracer, "spectral_estimate"), 1);
  obs::SetActiveTracer(nullptr);
  EXPECT_EQ(estimates.Value() - estimates_before, 1);
  EXPECT_GT(rho, 0.0);
  EXPECT_LT(rho, 1.0);
}

// A unit-weight graph switches form with its weights: an add or
// reweight with a weight other than 1 makes it weighted, removing or
// reweighting to 1 its last such weight makes it unit again, and a
// rejected or rolled-back edit leaves the form it found. After every
// edit the state's graph is memcmp-equal, form included, to the graph of
// the edited edge list, and the warm beliefs equal its cold solve to
// 1e-9.
TEST(LinBpStateTest, EdgeEditsSwitchTheGraphFormAndStayExact) {
  const std::int64_t n = 25;
  const Graph g = RandomConnectedGraph(n, 20, /*seed=*/23);
  ASSERT_TRUE(g.adjacency().unit_weights());
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.04);
  const SeededBeliefs seeded = SeedPaperBeliefs(n, 3, 5, /*seed=*/24);
  LinBpState state(g, hhat, seeded.residuals, TightOptions());
  ASSERT_TRUE(state.converged());
  std::vector<Edge> edges = g.edges();
  const auto expect_cold = [&](bool unit) {
    EXPECT_EQ(state.graph().adjacency().unit_weights(), unit);
    const Graph cold_graph(n, edges);
    EXPECT_EQ(cold_graph.adjacency().unit_weights(), unit);
    ExpectSameGraph(state.graph(), cold_graph);
    const LinBpResult cold =
        RunLinBp(cold_graph, hhat, seeded.residuals, TightOptions());
    ExpectMatrixNear(state.beliefs(), cold.beliefs, 1e-9);
  };
  const auto set_weight = [&](const Edge& edit) {
    for (Edge& e : edges) {
      if (e.u == std::min(edit.u, edit.v) && e.v == std::max(edit.u, edit.v)) {
        e.weight = edit.weight;
      }
    }
  };
  std::vector<Edge> missing;
  for (std::int64_t u = 0; u < n && missing.size() < 2; ++u) {
    for (std::int64_t v = u + 1; v < n && missing.size() < 2; ++v) {
      if (g.adjacency().At(u, v) == 0.0) missing.push_back({u, v, 1.0});
    }
  }
  ASSERT_EQ(missing.size(), 2u);
  const Edge first = edges[0];
  std::string error;

  // Weight-1 add: still unit.
  ASSERT_GE(state.AddEdges({missing[0]}, &error), 0) << error;
  edges.push_back(missing[0]);
  expect_cold(true);
  // Reweight to 0.5: weighted.
  ASSERT_GE(state.UpdateEdgeWeights({{first.u, first.v, 0.5}}, &error), 0)
      << error;
  set_weight({first.u, first.v, 0.5});
  expect_cold(false);
  // A rejected add (the edge exists) keeps it weighted.
  EXPECT_EQ(state.AddEdges({{missing[0].u, missing[0].v, 2.0}}, &error), -1);
  expect_cold(false);
  // Reweight back to 1: unit again.
  ASSERT_GE(state.UpdateEdgeWeights({{first.v, first.u, 1.0}}, &error), 0)
      << error;
  set_weight({first.u, first.v, 1.0});
  expect_cold(true);
  // Add at weight 1.5: weighted; remove it: unit again.
  ASSERT_GE(state.AddEdges({{missing[1].u, missing[1].v, 1.5}}, &error), 0)
      << error;
  edges.push_back({missing[1].u, missing[1].v, 1.5});
  expect_cold(false);
  ASSERT_GE(state.RemoveEdges({missing[1]}, &error), 0) << error;
  edges.pop_back();
  expect_cold(true);
  // A rejected reweight (a self-loop in the batch) keeps it unit.
  EXPECT_EQ(state.UpdateEdgeWeights({{first.u, first.v, 3.0}, {2, 2, 3.0}},
                                    &error),
            -1);
  expect_cold(true);
  // A rolled-back reweight (every edge at 50 diverges) restores the unit
  // form it found.
  std::vector<Edge> heavy = edges;
  for (Edge& e : heavy) e.weight = 50.0;
  EXPECT_EQ(state.UpdateEdgeWeights(heavy, &error), -1);
  EXPECT_NE(error.find("diverging"), std::string::npos) << error;
  EXPECT_TRUE(state.graph().adjacency().unit_weights());
  ExpectSameGraph(state.graph(), Graph(n, edges));
  // ... and from a weighted graph, the weighted form it found.
  ASSERT_GE(state.UpdateEdgeWeights({{first.u, first.v, 0.75}}, &error), 0)
      << error;
  set_weight({first.u, first.v, 0.75});
  expect_cold(false);
  heavy[0] = {first.u, first.v, 1.0};
  EXPECT_EQ(state.UpdateEdgeWeights(heavy, &error), -1);
  EXPECT_FALSE(state.graph().adjacency().unit_weights());
  ExpectSameGraph(state.graph(), Graph(n, edges));
}

TEST(LinBpStateTest, DivergentAddEdgesRollsBackGraph) {
  const Graph g = RandomConnectedGraph(25, 20, /*seed=*/19);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.04);
  const SeededBeliefs seeded = SeedPaperBeliefs(25, 3, 5, /*seed=*/20);
  LinBpState state(g, hhat, seeded.residuals, TightOptions());
  ASSERT_TRUE(state.converged());
  const DenseMatrix before = state.beliefs();

  // Adding every missing edge at weight 4 pushes lambda_max(M) past 1,
  // where the segmented default diverges too. (Heavier is not surer: at
  // weight 50 the echo term dominates, I + D_S is indefinite, and the
  // segmented sweep converges; see SweepSchedule.)
  std::vector<Edge> dense_batch;
  for (std::int64_t u = 0; u < 25; ++u) {
    for (std::int64_t v = u + 1; v < 25; ++v) {
      if (g.adjacency().At(u, v) == 0.0) dense_batch.push_back({u, v, 4.0});
    }
  }
  ASSERT_GT(testing::SweptOperatorEigenRange(
                EditedGraph(g, dense_batch, /*remove=*/false,
                            exec::ExecContext::Serial()),
                hhat, /*with_echo=*/true)
                .hi,
            1.0);
  std::string error;
  EXPECT_EQ(state.AddEdges(dense_batch, &error), -1);
  EXPECT_NE(error.find("diverging"), std::string::npos) << error;
  ExpectSameGraph(state.graph(), g);
  ExpectMatrixNear(state.beliefs(), before, 0.0);
}

// A removal can push rho(M) past 1 too. Under LinBP*, rho(M) is
// rho(A) * rho(Hhat): the 4-cycle with one negative edge has rho(A) =
// sqrt(2), and dropping that edge leaves the path P4 with rho(A) = the
// golden ratio. The diverging re-solve rolls the removal back.
TEST(LinBpStateTest, DivergentRemoveEdgesRollsBackGraph) {
  const Graph g(4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 0, -1.0}});
  const Graph path(4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}});
  const LinBpVariant star = LinBpVariant::kLinBpStar;
  const double unit_rho = LinBpOperatorSpectralRadius(
      g, AuctionCoupling().ScaledResidual(1.0), star);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.95 / unit_rho);
  ASSERT_LT(LinBpOperatorSpectralRadius(g, hhat, star), 1.0);
  ASSERT_GT(LinBpOperatorSpectralRadius(path, hhat, star), 1.0);
  DenseMatrix residuals(4, 3);
  residuals.At(0, 0) = 0.06;
  residuals.At(0, 1) = -0.02;
  residuals.At(0, 2) = -0.04;
  LinBpState state(g, hhat, residuals, TightOptions(star));
  ASSERT_TRUE(state.converged());
  const DenseMatrix before = state.beliefs();

  std::string error;
  EXPECT_EQ(state.RemoveEdges({{0, 3, 1.0}}, &error), -1);
  EXPECT_NE(error.find("diverging"), std::string::npos) << error;
  ExpectSameGraph(state.graph(), g);
  ExpectMatrixNear(state.beliefs(), before, 0.0);
}

TEST(LinBpStateTest, StarVariantSupported) {
  const Graph g = RandomConnectedGraph(15, 10, /*seed=*/9);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.05);
  const SeededBeliefs seeded = SeedPaperBeliefs(15, 3, 4, /*seed=*/10);
  LinBpState state(g, hhat, seeded.residuals,
                   TightOptions(LinBpVariant::kLinBpStar));
  ASSERT_TRUE(state.converged());
  const LinBpResult reference =
      RunLinBp(g, hhat, seeded.residuals,
               TightOptions(LinBpVariant::kLinBpStar));
  ExpectMatrixNear(state.beliefs(), reference.beliefs, 1e-11);
}

TEST(LinBpStateDeathTest, ExactVariantRejected) {
  const Graph g = PathGraph(3);
  EXPECT_DEATH(LinBpState(g, AuctionCoupling().ScaledResidual(0.05),
                          DenseMatrix(3, 3),
                          TightOptions(LinBpVariant::kLinBpExact)),
               "kLinBp");
}

class LinBpIncrementalRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(LinBpIncrementalRandomTest, SequencesOfUpdatesStayExact) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed + 31);
  const std::int64_t n = 30;
  const Graph g = RandomConnectedGraph(n, 25, seed);
  const DenseMatrix hhat =
      testing::RandomResidualCoupling(3, 0.03, seed + 1);
  SeededBeliefs seeded = SeedPaperBeliefs(n, 3, 6, seed + 2);
  LinBpState state(g, hhat, seeded.residuals, TightOptions());
  std::vector<Edge> edges = g.edges();

  for (int round = 0; round < 3; ++round) {
    if (round % 2 == 0) {
      // Belief update.
      const std::int64_t node = rng.NextInt(0, n - 1);
      DenseMatrix row(1, 3);
      double sum = 0.0;
      for (int c = 0; c < 2; ++c) {
        row.At(0, c) = 0.1 * (2.0 * rng.NextDouble() - 1.0);
        sum += row.At(0, c);
      }
      row.At(0, 2) = -sum;
      state.UpdateExplicitBeliefs({node}, row);
      for (int c = 0; c < 3; ++c) {
        seeded.residuals.At(node, c) = row.At(0, c);
      }
    } else {
      // Edge update.
      while (true) {
        const std::int64_t u = rng.NextInt(0, n - 1);
        const std::int64_t v = rng.NextInt(0, n - 1);
        if (u == v) continue;
        bool exists = false;
        for (const Edge& e : edges) {
          if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) exists = true;
        }
        if (exists) continue;
        state.AddEdges({{u, v, 1.0}});
        edges.push_back({u, v, 1.0});
        break;
      }
    }
    ASSERT_TRUE(state.converged());
    const LinBpResult reference = RunLinBp(
        Graph(n, edges), hhat, seeded.residuals, TightOptions());
    ExpectMatrixNear(state.beliefs(), reference.beliefs, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinBpIncrementalRandomTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace linbp
