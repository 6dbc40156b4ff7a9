#include "src/core/sbp_incremental.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>

#include "gtest/gtest.h"
#include "src/core/coupling.h"
#include "src/graph/beliefs.h"
#include "src/graph/generators.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace {

using testing::ExpectMatrixNear;

// Reference: from-scratch SBP on the state's current graph and beliefs.
void ExpectStateMatchesFromScratch(const SbpState& state, const Graph& graph,
                                   const DenseMatrix& hhat,
                                   const DenseMatrix& explicit_residuals,
                                   std::vector<std::int64_t> explicit_nodes) {
  std::sort(explicit_nodes.begin(), explicit_nodes.end());
  const SbpResult reference =
      RunSbp(graph, hhat, explicit_residuals, explicit_nodes);
  EXPECT_EQ(state.geodesic(), reference.geodesic);
  ExpectMatrixNear(state.beliefs(), reference.beliefs, 1e-12);
}

// SbpState reads a unit-weight graph through its weights (1 on every
// edge) and takes edits that switch the graph's form: an add or reweight
// with a weight other than 1, then removing or reweighting to 1 its last
// such weight, and rejected batches in either form. After every edit the
// warm state equals from-scratch SBP on the edited graph, whose form
// follows its weights.
TEST(SbpStateTest, EdgeEditsAcrossGraphFormsMatchFromScratch) {
  const std::int64_t n = 25;
  const Graph g = RandomConnectedGraph(n, 20, /*seed=*/31);
  ASSERT_TRUE(g.adjacency().unit_weights());
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.3);
  const SeededBeliefs seeded = SeedPaperBeliefs(n, 3, 5, /*seed=*/32);
  SbpState state = SbpState::FromGraph(g, hhat, seeded.residuals,
                                       seeded.explicit_nodes);
  std::vector<Edge> edges = g.edges();
  const auto expect_scratch = [&](bool unit) {
    const Graph scratch(n, edges);
    EXPECT_EQ(scratch.adjacency().unit_weights(), unit);
    ExpectStateMatchesFromScratch(state, scratch, hhat, seeded.residuals,
                                  seeded.explicit_nodes);
  };
  expect_scratch(true);
  std::vector<Edge> missing;
  for (std::int64_t u = 0; u < n && missing.size() < 2; ++u) {
    for (std::int64_t v = u + 1; v < n && missing.size() < 2; ++v) {
      if (g.adjacency().At(u, v) == 0.0) missing.push_back({u, v, 1.0});
    }
  }
  ASSERT_EQ(missing.size(), 2u);
  const Edge first = edges[0];
  std::string error;

  ASSERT_GE(state.AddEdges({missing[0]}, &error), 0) << error;
  edges.push_back(missing[0]);
  expect_scratch(true);
  ASSERT_GE(state.UpdateEdgeWeights({{first.u, first.v, 0.5}}, &error), 0)
      << error;
  edges[0].weight = 0.5;
  expect_scratch(false);
  EXPECT_EQ(state.AddEdges({{missing[0].v, missing[0].u, 2.0}}, &error), -1);
  expect_scratch(false);
  ASSERT_GE(state.UpdateEdgeWeights({{first.v, first.u, 1.0}}, &error), 0)
      << error;
  edges[0].weight = 1.0;
  expect_scratch(true);
  ASSERT_GE(state.AddEdges({{missing[1].u, missing[1].v, 1.5}}, &error), 0)
      << error;
  edges.push_back({missing[1].u, missing[1].v, 1.5});
  expect_scratch(false);
  ASSERT_GE(state.RemoveEdges({missing[1]}, &error), 0) << error;
  edges.pop_back();
  expect_scratch(true);
  EXPECT_EQ(state.UpdateEdgeWeights({{first.u, first.v, 3.0}, {2, 2, 3.0}},
                                    &error),
            -1);
  expect_scratch(true);
}

TEST(SbpStateTest, FromGraphMatchesRunSbp) {
  const Graph g = RandomConnectedGraph(20, 15, /*seed=*/1);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.3);
  const SeededBeliefs seeded = SeedPaperBeliefs(20, 3, 5, /*seed=*/2);
  const SbpState state =
      SbpState::FromGraph(g, hhat, seeded.residuals, seeded.explicit_nodes);
  ExpectStateMatchesFromScratch(state, g, hhat, seeded.residuals,
                                seeded.explicit_nodes);
}

TEST(SbpStateTest, SinglePassInvariant) {
  // "Single-pass": the initial assignment computes every reachable
  // non-explicit node exactly once.
  const Graph g = RandomConnectedGraph(50, 40, /*seed=*/21);
  const DenseMatrix hhat = AuctionCoupling().ScaledResidual(0.3);
  const SeededBeliefs seeded = SeedPaperBeliefs(50, 3, 5, /*seed=*/22);
  const SbpState state =
      SbpState::FromGraph(g, hhat, seeded.residuals, seeded.explicit_nodes);
  // Connected graph: everything is reachable.
  EXPECT_EQ(state.last_update_recomputed_nodes(),
            50 - static_cast<std::int64_t>(seeded.explicit_nodes.size()));
}

TEST(SbpStateTest, AddExplicitBeliefOnPath) {
  // Adding a label at the far end of a path relabels only the near half.
  const Graph g = PathGraph(9);
  const DenseMatrix hhat = HomophilyCoupling2().ScaledResidual(0.4);
  DenseMatrix e(9, 2);
  e.At(0, 0) = 0.1;
  e.At(0, 1) = -0.1;
  SbpState state = SbpState::FromGraph(g, hhat, e, {0});
  EXPECT_EQ(state.geodesic()[8], 8);

  DenseMatrix new_row(1, 2);
  new_row.At(0, 0) = -0.1;
  new_row.At(0, 1) = 0.1;
  state.AddExplicitBeliefs({8}, new_row);
  EXPECT_EQ(state.geodesic()[8], 0);
  EXPECT_EQ(state.geodesic()[4], 4);

  DenseMatrix combined = e;
  combined.At(8, 0) = -0.1;
  combined.At(8, 1) = 0.1;
  ExpectStateMatchesFromScratch(state, g, hhat, combined, {0, 8});
  // Only the right half of the path needed recomputation.
  EXPECT_LE(state.last_update_recomputed_nodes(), 5);
}

TEST(SbpStateTest, OverwritingExplicitBeliefPropagates) {
  const Graph g = PathGraph(4);
  const DenseMatrix hhat = HomophilyCoupling2().ScaledResidual(0.4);
  DenseMatrix e(4, 2);
  e.At(0, 0) = 0.1;
  e.At(0, 1) = -0.1;
  SbpState state = SbpState::FromGraph(g, hhat, e, {0});
  const double before = state.beliefs().At(3, 0);

  DenseMatrix flipped(1, 2);
  flipped.At(0, 0) = -0.2;
  flipped.At(0, 1) = 0.2;
  state.AddExplicitBeliefs({0}, flipped);
  DenseMatrix combined(4, 2);
  combined.At(0, 0) = -0.2;
  combined.At(0, 1) = 0.2;
  ExpectStateMatchesFromScratch(state, g, hhat, combined, {0});
  EXPECT_LT(state.beliefs().At(3, 0), 0.0);
  EXPECT_NE(state.beliefs().At(3, 0), before);
}

TEST(SbpStateTest, AddEdgeConnectsComponents) {
  const Graph g(5, {{0, 1, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}});
  const DenseMatrix hhat = HomophilyCoupling2().ScaledResidual(0.4);
  DenseMatrix e(5, 2);
  e.At(0, 0) = 0.1;
  e.At(0, 1) = -0.1;
  SbpState state = SbpState::FromGraph(g, hhat, e, {0});
  EXPECT_EQ(state.geodesic()[2], kUnreachable);

  state.AddEdges({{1, 2, 1.0}});
  const Graph updated(
      5, {{0, 1, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}, {1, 2, 1.0}});
  ExpectStateMatchesFromScratch(state, updated, hhat, e, {0});
  EXPECT_EQ(state.geodesic()[4], 4);
}

TEST(SbpStateTest, AppendixCPathologicalChain) {
  // Appendix C: new edges s-v and v-t with geodesics 0, 2, 4: both v and t
  // become seeds, and t is updated twice (once via its old parent, then via
  // v's improved geodesic).
  //
  // Build a path 0-1-2-3-4 with explicit node 0 (geodesics 0..4).
  const Graph g = PathGraph(5);
  const DenseMatrix hhat = HomophilyCoupling2().ScaledResidual(0.4);
  DenseMatrix e(5, 2);
  e.At(0, 0) = 0.1;
  e.At(0, 1) = -0.1;
  SbpState state = SbpState::FromGraph(g, hhat, e, {0});
  state.AddEdges({{0, 2, 1.0}, {2, 4, 1.0}});
  const Graph updated(
      5, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 4, 1.0},
          {0, 2, 1.0}, {2, 4, 1.0}});
  ExpectStateMatchesFromScratch(state, updated, hhat, e, {0});
  EXPECT_EQ(state.geodesic()[2], 1);
  EXPECT_EQ(state.geodesic()[4], 2);
}

TEST(SbpStateTest, RemoveEdgeDisconnectsComponent) {
  // Cutting the bridge 1-2 strands {2, 3, 4}: their geodesics revert to
  // unreachable and their belief rows zero out, exactly like a
  // from-scratch solve on the cut graph.
  const Graph g(5, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}});
  const DenseMatrix hhat = HomophilyCoupling2().ScaledResidual(0.4);
  DenseMatrix e(5, 2);
  e.At(0, 0) = 0.1;
  e.At(0, 1) = -0.1;
  SbpState state = SbpState::FromGraph(g, hhat, e, {0});
  EXPECT_EQ(state.geodesic()[4], 4);

  EXPECT_GE(state.RemoveEdges({{1, 2, 1.0}}), 0);
  const Graph cut(5, {{0, 1, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}});
  ExpectStateMatchesFromScratch(state, cut, hhat, e, {0});
  EXPECT_EQ(state.geodesic()[2], kUnreachable);
  EXPECT_EQ(state.beliefs().At(4, 0), 0.0);

  // Restoring the bridge (endpoints flipped) resurrects the far side.
  EXPECT_GE(state.AddEdges({{2, 1, 1.0}}), 0);
  const Graph restored(
      5, {{0, 1, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}, {2, 1, 1.0}});
  ExpectStateMatchesFromScratch(state, restored, hhat, e, {0});
  EXPECT_EQ(state.geodesic()[4], 4);
}

TEST(SbpStateTest, ReweightEdgeMatchesFromScratch) {
  const Graph g = PathGraph(5);
  const DenseMatrix hhat = HomophilyCoupling2().ScaledResidual(0.4);
  DenseMatrix e(5, 2);
  e.At(0, 0) = 0.1;
  e.At(0, 1) = -0.1;
  SbpState state = SbpState::FromGraph(g, hhat, e, {0});

  // Reweighting keeps geodesics (hop counts) but rescales the cascade.
  const std::vector<std::int64_t> before = state.geodesic();
  EXPECT_GE(state.UpdateEdgeWeights({{1, 2, 0.5}, {4, 3, 2.0}}), 0);
  EXPECT_EQ(state.geodesic(), before);
  const Graph reweighted(
      5, {{0, 1, 1.0}, {1, 2, 0.5}, {2, 3, 1.0}, {3, 4, 2.0}});
  ExpectStateMatchesFromScratch(state, reweighted, hhat, e, {0});
}

TEST(SbpStateTest, MutationsRejectInvalidBatchesWithoutAborting) {
  const Graph g = PathGraph(4);  // edges 0-1, 1-2, 2-3
  const DenseMatrix hhat = HomophilyCoupling2().ScaledResidual(0.3);
  DenseMatrix e(4, 2);
  e.At(0, 0) = 0.1;
  e.At(0, 1) = -0.1;
  SbpState state = SbpState::FromGraph(g, hhat, e, {0});
  const std::vector<std::int64_t> geodesic_before = state.geodesic();
  const DenseMatrix beliefs_before = state.beliefs();

  struct Case {
    std::vector<Edge> batch;
    const char* expect;
  };
  const std::vector<Case> cases = {
      {{{0, 2, 1.0}}, "does not exist"},
      {{{0, 4, 1.0}}, "outside"},
      {{{-1, 2, 1.0}}, "outside"},
      {{{2, 2, 1.0}}, "self-loop"},
      {{{0, 1, 1.0}, {1, 0, 2.0}}, "duplicate edge"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_EQ(state.RemoveEdges(c.batch, &error), -1);
    EXPECT_NE(error.find(c.expect), std::string::npos) << error;
    error.clear();
    EXPECT_EQ(state.UpdateEdgeWeights(c.batch, &error), -1);
    EXPECT_NE(error.find(c.expect), std::string::npos) << error;
    EXPECT_EQ(state.geodesic(), geodesic_before);
    ExpectMatrixNear(state.beliefs(), beliefs_before, 0.0);
  }
  // Reweighting validates the new weight; removal names edges by their
  // endpoints and ignores it.
  std::string error;
  EXPECT_EQ(state.UpdateEdgeWeights({{0, 1, std::nan("")}}, &error), -1);
  EXPECT_NE(error.find("non-finite"), std::string::npos) << error;
  EXPECT_GE(state.RemoveEdges({{0, 1, std::nan("")}}, &error), 0) << error;

  // Hostile belief batches error out the same way.
  DenseMatrix row(1, 2);
  row.At(0, 0) = 0.05;
  row.At(0, 1) = -0.05;
  error.clear();
  EXPECT_EQ(state.AddExplicitBeliefs({7}, row, &error), -1);
  EXPECT_NE(error.find("outside"), std::string::npos) << error;
  error.clear();
  EXPECT_EQ(state.AddExplicitBeliefs({1}, DenseMatrix(1, 3), &error), -1);
  EXPECT_NE(error.find("coupling has 2"), std::string::npos) << error;
}

TEST(SbpStateTest, RejectsDuplicateEdgeWithoutAborting) {
  const Graph g = PathGraph(3);
  SbpState state = SbpState::FromGraph(
      g, HomophilyCoupling2().ScaledResidual(0.3), DenseMatrix(3, 2), {});
  std::string error;
  EXPECT_EQ(state.AddEdges({{0, 1, 1.0}}, &error), -1);
  EXPECT_NE(error.find("already exists"), std::string::npos) << error;
}

// Randomized equivalence: a sequence of incremental updates always matches
// a from-scratch recomputation.
class SbpIncrementalRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SbpIncrementalRandomTest, BeliefBatchesMatchFromScratch) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 13);
  const std::int64_t n = 40;
  const Graph g = RandomConnectedGraph(n, 30, seed);
  const DenseMatrix hhat = testing::RandomResidualCoupling(3, 0.2, seed + 1);

  // Start with a few explicit beliefs.
  DenseMatrix residuals(n, 3);
  std::vector<std::int64_t> explicit_nodes;
  auto random_row = [&](std::int64_t node) {
    double sum = 0.0;
    for (std::int64_t c = 0; c + 1 < 3; ++c) {
      residuals.At(node, c) = 0.2 * (2.0 * rng.NextDouble() - 1.0);
      sum += residuals.At(node, c);
    }
    residuals.At(node, 2) = -sum;
  };
  for (std::int64_t v = 0; v < 3; ++v) {
    explicit_nodes.push_back(v);
    random_row(v);
  }
  SbpState state = SbpState::FromGraph(g, hhat, residuals, explicit_nodes);

  // Three rounds of random belief batches (mixing fresh and overwritten).
  for (int round = 0; round < 3; ++round) {
    const std::int64_t batch = 1 + rng.NextInt(0, 3);
    std::vector<std::int64_t> nodes;
    DenseMatrix rows(batch, 3);
    for (std::int64_t i = 0; i < batch; ++i) {
      const std::int64_t node = rng.NextInt(0, n - 1);
      nodes.push_back(node);
      random_row(node);
      for (std::int64_t c = 0; c < 3; ++c) {
        rows.At(i, c) = residuals.At(node, c);
      }
      if (std::find(explicit_nodes.begin(), explicit_nodes.end(), node) ==
          explicit_nodes.end()) {
        explicit_nodes.push_back(node);
      }
    }
    state.AddExplicitBeliefs(nodes, rows);
    ExpectStateMatchesFromScratch(state, g, hhat, residuals, explicit_nodes);
  }
}

TEST_P(SbpIncrementalRandomTest, EdgeBatchesMatchFromScratch) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 104729 + 7);
  const std::int64_t n = 35;
  // Sparse start (possibly disconnected) so edges change geodesics a lot.
  const Graph start = ErdosRenyiGraph(n, 20, seed + 2);
  const DenseMatrix hhat = testing::RandomResidualCoupling(3, 0.25, seed + 3);
  const SeededBeliefs seeded = SeedPaperBeliefs(n, 3, 4, seed + 4);

  SbpState state =
      SbpState::FromGraph(start, hhat, seeded.residuals,
                          seeded.explicit_nodes);
  std::vector<Edge> all_edges = start.edges();
  auto edge_exists = [&](std::int64_t u, std::int64_t v) {
    for (const Edge& e : all_edges) {
      if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) return true;
    }
    return false;
  };

  for (int round = 0; round < 4; ++round) {
    std::vector<Edge> batch;
    const std::int64_t want = 1 + rng.NextInt(0, 4);
    while (static_cast<std::int64_t>(batch.size()) < want) {
      const std::int64_t u = rng.NextInt(0, n - 1);
      const std::int64_t v = rng.NextInt(0, n - 1);
      if (u == v || edge_exists(u, v)) continue;
      bool in_batch = false;
      for (const Edge& e : batch) {
        if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) in_batch = true;
      }
      if (in_batch) continue;
      batch.push_back({u, v, 1.0});
    }
    state.AddEdges(batch);
    all_edges.insert(all_edges.end(), batch.begin(), batch.end());
    const Graph updated(n, all_edges);
    ExpectStateMatchesFromScratch(state, updated, hhat, seeded.residuals,
                                  seeded.explicit_nodes);
  }
}

TEST_P(SbpIncrementalRandomTest, WeightedEdgeBatchesMatchFromScratch) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed + 1000);
  const std::int64_t n = 25;
  const Graph start = RandomWeightedConnectedGraph(n, 10, 0.5, 2.0, seed);
  const DenseMatrix hhat = testing::RandomResidualCoupling(2, 0.2, seed + 1);
  const SeededBeliefs seeded = SeedPaperBeliefs(n, 2, 3, seed + 2);
  SbpState state = SbpState::FromGraph(start, hhat, seeded.residuals,
                                       seeded.explicit_nodes);
  std::vector<Edge> all_edges = start.edges();
  // One weighted batch.
  std::vector<Edge> batch;
  while (batch.size() < 3) {
    const std::int64_t u = rng.NextInt(0, n - 1);
    const std::int64_t v = rng.NextInt(0, n - 1);
    if (u == v) continue;
    bool exists = false;
    for (const Edge& e : all_edges) {
      if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) exists = true;
    }
    for (const Edge& e : batch) {
      if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) exists = true;
    }
    if (exists) continue;
    batch.push_back({u, v, 0.5 + rng.NextDouble()});
  }
  state.AddEdges(batch);
  all_edges.insert(all_edges.end(), batch.begin(), batch.end());
  ExpectStateMatchesFromScratch(state, Graph(n, all_edges), hhat,
                                seeded.residuals, seeded.explicit_nodes);
}

TEST_P(SbpIncrementalRandomTest, RemovalBatchesMatchFromScratch) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 6151 + 3);
  const std::int64_t n = 35;
  // Sparse start so removals disconnect nodes often (the hard case:
  // geodesics reverting to unreachable and rows zeroing).
  const Graph start = ErdosRenyiGraph(n, 40, seed + 5);
  const DenseMatrix hhat = testing::RandomResidualCoupling(3, 0.25, seed + 6);
  const SeededBeliefs seeded = SeedPaperBeliefs(n, 3, 4, seed + 7);
  SbpState state = SbpState::FromGraph(start, hhat, seeded.residuals,
                                       seeded.explicit_nodes);
  std::vector<Edge> all_edges = start.edges();

  for (int round = 0; round < 4 && !all_edges.empty(); ++round) {
    // Remove a random batch of distinct existing edges.
    const std::int64_t want = std::min<std::int64_t>(
        1 + rng.NextInt(0, 3), static_cast<std::int64_t>(all_edges.size()));
    std::vector<Edge> batch;
    for (std::int64_t i = 0; i < want; ++i) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.NextInt(0, static_cast<std::int64_t>(all_edges.size()) - 1));
      batch.push_back(all_edges[pick]);
      all_edges[pick] = all_edges.back();
      all_edges.pop_back();
    }
    std::string error;
    ASSERT_GE(state.RemoveEdges(batch, &error), 0) << error;
    const Graph updated(n, all_edges);
    ExpectStateMatchesFromScratch(state, updated, hhat, seeded.residuals,
                                  seeded.explicit_nodes);
  }
}

TEST_P(SbpIncrementalRandomTest, ReweightBatchesMatchFromScratch) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 389 + 29);
  const std::int64_t n = 25;
  const Graph start = RandomWeightedConnectedGraph(n, 10, 0.5, 2.0, seed);
  const DenseMatrix hhat = testing::RandomResidualCoupling(2, 0.2, seed + 1);
  const SeededBeliefs seeded = SeedPaperBeliefs(n, 2, 3, seed + 2);
  SbpState state = SbpState::FromGraph(start, hhat, seeded.residuals,
                                       seeded.explicit_nodes);
  std::vector<Edge> all_edges = start.edges();

  for (int round = 0; round < 3; ++round) {
    // Reweight a batch of distinct existing edges.
    std::vector<Edge> batch;
    std::vector<std::size_t> picked;
    while (batch.size() < 3) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.NextInt(0, static_cast<std::int64_t>(all_edges.size()) - 1));
      if (std::find(picked.begin(), picked.end(), pick) != picked.end()) {
        continue;
      }
      picked.push_back(pick);
      const double weight = 0.25 + 1.5 * rng.NextDouble();
      all_edges[pick].weight = weight;
      batch.push_back({all_edges[pick].u, all_edges[pick].v, weight});
    }
    std::string error;
    ASSERT_GE(state.UpdateEdgeWeights(batch, &error), 0) << error;
    ExpectStateMatchesFromScratch(state, Graph(n, all_edges), hhat,
                                  seeded.residuals, seeded.explicit_nodes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SbpIncrementalRandomTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace linbp
