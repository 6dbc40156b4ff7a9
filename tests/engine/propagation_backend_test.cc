// InMemoryBackend and the backend-generalized operators must be
// bit-for-bit the direct Graph/SparseMatrix code paths.

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/convergence.h"
#include "src/core/coupling.h"
#include "src/core/fabp.h"
#include "src/core/linbp.h"
#include "src/core/linbp_incremental.h"
#include "src/engine/backend_ops.h"
#include "src/engine/in_memory_backend.h"
#include "src/graph/generators.h"
#include "src/la/kron_ops.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace {

Graph TestGraph() { return KroneckerPowerGraph(2); }

DenseMatrix TestBeliefs(const Graph& graph, std::int64_t k,
                        std::uint64_t seed) {
  return testing::RandomMatrix(graph.num_nodes(), k, 0.1, seed);
}

TEST(InMemoryBackendTest, ProductsMatchSparseKernels) {
  const Graph graph = TestGraph();
  const engine::InMemoryBackend backend(&graph);
  EXPECT_EQ(backend.num_nodes(), graph.num_nodes());
  EXPECT_EQ(backend.num_stored_entries(), graph.num_directed_edges());
  EXPECT_EQ(backend.weighted_degrees(), graph.weighted_degrees());

  const DenseMatrix b = TestBeliefs(graph, 3, 11);
  DenseMatrix out;
  std::string error;
  ASSERT_TRUE(backend.MultiplyDense(b, exec::ExecContext::Serial(), &out,
                                    &error));
  const DenseMatrix expected = graph.adjacency().MultiplyDense(b);
  EXPECT_EQ(out.MaxAbsDiff(expected), 0.0);

  std::vector<double> x(graph.num_nodes());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.01 * i - 0.3;
  std::vector<double> y;
  ASSERT_TRUE(backend.MultiplyVector(x, exec::ExecContext::Serial(), &y,
                                     &error));
  EXPECT_EQ(y, graph.adjacency().MultiplyVector(x));
}

TEST(BackendOpsTest, PropagateMatchesLinBpPropagate) {
  const Graph graph = TestGraph();
  const engine::InMemoryBackend backend(&graph);
  const DenseMatrix hhat = testing::RandomResidualCoupling(3, 0.05, 7);
  const DenseMatrix hhat2 = hhat.Multiply(hhat);
  const DenseMatrix b = TestBeliefs(graph, 3, 23);
  for (const bool with_echo : {true, false}) {
    const DenseMatrix expected =
        LinBpPropagate(graph.adjacency(), graph.weighted_degrees(), hhat,
                       hhat2, b, with_echo);
    DenseMatrix out;
    std::string error;
    ASSERT_TRUE(engine::BackendLinBpPropagate(
        backend, hhat, hhat2, b, with_echo, exec::ExecContext::Default(),
        &out, &error));
    EXPECT_EQ(out.MaxAbsDiff(expected), 0.0) << "with_echo=" << with_echo;
  }
}

TEST(BackendOpsTest, OperatorsMatchKronOps) {
  const Graph graph = TestGraph();
  const engine::InMemoryBackend backend(&graph);
  const DenseMatrix hhat = testing::RandomResidualCoupling(3, 0.05, 9);

  const LinBpOperator direct(&graph.adjacency(), graph.weighted_degrees(),
                             hhat, /*with_echo=*/true);
  const engine::BackendLinBpOperator generalized(&backend, hhat,
                                                 &direct.hhat2());
  ASSERT_EQ(direct.dim(), generalized.dim());
  std::vector<double> x(direct.dim());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.02 * i - 0.5;
  std::vector<double> y_direct;
  std::vector<double> y_generalized;
  direct.Apply(x, &y_direct);
  generalized.Apply(x, &y_generalized);
  EXPECT_EQ(y_direct, y_generalized);

  const engine::BackendAdjacencyOperator adjacency_op(&backend);
  std::vector<double> ax(graph.num_nodes(), 0.25);
  std::vector<double> y_adj;
  adjacency_op.Apply(ax, &y_adj);
  EXPECT_EQ(y_adj, graph.adjacency().MultiplyVector(ax));
}

TEST(BackendSolversTest, GraphOverloadsDelegateBitForBit) {
  const Graph graph = TestGraph();
  const engine::InMemoryBackend backend(&graph);
  const CouplingMatrix coupling = KroneckerExperimentCoupling();
  const DenseMatrix hhat = coupling.ScaledResidual(0.001);
  const DenseMatrix residuals = TestBeliefs(graph, 3, 31);

  const LinBpResult via_graph = RunLinBp(graph, hhat, residuals);
  const LinBpResult via_backend = RunLinBp(backend, hhat, residuals);
  EXPECT_FALSE(via_backend.failed);
  EXPECT_EQ(via_graph.iterations, via_backend.iterations);
  EXPECT_EQ(via_graph.beliefs.MaxAbsDiff(via_backend.beliefs), 0.0);

  std::vector<double> scalar(graph.num_nodes(), 0.0);
  scalar[0] = 0.4;
  scalar[3] = -0.2;
  const FabpResult fabp_graph = RunFabp(graph, 0.05, scalar);
  const FabpResult fabp_backend = RunFabp(backend, 0.05, scalar);
  EXPECT_FALSE(fabp_backend.failed);
  EXPECT_EQ(fabp_graph.beliefs, fabp_backend.beliefs);

  EXPECT_EQ(AdjacencySpectralRadius(graph),
            AdjacencySpectralRadius(backend));
  EXPECT_EQ(
      LinBpOperatorSpectralRadius(graph, hhat, LinBpVariant::kLinBp),
      LinBpOperatorSpectralRadius(backend, hhat, LinBpVariant::kLinBp));
  EXPECT_EQ(ExactEpsilonThreshold(graph, coupling, LinBpVariant::kLinBpStar),
            ExactEpsilonThreshold(backend, coupling,
                                  LinBpVariant::kLinBpStar));
}

TEST(LinBpStateBackendTest, BackendConstructionMatchesGraphConstruction) {
  const Graph graph = TestGraph();
  const DenseMatrix hhat =
      KroneckerExperimentCoupling().ScaledResidual(0.001);
  const DenseMatrix residuals = TestBeliefs(graph, 3, 41);

  LinBpState from_graph(graph, hhat, residuals);
  // Backend over a graph copy that outlives the state (test scope).
  const auto owned = std::make_shared<Graph>(graph);
  LinBpState from_backend(
      std::make_shared<engine::InMemoryBackend>(owned.get()), hhat,
      residuals);
  EXPECT_EQ(from_graph.cold_start_iterations(),
            from_backend.cold_start_iterations());
  EXPECT_EQ(from_graph.beliefs().MaxAbsDiff(from_backend.beliefs()), 0.0);
  EXPECT_TRUE(from_graph.has_graph());
  EXPECT_FALSE(from_backend.has_graph());

  // Edge updates need an owned graph.
  std::string error;
  EXPECT_EQ(from_backend.AddEdges({Edge{0, 2, 1.0}}, &error), -1);
  EXPECT_NE(error.find("mutable graph"), std::string::npos) << error;

  // Belief updates work on both and stay in lockstep.
  const DenseMatrix update = testing::RandomMatrix(2, 3, 0.2, 43);
  const std::vector<std::int64_t> nodes = {1, 4};
  EXPECT_EQ(from_graph.UpdateExplicitBeliefs(nodes, update),
            from_backend.UpdateExplicitBeliefs(nodes, update));
  EXPECT_EQ(from_graph.beliefs().MaxAbsDiff(from_backend.beliefs()), 0.0);
}

// Wraps InMemoryBackend but fails a block visit on demand — the
// in-memory stand-in for a shard checksum failure mid-solve. The visit
// is the one primitive the solver's fused sweep runs on, so a test that
// expects the injected error also proves the sweep went through it. It
// also counts visits: one per sweep or power-iteration step.
class FlakyBackend final : public engine::PropagationBackend {
 public:
  explicit FlakyBackend(const Graph* graph) : inner_(graph) {}
  // Fails the visit that follows `skip` successful ones.
  void FailNextVisit(int skip = 0) { countdown_ = skip + 1; }
  int visits() const { return visits_; }

  std::int64_t num_nodes() const override { return inner_.num_nodes(); }
  std::int64_t num_stored_entries() const override {
    return inner_.num_stored_entries();
  }
  const std::vector<double>& weighted_degrees() const override {
    return inner_.weighted_degrees();
  }
  bool VisitRowBlocks(Precision precision, const exec::ExecContext& ctx,
                      const engine::BlockVisitor& visit,
                      std::string* error) const override {
    ++visits_;
    if (countdown_ > 0 && --countdown_ == 0) {
      *error = "injected stream failure";
      return false;
    }
    return inner_.VisitRowBlocks(precision, ctx, visit, error);
  }

 private:
  engine::InMemoryBackend inner_;
  mutable int countdown_ = 0;
  mutable int visits_ = 0;
};

// FaBP runs on the LinBP sweep loop, so a visit failing mid-solve leaves
// the last completed sweep behind, as it does for LinBP.
TEST(BackendSolversTest, FabpMidSolveFailureKeepsLastCompletedSweep) {
  const Graph graph = TestGraph();
  std::vector<double> scalar(graph.num_nodes(), 0.0);
  scalar[0] = 0.4;
  scalar[3] = -0.2;
  constexpr int kFailingVisit = 4;
  FabpOptions capped;
  capped.max_iterations = kFailingVisit - 1;
  const FabpResult clean = RunFabp(graph, 0.05, scalar, capped);
  ASSERT_EQ(clean.iterations, kFailingVisit - 1);
  ASSERT_FALSE(clean.converged);

  FlakyBackend flaky(&graph);
  flaky.FailNextVisit(kFailingVisit - 1);
  const FabpResult failed = RunFabp(flaky, 0.05, scalar);
  EXPECT_TRUE(failed.failed);
  EXPECT_FALSE(failed.diverged);
  EXPECT_FALSE(failed.converged);
  EXPECT_EQ(failed.error, "injected stream failure");
  EXPECT_EQ(failed.iterations, kFailingVisit - 1);
  EXPECT_EQ(failed.beliefs, clean.beliefs);
}

// A failed update must be all-or-nothing even when the batch names the
// same node twice (the rollback must restore the ORIGINAL row, not the
// batch's first write).
TEST(LinBpStateBackendTest, FailedDuplicateNodeUpdateRollsBackExactly) {
  const Graph graph = TestGraph();
  const DenseMatrix hhat =
      KroneckerExperimentCoupling().ScaledResidual(0.001);
  const DenseMatrix residuals = TestBeliefs(graph, 3, 51);

  const auto owned = std::make_shared<Graph>(graph);
  auto flaky = std::make_shared<FlakyBackend>(owned.get());
  LinBpState tested(flaky, hhat, residuals);
  LinBpState control(graph, hhat, residuals);
  ASSERT_EQ(tested.beliefs().MaxAbsDiff(control.beliefs()), 0.0);

  // Duplicate node 2 in the failing batch.
  flaky->FailNextVisit();
  const DenseMatrix duplicate_rows = testing::RandomMatrix(2, 3, 0.3, 53);
  EXPECT_EQ(tested.UpdateExplicitBeliefs({2, 2}, duplicate_rows), -1);
  EXPECT_NE(tested.last_error().find("injected stream failure"),
            std::string::npos);
  EXPECT_EQ(tested.beliefs().MaxAbsDiff(control.beliefs()), 0.0);

  // If the rollback left the batch's first write behind, this later
  // update would solve against a corrupted prior and diverge from the
  // control state that never saw the failure.
  const DenseMatrix update = testing::RandomMatrix(1, 3, 0.2, 55);
  EXPECT_EQ(tested.UpdateExplicitBeliefs({5}, update),
            control.UpdateExplicitBeliefs({5}, update));
  EXPECT_EQ(tested.beliefs().MaxAbsDiff(control.beliefs()), 0.0);
}

// Every edge mutation must roll back BOTH the edited graph and the
// beliefs when the warm re-solve fails mid-stream; afterwards the state
// must behave exactly like one that never saw the failure.
TEST(LinBpStateBackendTest, FailedEdgeMutationsRollBackGraphAndBeliefs) {
  const Graph graph = TestGraph();
  const DenseMatrix hhat =
      KroneckerExperimentCoupling().ScaledResidual(0.001);
  const DenseMatrix residuals = TestBeliefs(graph, 3, 61);

  const auto owned = std::make_shared<Graph>(graph);
  auto flaky = std::make_shared<FlakyBackend>(owned.get());
  LinBpState tested(owned, flaky, hhat, residuals);
  LinBpState control(graph, hhat, residuals);
  ASSERT_EQ(tested.beliefs().MaxAbsDiff(control.beliefs()), 0.0);

  const Edge existing = graph.edges().front();
  const std::vector<Edge> added = {{0, graph.num_nodes() - 1, 0.8}};
  const std::vector<Edge> removed = {{existing.u, existing.v, 1.0}};
  const std::vector<Edge> reweighted = {{existing.u, existing.v, 2.5}};

  struct Case {
    const char* name;
    int (LinBpState::*mutate)(const std::vector<Edge>&, std::string*);
    const std::vector<Edge>* batch;
  };
  const Case cases[] = {
      {"AddEdges", &LinBpState::AddEdges, &added},
      {"RemoveEdges", &LinBpState::RemoveEdges, &removed},
      {"UpdateEdgeWeights", &LinBpState::UpdateEdgeWeights, &reweighted},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    flaky->FailNextVisit();
    std::string error;
    EXPECT_EQ((tested.*c.mutate)(*c.batch, &error), -1);
    EXPECT_NE(error.find("injected stream failure"), std::string::npos)
        << error;
    testing::ExpectSameGraph(tested.graph(), graph);
    EXPECT_EQ(tested.beliefs().MaxAbsDiff(control.beliefs()), 0.0);
  }

  // A rollback that restored the beliefs but left the rebuilt graph (or
  // vice versa) would desync these replays from the control state. Each
  // batch is valid at its position: add the new edge, reweight it, then
  // remove the original edge.
  const std::vector<Edge> added_reweighted = {
      {0, graph.num_nodes() - 1, 2.5}};
  const Case replay[] = {
      {"AddEdges", &LinBpState::AddEdges, &added},
      {"UpdateEdgeWeights", &LinBpState::UpdateEdgeWeights,
       &added_reweighted},
      {"RemoveEdges", &LinBpState::RemoveEdges, &removed},
  };
  for (const Case& c : replay) {
    SCOPED_TRACE(c.name);
    std::string tested_error;
    std::string control_error;
    const int tested_sweeps = (tested.*c.mutate)(*c.batch, &tested_error);
    EXPECT_GE(tested_sweeps, 0) << tested_error;
    EXPECT_EQ(tested_sweeps, (control.*c.mutate)(*c.batch, &control_error))
        << tested_error << " vs " << control_error;
    testing::ExpectSameGraph(tested.graph(), control.graph());
    EXPECT_EQ(tested.beliefs().MaxAbsDiff(control.beliefs()), 0.0);
  }
}

// A state that only takes belief updates never runs power iteration on
// its own: every backend visit is a sweep until SpectralRadius() asks.
// That call estimates once, later calls and the solves' diagnostics
// answer from the cache, and a belief update keeps it.
TEST(LinBpStateBackendTest, BeliefUpdatesRunNoSpectralEstimateUntilAsked) {
  const Graph graph = TestGraph();
  const DenseMatrix hhat =
      KroneckerExperimentCoupling().ScaledResidual(0.001);
  const DenseMatrix residuals = TestBeliefs(graph, 3, 71);
  const auto owned = std::make_shared<Graph>(graph);
  auto counting = std::make_shared<FlakyBackend>(owned.get());
  LinBpOptions options;
  options.estimate_spectral_radius = true;  // RunLinBp only: ignored here
  LinBpState state(owned, counting, hhat, residuals, options);
  int sweeps = state.cold_start_iterations();
  EXPECT_EQ(counting->visits(), sweeps);
  EXPECT_EQ(state.diagnostics().spectral_radius_estimate, -1.0);
  for (std::int64_t node = 0; node < 3; ++node) {
    const int used = state.UpdateExplicitBeliefs(
        {node}, testing::RandomMatrix(1, 3, 0.2, 73 + node));
    ASSERT_GT(used, 0);
    sweeps += used;
    EXPECT_EQ(counting->visits(), sweeps);
  }

  const double rho = state.SpectralRadius();
  EXPECT_EQ(rho, LinBpOperatorSpectralRadius(graph, hhat,
                                             LinBpVariant::kLinBp));
  const int power_steps = counting->visits() - sweeps;
  EXPECT_GT(power_steps, 1);
  EXPECT_EQ(state.SpectralRadius(), rho);
  const int used =
      state.UpdateExplicitBeliefs({5}, testing::RandomMatrix(1, 3, 0.2, 79));
  ASSERT_GT(used, 0);
  EXPECT_EQ(state.diagnostics().spectral_radius_estimate, rho);
  EXPECT_EQ(state.SpectralRadius(), rho);
  EXPECT_EQ(counting->visits(), sweeps + power_steps + used);
}

// A streamed backend that fails mid-estimate: SpectralRadius() returns
// -1, the beliefs stay as they were, and the cache stays stale, so the
// next call estimates again.
TEST(LinBpStateBackendTest, FailedSpectralEstimateReturnsMinusOne) {
  const Graph graph = TestGraph();
  const DenseMatrix hhat =
      KroneckerExperimentCoupling().ScaledResidual(0.001);
  const DenseMatrix residuals = TestBeliefs(graph, 3, 81);
  auto flaky = std::make_shared<FlakyBackend>(&graph);
  LinBpState state(flaky, hhat, residuals);
  ASSERT_TRUE(state.converged());
  const DenseMatrix before = state.beliefs();

  flaky->FailNextVisit(3);
  EXPECT_EQ(state.SpectralRadius(), -1.0);
  EXPECT_EQ(state.beliefs().data(), before.data());
  EXPECT_TRUE(state.converged());
  EXPECT_TRUE(state.last_error().empty()) << state.last_error();
  EXPECT_EQ(state.SpectralRadius(),
            LinBpOperatorSpectralRadius(graph, hhat, LinBpVariant::kLinBp));
}

}  // namespace
}  // namespace linbp
