// The out-of-core acceptance suite: streamed LinBP over a multi-shard
// scenario must be bit-identical to the in-memory run at every thread
// count, with no more than two shard blocks' CSR bytes resident at once,
// and corruption appearing mid-stream must surface as an error return
// with the solver state intact.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/convergence.h"
#include "src/core/coupling.h"
#include "src/core/fabp.h"
#include "src/core/linbp.h"
#include "src/core/linbp_incremental.h"
#include "src/dataset/registry.h"
#include "src/dataset/shard.h"
#include "src/engine/shard_stream_backend.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace {

using linbp::testing::ReadBytes;
using linbp::testing::WriteBytes;

constexpr char kSpec[] = "sbm:n=1200,k=4,deg=8,mode=homophily,seed=3";
constexpr std::int64_t kShards = 5;
// Two shards of about 10,000 rows, five row groups each: every
// compressed decode of this manifest fans out.
constexpr char kMultiGroupSpec[] =
    "sbm:n=20000,k=3,deg=6,mode=homophily,seed=5";
constexpr std::int64_t kMultiGroupShards = 2;

dataset::Scenario TestScenario() {
  std::string error;
  auto scenario = dataset::MakeScenario(kSpec, &error);
  EXPECT_TRUE(scenario.has_value()) << error;
  return std::move(*scenario);
}

// The test scenario with a weighted graph of the same shape: generated
// graphs are unit-weight, and only a weighted one stores values (so only
// it has f32 shards that differ from f64 ones).
dataset::Scenario WeightedTestScenario() {
  dataset::Scenario scenario = TestScenario();
  scenario.graph = testing::WithEndpointWeights(scenario.graph);
  return scenario;
}

// Shards the test scenario into a fresh temp dir; returns the manifest.
std::string ShardScenario(const dataset::Scenario& scenario,
                          const std::string& name,
                          dataset::ShardCompression compression =
                              dataset::ShardCompression::kF64) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::string error;
  const auto result =
      dataset::ShardSnapshot(scenario, kShards, dir, &error, compression);
  EXPECT_TRUE(result.has_value()) << error;
  EXPECT_EQ(result->num_shards, kShards);
  return result.has_value() ? result->manifest_path : "";
}

engine::ShardStreamBackend OpenBackend(const std::string& manifest,
                                       const exec::ExecContext& ctx =
                                           exec::ExecContext::Serial(),
                                       std::int64_t cache_budget = 0) {
  std::string error;
  auto backend =
      engine::ShardStreamBackend::Open(manifest, &error, ctx, cache_budget);
  EXPECT_TRUE(backend.has_value()) << error;
  return std::move(*backend);
}

TEST(ShardStreamBackendTest, OpenDerivesScenarioInputs) {
  const dataset::Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "stream_open");
  const engine::ShardStreamBackend backend = OpenBackend(manifest);

  EXPECT_EQ(backend.num_nodes(), scenario.graph.num_nodes());
  EXPECT_EQ(backend.num_stored_entries(),
            scenario.graph.num_directed_edges());
  EXPECT_EQ(backend.k(), scenario.k);
  EXPECT_EQ(backend.name(), scenario.name);
  EXPECT_EQ(backend.weighted_degrees(), scenario.graph.weighted_degrees());
  EXPECT_EQ(backend.explicit_nodes(), scenario.explicit_nodes);
  EXPECT_EQ(
      backend.explicit_residuals().MaxAbsDiff(scenario.explicit_residuals),
      0.0);
  EXPECT_EQ(backend.coupling_residual().MaxAbsDiff(
                scenario.coupling_residual),
            0.0);
  ASSERT_TRUE(backend.HasGroundTruth());
  EXPECT_EQ(backend.ground_truth(), scenario.ground_truth);
}

TEST(ShardStreamBackendTest, ProductsMatchInMemoryBitForBit) {
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted ? "weighted" : "unit weights");
    const dataset::Scenario scenario =
        weighted ? WeightedTestScenario() : TestScenario();
    const std::string manifest = ShardScenario(scenario, "stream_products");
    for (const int threads : {1, 4}) {
      const exec::ExecContext ctx = exec::ExecContext::WithThreads(threads);
      const engine::ShardStreamBackend backend = OpenBackend(manifest, ctx);
      const DenseMatrix b =
          testing::RandomMatrix(scenario.graph.num_nodes(), scenario.k, 0.3,
                                77);
      DenseMatrix ab;
      std::string error;
      ASSERT_TRUE(backend.MultiplyDense(b, ctx, &ab, &error)) << error;
      EXPECT_EQ(ab.MaxAbsDiff(scenario.graph.adjacency().MultiplyDense(b)),
                0.0)
          << "threads=" << threads;

      std::vector<double> x(scenario.graph.num_nodes());
      for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.001 * i - 0.7;
      std::vector<double> ax;
      ASSERT_TRUE(backend.MultiplyVector(x, ctx, &ax, &error)) << error;
      EXPECT_EQ(ax, scenario.graph.adjacency().MultiplyVector(x))
          << "threads=" << threads;
      EXPECT_EQ(backend.weighted_degrees(), scenario.graph.weighted_degrees());
    }
  }
}

// The headline acceptance criterion: RunLinBp over a >= 4-shard scenario
// is bit-identical to the in-memory run under LINBP_THREADS=1 and 4,
// while the reader's byte counter proves at most 2 blocks' CSR stayed
// resident.
TEST(ShardStreamBackendTest, StreamedLinBpBitIdenticalAndResidencyBounded) {
  const dataset::Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "stream_linbp");
  const CouplingMatrix coupling = scenario.Coupling();
  const double eps =
      0.5 * ExactEpsilonThreshold(scenario.graph, coupling,
                                  LinBpVariant::kLinBp);
  const DenseMatrix hhat = coupling.ScaledResidual(eps);

  LinBpOptions reference_options;
  const LinBpResult reference =
      RunLinBp(scenario.graph, hhat, scenario.explicit_residuals,
               reference_options);
  ASSERT_TRUE(reference.converged);
  ASSERT_GE(reference.iterations, 3);

  for (const int threads : {1, 4}) {
    const exec::ExecContext ctx = exec::ExecContext::WithThreads(threads);
    const engine::ShardStreamBackend backend = OpenBackend(manifest, ctx);
    LinBpOptions options;
    options.exec = ctx;
    const LinBpResult streamed =
        RunLinBp(backend, hhat, backend.explicit_residuals(), options);
    ASSERT_FALSE(streamed.failed) << streamed.error;
    EXPECT_TRUE(streamed.converged);
    EXPECT_EQ(streamed.iterations, reference.iterations)
        << "threads=" << threads;
    EXPECT_EQ(streamed.beliefs.MaxAbsDiff(reference.beliefs), 0.0)
        << "threads=" << threads;

    // Peak residency: never more than two blocks' CSR bytes at once,
    // and everything released when the solve is done.
    const dataset::ShardStreamReader& reader = backend.reader();
    EXPECT_GT(reader.peak_resident_csr_bytes(), 0);
    EXPECT_LE(reader.peak_resident_csr_bytes(),
              2 * reader.max_block_csr_bytes())
        << "threads=" << threads;
    EXPECT_EQ(reader.resident_csr_bytes(), 0) << "threads=" << threads;
  }
}

TEST(ShardStreamBackendTest, ByteAccountingSumsConsistently) {
  obs::Registry& registry = obs::Registry::Global();
  const dataset::Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "stream_accounting");

  const std::int64_t blocks_before =
      registry.GetCounter("shard_stream_blocks_read_total").Value();
  const std::int64_t bytes_before =
      registry.GetCounter("shard_stream_bytes_read_total").Value();
  const std::int64_t csr_before =
      registry.GetCounter("shard_stream_csr_bytes_total").Value();

  const engine::ShardStreamBackend backend = OpenBackend(manifest);
  const dataset::ShardStreamReader& reader = backend.reader();

  // Open() streams every shard exactly once to derive the solver inputs.
  EXPECT_EQ(reader.blocks_read_total(), kShards);
  std::int64_t expected_csr = 0;
  for (std::int64_t s = 0; s < kShards; ++s) {
    expected_csr += reader.block_csr_bytes(s);
  }
  EXPECT_EQ(reader.csr_bytes_read_total(), expected_csr);
  // The file bytes are the shard files, header and varint-packed payload.
  std::int64_t expected_file = 0;
  for (std::int64_t s = 0; s < kShards; ++s) {
    expected_file += static_cast<std::int64_t>(std::filesystem::file_size(
        std::filesystem::path(manifest).parent_path() /
        dataset::ShardFileName(s)));
  }
  EXPECT_EQ(reader.file_bytes_read_total(), expected_file);
  EXPECT_EQ(reader.checksum_retries_total(), 0);

  // One more full pass adds exactly one more round of every total.
  std::vector<double> x(scenario.graph.num_nodes(), 1.0);
  std::vector<double> y;
  std::string error;
  ASSERT_TRUE(
      backend.MultiplyVector(x, exec::ExecContext::Serial(), &y, &error))
      << error;
  EXPECT_EQ(reader.blocks_read_total(), 2 * kShards);
  EXPECT_EQ(reader.csr_bytes_read_total(), 2 * expected_csr);

  // The global registry advanced by exactly the reader's own totals —
  // the per-reader and process-wide views of the stream sum consistently.
  EXPECT_EQ(
      registry.GetCounter("shard_stream_blocks_read_total").Value() -
          blocks_before,
      reader.blocks_read_total());
  EXPECT_EQ(registry.GetCounter("shard_stream_bytes_read_total").Value() -
                bytes_before,
            reader.file_bytes_read_total());
  EXPECT_EQ(registry.GetCounter("shard_stream_csr_bytes_total").Value() -
                csr_before,
            reader.csr_bytes_read_total());
}

TEST(ShardStreamBackendTest, StreamedFabpMatchesInMemory) {
  const dataset::Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "stream_fabp");
  const engine::ShardStreamBackend backend = OpenBackend(manifest);
  std::vector<double> priors(scenario.graph.num_nodes(), 0.0);
  for (const std::int64_t v : scenario.explicit_nodes) {
    priors[v] = scenario.explicit_residuals.At(v, 0);
  }
  const FabpResult in_memory = RunFabp(scenario.graph, 0.02, priors);
  const FabpResult streamed = RunFabp(backend, 0.02, priors);
  ASSERT_FALSE(streamed.failed) << streamed.error;
  EXPECT_EQ(in_memory.iterations, streamed.iterations);
  EXPECT_EQ(in_memory.beliefs, streamed.beliefs);
}

TEST(ShardStreamBackendTest, SpectralRadiusMatchesInMemory) {
  const dataset::Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "stream_rho");
  const engine::ShardStreamBackend backend = OpenBackend(manifest);
  EXPECT_EQ(AdjacencySpectralRadius(scenario.graph),
            AdjacencySpectralRadius(backend));
  // kLinBpStar: the closed form needs one streamed power iteration; the
  // kLinBp bisection would stream hundreds (too slow under TSan) while
  // exercising the exact same backend code path.
  const CouplingMatrix coupling = scenario.Coupling();
  EXPECT_EQ(ExactEpsilonThreshold(scenario.graph, coupling,
                                  LinBpVariant::kLinBpStar),
            ExactEpsilonThreshold(backend, coupling,
                                  LinBpVariant::kLinBpStar));
}

// Corruption appearing between sweeps: the state solved two sweeps cold;
// the re-solve's first propagation — the third sweep the backend ever
// streams — hits the bad checksum. The update must fail with the state
// rolled back, and succeed again once the bytes are restored.
TEST(ShardStreamBackendTest, ChecksumCorruptionMidStreamKeepsStateIntact) {
  const dataset::Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "stream_corrupt");
  const std::string shard2 =
      std::filesystem::path(manifest).parent_path() /
      dataset::ShardFileName(2);
  const CouplingMatrix coupling = scenario.Coupling();
  const double eps =
      0.5 * ExactEpsilonThreshold(scenario.graph, coupling,
                                  LinBpVariant::kLinBp);

  auto backend = std::make_shared<engine::ShardStreamBackend>(
      OpenBackend(manifest));
  LinBpOptions options;
  options.max_iterations = 2;  // cold start = sweeps 1 and 2
  LinBpState state(backend, coupling.ScaledResidual(eps),
                   backend->explicit_residuals(), options);
  EXPECT_EQ(state.cold_start_iterations(), 2);
  const DenseMatrix before = state.beliefs();

  // Flip one payload byte of shard 2 — every later read fails its
  // checksum.
  const std::vector<char> pristine = ReadBytes(shard2);
  std::vector<char> corrupted = pristine;
  corrupted[64 + 100] ^= 0x20;
  WriteBytes(shard2, corrupted);

  const std::vector<std::int64_t> nodes = {1, 2};
  const DenseMatrix update = testing::RandomMatrix(2, scenario.k, 0.2, 99);
  EXPECT_EQ(state.UpdateExplicitBeliefs(nodes, update), -1);
  EXPECT_NE(state.last_error().find("checksum mismatch"), std::string::npos)
      << state.last_error();
  // State intact: beliefs untouched, no leaked blocks.
  EXPECT_EQ(state.beliefs().MaxAbsDiff(before), 0.0);
  EXPECT_EQ(backend->reader().resident_csr_bytes(), 0);

  // RunLinBp on the corrupted manifest fails before applying any sweep.
  const LinBpResult failed =
      RunLinBp(*backend, coupling.ScaledResidual(eps),
               backend->explicit_residuals(), LinBpOptions{});
  EXPECT_TRUE(failed.failed);
  EXPECT_NE(failed.error.find("checksum mismatch"), std::string::npos);
  EXPECT_EQ(failed.beliefs.MaxAbsDiff(backend->explicit_residuals()), 0.0);

  // Restoring the bytes restores service on the SAME backend handle.
  WriteBytes(shard2, pristine);
  EXPECT_GT(state.UpdateExplicitBeliefs(nodes, update), 0);
  EXPECT_TRUE(state.last_error().empty());
  EXPECT_EQ(backend->reader().resident_csr_bytes(), 0);
}

// Streamed LinBP over delta+varint f64 shards is bit-identical to the
// in-memory run at 1 and 4 threads, with the decoded-block cache on and
// off.
TEST(ShardStreamBackendTest, CompressedStreamBitIdenticalCacheOnAndOff) {
  const dataset::Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(
      scenario, "stream_v2_linbp", dataset::ShardCompression::kF64);
  const CouplingMatrix coupling = scenario.Coupling();
  const double eps =
      0.5 * ExactEpsilonThreshold(scenario.graph, coupling,
                                  LinBpVariant::kLinBp);
  const DenseMatrix hhat = coupling.ScaledResidual(eps);
  const LinBpResult reference =
      RunLinBp(scenario.graph, hhat, scenario.explicit_residuals,
               LinBpOptions{});
  ASSERT_TRUE(reference.converged);

  for (const int threads : {1, 4}) {
    for (const std::int64_t budget : {std::int64_t{0}, std::int64_t{1} << 30}) {
      const exec::ExecContext ctx = exec::ExecContext::WithThreads(threads);
      const engine::ShardStreamBackend backend =
          OpenBackend(manifest, ctx, budget);
      LinBpOptions options;
      options.exec = ctx;
      const LinBpResult streamed =
          RunLinBp(backend, hhat, backend.explicit_residuals(), options);
      ASSERT_FALSE(streamed.failed) << streamed.error;
      EXPECT_EQ(streamed.iterations, reference.iterations)
          << "threads=" << threads << " budget=" << budget;
      EXPECT_EQ(streamed.beliefs.MaxAbsDiff(reference.beliefs), 0.0)
          << "threads=" << threads << " budget=" << budget;
    }
  }
}

// f32-valued shards: the streamed products match the in-memory products
// of the same shards loaded back whole (one narrowing at write time, one
// widening at load — both paths see identical doubles).
TEST(ShardStreamBackendTest, F32ShardsMatchTheirBulkLoadBitForBit) {
  const dataset::Scenario scenario = WeightedTestScenario();
  const std::string manifest = ShardScenario(
      scenario, "stream_v2_f32", dataset::ShardCompression::kF32);
  std::string error;
  const auto widened = dataset::LoadShardedSnapshot(manifest, &error);
  ASSERT_TRUE(widened.has_value()) << error;
  ASSERT_FALSE(widened->graph.adjacency().unit_weights());

  const engine::ShardStreamBackend backend = OpenBackend(manifest);
  EXPECT_TRUE(backend.reader().values_f32());
  EXPECT_EQ(backend.weighted_degrees(), widened->graph.weighted_degrees());

  const exec::ExecContext ctx = exec::ExecContext::Serial();
  const DenseMatrix b =
      testing::RandomMatrix(widened->graph.num_nodes(), widened->k, 0.3, 21);
  DenseMatrix ab;
  ASSERT_TRUE(backend.MultiplyDense(b, ctx, &ab, &error)) << error;
  EXPECT_EQ(ab.MaxAbsDiff(widened->graph.adjacency().MultiplyDense(b)), 0.0);

  const CouplingMatrix coupling = widened->Coupling();
  const double eps =
      0.5 * ExactEpsilonThreshold(widened->graph, coupling,
                                  LinBpVariant::kLinBp);
  const DenseMatrix hhat = coupling.ScaledResidual(eps);
  const LinBpResult in_memory = RunLinBp(
      widened->graph, hhat, widened->explicit_residuals, LinBpOptions{});
  const LinBpResult streamed =
      RunLinBp(backend, hhat, backend.explicit_residuals(), LinBpOptions{});
  ASSERT_FALSE(streamed.failed) << streamed.error;
  EXPECT_EQ(streamed.iterations, in_memory.iterations);
  EXPECT_EQ(streamed.beliefs.MaxAbsDiff(in_memory.beliefs), 0.0);
}

// A budget covering the whole working set: Open's derivation pass reads
// each shard once and caches it; every later sweep is pure cache hits
// with zero additional disk reads.
TEST(ShardStreamBackendTest, CacheCoveringWorkingSetEndsDiskReads) {
  const dataset::Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(
      scenario, "stream_cache_all", dataset::ShardCompression::kF64);
  const std::int64_t big_budget = std::int64_t{1} << 30;
  const engine::ShardStreamBackend backend =
      OpenBackend(manifest, exec::ExecContext::Serial(), big_budget);
  const dataset::ShardStreamReader& reader = backend.reader();
  ASSERT_NE(backend.cache(), nullptr);
  EXPECT_EQ(reader.blocks_read_total(), kShards);
  const std::int64_t bytes_after_open = reader.file_bytes_read_total();

  std::vector<double> x(backend.num_nodes(), 1.0);
  std::vector<double> y1, y2;
  std::string error;
  ASSERT_TRUE(
      backend.MultiplyVector(x, exec::ExecContext::Serial(), &y1, &error))
      << error;
  ASSERT_TRUE(
      backend.MultiplyVector(x, exec::ExecContext::Serial(), &y2, &error))
      << error;
  EXPECT_EQ(y1, y2);
  // Two full passes, zero new reads: the cache served every block.
  EXPECT_EQ(reader.blocks_read_total(), kShards);
  EXPECT_EQ(reader.file_bytes_read_total(), bytes_after_open);
  EXPECT_EQ(backend.cache()->hits_total(), 2 * kShards);
  EXPECT_EQ(backend.cache()->evictions_total(), 0);
  EXPECT_LE(backend.cache()->cached_bytes(),
            backend.cache()->budget_bytes());
}

// A budget below the working set: eviction keeps residency bounded by
// budget + the two in-flight pipeline blocks, and the stream still
// produces bit-identical results.
TEST(ShardStreamBackendTest, CacheBudgetBoundsResidency) {
  const dataset::Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(
      scenario, "stream_cache_tight", dataset::ShardCompression::kF64);
  const engine::ShardStreamBackend uncached = OpenBackend(manifest);
  const std::int64_t budget = uncached.reader().max_block_csr_bytes();

  const engine::ShardStreamBackend backend =
      OpenBackend(manifest, exec::ExecContext::Serial(), budget);
  const dataset::ShardStreamReader& reader = backend.reader();
  ASSERT_NE(backend.cache(), nullptr);

  std::vector<double> x(backend.num_nodes(), 1.0);
  std::vector<double> y_cached, y_uncached;
  std::string error;
  ASSERT_TRUE(backend.MultiplyVector(x, exec::ExecContext::Serial(),
                                     &y_cached, &error))
      << error;
  ASSERT_TRUE(uncached.MultiplyVector(x, exec::ExecContext::Serial(),
                                      &y_uncached, &error))
      << error;
  EXPECT_EQ(y_cached, y_uncached);
  // The budget can't hold all kShards blocks, so eviction must have run
  // and later passes still hit the disk.
  EXPECT_GE(backend.cache()->evictions_total(), 1);
  EXPECT_GT(reader.blocks_read_total(), kShards);
  EXPECT_LE(backend.cache()->cached_bytes(), budget);
  EXPECT_LE(reader.peak_resident_csr_bytes(),
            budget + 2 * reader.max_block_csr_bytes());
}

// The compressed multi-group manifest, and the in-memory LinBP solve its
// streamed solves must reproduce to the bit.
struct MultiGroupCase {
  dataset::Scenario scenario;
  std::string manifest;
  DenseMatrix hhat;
  LinBpResult reference;
};

MultiGroupCase MakeMultiGroupCase(const std::string& name) {
  MultiGroupCase c;
  std::string error;
  auto scenario = dataset::MakeScenario(kMultiGroupSpec, &error);
  EXPECT_TRUE(scenario.has_value()) << error;
  c.scenario = std::move(*scenario);
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  const auto written =
      dataset::ShardSnapshot(c.scenario, kMultiGroupShards, dir, &error,
                             dataset::ShardCompression::kF64);
  EXPECT_TRUE(written.has_value()) << error;
  c.manifest = written->manifest_path;
  // Fixed, well inside convergence for this degree: the exact-threshold
  // bisection would add hundreds of solves under the sanitizers.
  c.hhat = c.scenario.Coupling().ScaledResidual(0.02);
  c.reference = RunLinBp(c.scenario.graph, c.hhat,
                         c.scenario.explicit_residuals, LinBpOptions{});
  EXPECT_TRUE(c.reference.converged);
  EXPECT_GE(c.reference.iterations, 5);
  return c;
}

bool SameBeliefs(const DenseMatrix& a, const DenseMatrix& b) {
  return a.data().size() == b.data().size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

// Row groups decode in parallel on the solve's own lanes: streamed LinBP
// beliefs are memcmp-equal to in-memory at 1, 2, 4 and 8 threads, and an
// uncached solve still holds at most two blocks' CSR bytes.
TEST(ShardStreamBackendTest, MultiGroupStreamIsBitIdenticalAtEveryThreadCount) {
  const MultiGroupCase c = MakeMultiGroupCase("stream_multi_group");
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    const exec::ExecContext ctx = exec::ExecContext::WithThreads(threads);
    const engine::ShardStreamBackend backend = OpenBackend(c.manifest, ctx);
    LinBpOptions options;
    options.exec = ctx;
    const LinBpResult streamed =
        RunLinBp(backend, c.hhat, backend.explicit_residuals(), options);
    ASSERT_FALSE(streamed.failed) << streamed.error;
    EXPECT_EQ(streamed.iterations, c.reference.iterations);
    EXPECT_TRUE(SameBeliefs(streamed.beliefs, c.reference.beliefs));
    const dataset::ShardStreamReader& reader = backend.reader();
    EXPECT_GT(reader.peak_resident_csr_bytes(), 0);
    EXPECT_LE(reader.peak_resident_csr_bytes(),
              2 * reader.max_block_csr_bytes());
    EXPECT_EQ(reader.resident_csr_bytes(), 0);
  }
}

// A streamed solve run as a task of the pool it decodes on: the nested
// fan-outs run inline on the task's thread, and the prefetch thread
// never touches the pool, so both solves finish — a decode started from
// the prefetch thread would wait on the very batch it runs in.
TEST(ShardStreamBackendTest, StreamedSweepInsideAPoolTaskFinishes) {
  const MultiGroupCase c = MakeMultiGroupCase("stream_nested");
  const exec::ExecContext ctx = exec::ExecContext::WithThreads(4);
  const engine::ShardStreamBackend backend = OpenBackend(c.manifest, ctx);
  LinBpResult results[2];
  ctx.RunBlocks(2, [&](std::int64_t b) {
    LinBpOptions options;
    options.exec = ctx;
    results[b] =
        RunLinBp(backend, c.hhat, backend.explicit_residuals(), options);
  });
  for (const LinBpResult& result : results) {
    ASSERT_FALSE(result.failed) << result.error;
    EXPECT_EQ(result.iterations, c.reference.iterations);
    EXPECT_TRUE(SameBeliefs(result.beliefs, c.reference.beliefs));
  }
  EXPECT_EQ(backend.reader().resident_csr_bytes(), 0);
}

// A traced stream pass says which form it ran and what it read: every
// `shard_stream_pass` span carries `unit_weights`, every `stream_read`
// span its shard's `bytes`.
TEST(ShardStreamBackendTest, TracedPassesNameTheirFormAndBytes) {
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted ? "weighted" : "unit weights");
    const dataset::Scenario scenario =
        weighted ? WeightedTestScenario() : TestScenario();
    const std::string manifest = ShardScenario(scenario, "stream_traced");
    obs::Tracer tracer;
    obs::SetActiveTracer(&tracer);
    const engine::ShardStreamBackend backend = OpenBackend(manifest);
    obs::SetActiveTracer(nullptr);
    const std::string json = tracer.Json();
    EXPECT_NE(json.find(std::string("\"unit_weights\":") +
                        (weighted ? "0" : "1")),
              std::string::npos)
        << json;
    const std::int64_t shard0 = static_cast<std::int64_t>(
        std::filesystem::file_size(std::filesystem::path(manifest)
                                       .parent_path() /
                                   dataset::ShardFileName(0)));
    EXPECT_NE(json.find("\"bytes\":" + std::to_string(shard0)),
              std::string::npos)
        << json;
  }
}

TEST(ShardStreamBackendTest, OpenRejectsCorruptManifestAndShards) {
  const dataset::Scenario scenario = TestScenario();
  const std::string manifest = ShardScenario(scenario, "stream_bad_open");
  std::string error;
  EXPECT_FALSE(engine::ShardStreamBackend::Open("/nonexistent/manifest",
                                                &error)
                   .has_value());

  // Corrupt a shard: Open's derivation pass must reject it.
  const std::string shard0 =
      std::filesystem::path(manifest).parent_path() /
      dataset::ShardFileName(0);
  std::vector<char> bytes = ReadBytes(shard0);
  bytes[64 + 8] ^= 0x01;
  WriteBytes(shard0, bytes);
  EXPECT_FALSE(
      engine::ShardStreamBackend::Open(manifest, &error).has_value());
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
}

}  // namespace
}  // namespace linbp
