// Equivalence of the parallel CSR kernels with the serial reference.
//
// SpMM and SpMV assign whole output rows to one block, so a parallel run
// must be BIT-IDENTICAL to the serial kernel for every thread count (the
// static partition changes which thread computes a row, never the
// floating-point evaluation order inside it). TransposeMultiplyVector
// reduces per-block partials instead and is checked to tight tolerance
// plus run-to-run determinism. The solver-level checks extend the
// guarantee to RunLinBp / RunSbp outputs, and the fused-sweep matrix at
// the end pins RunLinBp to the unfused primitives it replaced.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/convergence.h"
#include "src/core/fabp.h"
#include "src/core/linbp.h"
#include "src/core/sbp.h"
#include "src/dataset/registry.h"
#include "src/dataset/shard.h"
#include "src/dataset/snapshot.h"
#include "src/engine/in_memory_backend.h"
#include "src/engine/shard_stream_backend.h"
#include "src/exec/exec_context.h"
#include "src/graph/beliefs.h"
#include "src/graph/generators.h"
#include "src/la/dense_matrix_f32.h"
#include "src/la/kron_ops.h"
#include "src/la/sparse_matrix.h"
#include "tests/testing/test_util.h"

namespace linbp {
namespace {

using exec::ExecContext;

const int kThreadCounts[] = {1, 2, 4, 8};

// Kronecker powers 5 and 7 (n = 243 / 2187, nnz = 1024 / 16384): power 5
// exercises the small-input serial fallback, power 7 the parallel blocks.
const int kPowers[] = {5, 7};

void ExpectBitEqual(const std::vector<double>& actual,
                    const std::vector<double>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "at index " << i;
  }
}

TEST(KernelEquivalenceTest, SpMMIsBitExactAcrossThreadCounts) {
  for (const int power : kPowers) {
    const Graph graph = KroneckerPowerGraph(power);
    const DenseMatrix b = testing::RandomMatrix(graph.num_nodes(), 3,
                                                /*scale=*/1.0, /*seed=*/7);
    const DenseMatrix serial =
        graph.adjacency().MultiplyDense(b, ExecContext::Serial());
    for (const int threads : kThreadCounts) {
      const DenseMatrix parallel =
          graph.adjacency().MultiplyDense(b, ExecContext::WithThreads(threads));
      SCOPED_TRACE(::testing::Message()
                   << "power " << power << ", threads " << threads);
      ExpectBitEqual(parallel.data(), serial.data());
    }
  }
}

TEST(KernelEquivalenceTest, SpMMIsBitExactForWideDenseOperands) {
  // k = 19 spans two cache tiles plus a remainder column tile.
  const Graph graph = KroneckerPowerGraph(5);
  const DenseMatrix b = testing::RandomMatrix(graph.num_nodes(), 19,
                                              /*scale=*/1.0, /*seed=*/11);
  const DenseMatrix serial =
      graph.adjacency().MultiplyDense(b, ExecContext::Serial());
  ExpectBitEqual(
      graph.adjacency().MultiplyDense(b, ExecContext::WithThreads(8)).data(),
      serial.data());
  // The tiled kernel also matches the dense reference numerically.
  testing::ExpectMatrixNear(serial, graph.adjacency().ToDense().Multiply(b),
                            1e-12);
}

TEST(KernelEquivalenceTest, SpMVIsBitExactAcrossThreadCounts) {
  for (const int power : kPowers) {
    const Graph graph = KroneckerPowerGraph(power);
    std::vector<double> x(graph.num_nodes());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = 0.25 * static_cast<double>(i % 17) - 1.0;
    }
    const std::vector<double> serial =
        graph.adjacency().MultiplyVector(x, ExecContext::Serial());
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message()
                   << "power " << power << ", threads " << threads);
      ExpectBitEqual(
          graph.adjacency().MultiplyVector(x, ExecContext::WithThreads(threads)),
          serial);
    }
  }
}

TEST(KernelEquivalenceTest, SpMVSkipsStoredZeroWeights) {
  // Stored zeros must not contribute — even against non-finite vector
  // entries, which 0 * inf would turn into NaN.
  const SparseMatrix m = SparseMatrix::FromTriplets(
      2, 3, {{0, 0, 0.0}, {0, 1, 2.0}, {1, 2, 0.0}});
  const std::vector<double> x = {
      std::numeric_limits<double>::infinity(), 3.0,
      std::numeric_limits<double>::quiet_NaN()};
  const std::vector<double> y = m.MultiplyVector(x, ExecContext::Serial());
  EXPECT_EQ(y[0], 6.0);
  EXPECT_EQ(y[1], 0.0);
  const std::vector<double> xt = {
      std::numeric_limits<double>::infinity(), 0.0};
  const std::vector<double> yt =
      m.TransposeMultiplyVector(xt, ExecContext::Serial());
  EXPECT_EQ(yt[0], 0.0);
  EXPECT_EQ(yt[1], std::numeric_limits<double>::infinity());
  EXPECT_EQ(yt[2], 0.0);
}

TEST(KernelEquivalenceTest, TransposeSpMVMatchesSerialAndIsDeterministic) {
  for (const int power : kPowers) {
    const Graph graph = KroneckerPowerGraph(power);
    std::vector<double> x(graph.num_nodes());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = 0.5 * static_cast<double>(i % 13) - 2.0;
    }
    const std::vector<double> serial =
        graph.adjacency().TransposeMultiplyVector(x, ExecContext::Serial());
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message()
                   << "power " << power << ", threads " << threads);
      const ExecContext ctx = ExecContext::WithThreads(threads);
      const std::vector<double> first =
          graph.adjacency().TransposeMultiplyVector(x, ctx);
      // Block-ordered reduction: equal to serial up to rounding ...
      testing::ExpectVectorNear(first, serial, 1e-12);
      // ... and exactly reproducible for a fixed context.
      ExpectBitEqual(graph.adjacency().TransposeMultiplyVector(x, ctx),
                     first);
    }
  }
}

void ExpectBitEqualF32(const std::vector<float>& actual,
                       const std::vector<float>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "at index " << i;
  }
}

TEST(KernelEquivalenceTest, F32SpMMIsBitExactAcrossThreadCounts) {
  for (const int power : kPowers) {
    const Graph graph = KroneckerPowerGraph(power);
    const DenseMatrixF32 b = DenseMatrixF32::FromF64(testing::RandomMatrix(
        graph.num_nodes(), 3, /*scale=*/1.0, /*seed=*/7));
    const DenseMatrixF32 serial =
        graph.adjacency().MultiplyDenseF32(b, ExecContext::Serial());
    for (const int threads : kThreadCounts) {
      const DenseMatrixF32 parallel = graph.adjacency().MultiplyDenseF32(
          b, ExecContext::WithThreads(threads));
      SCOPED_TRACE(::testing::Message()
                   << "power " << power << ", threads " << threads);
      ExpectBitEqualF32(parallel.data(), serial.data());
    }
  }
}

TEST(KernelEquivalenceTest, F32SpMVIsBitExactAcrossThreadCounts) {
  for (const int power : kPowers) {
    const Graph graph = KroneckerPowerGraph(power);
    std::vector<float> x(graph.num_nodes());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = 0.25f * static_cast<float>(i % 17) - 1.0f;
    }
    const std::vector<float> serial =
        graph.adjacency().MultiplyVectorF32(x, ExecContext::Serial());
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message()
                   << "power " << power << ", threads " << threads);
      ExpectBitEqualF32(graph.adjacency().MultiplyVectorF32(
                            x, ExecContext::WithThreads(threads)),
                        serial);
    }
  }
}

TEST(KernelEquivalenceTest, F32SpMVSkipsStoredZeroWeights) {
  // The stored-zero skip lives in the one shared SpmvRowsT implementation,
  // so float inherits the same non-finite masking as double.
  const SparseMatrix m = SparseMatrix::FromTriplets(
      2, 3, {{0, 0, 0.0}, {0, 1, 2.0}, {1, 2, 0.0}});
  const std::vector<float> x = {std::numeric_limits<float>::infinity(), 3.0f,
                                std::numeric_limits<float>::quiet_NaN()};
  const std::vector<float> y = m.MultiplyVectorF32(x, ExecContext::Serial());
  EXPECT_EQ(y[0], 6.0f);
  EXPECT_EQ(y[1], 0.0f);
}

// The public entry points must be thin row-range dispatches over the ONE
// templated kernel per scalar type: calling SpmmRowsT / SpmvRowsT
// directly over the full row range must reproduce MultiplyDense* /
// MultiplyVector* to the byte, in both precisions. This is the guard
// against the row-range and whole-matrix paths drifting apart.
TEST(KernelEquivalenceTest, EntryPointsMatchRawRowRangeKernelsByMemcmp) {
  const Graph graph = KroneckerPowerGraph(7);
  const SparseMatrix& m = graph.adjacency();
  const std::int64_t n = m.rows();
  const std::int64_t k = 3;
  const DenseMatrix b64 =
      testing::RandomMatrix(n, k, /*scale=*/1.0, /*seed=*/13);
  const DenseMatrixF32 b32 = DenseMatrixF32::FromF64(b64);
  std::vector<float> x32(n);
  std::vector<double> x64(n);
  for (std::int64_t i = 0; i < n; ++i) {
    x64[i] = 0.5 * static_cast<double>(i % 11) - 2.0;
    x32[i] = static_cast<float>(x64[i]);
  }

  const DenseMatrix spmm64 = m.MultiplyDense(b64, ExecContext::Serial());
  std::vector<double> raw64(n * k, 0.0);
  SpmmRowsT<double>(m.row_ptr().data(), m.col_idx().data(),
                    m.values().data(), 0, n, b64.data().data(), k,
                    raw64.data());
  ASSERT_EQ(spmm64.data().size(), raw64.size());
  EXPECT_EQ(std::memcmp(spmm64.data().data(), raw64.data(),
                        raw64.size() * sizeof(double)),
            0);

  const DenseMatrixF32 spmm32 = m.MultiplyDenseF32(b32, ExecContext::Serial());
  const auto values32 = m.values_f32();
  std::vector<float> raw32(n * k, 0.0f);
  SpmmRowsT<float>(m.row_ptr().data(), m.col_idx().data(), values32->data(),
                   0, n, b32.data().data(), k, raw32.data());
  ASSERT_EQ(spmm32.data().size(), raw32.size());
  EXPECT_EQ(std::memcmp(spmm32.data().data(), raw32.data(),
                        raw32.size() * sizeof(float)),
            0);

  const std::vector<double> spmv64 =
      m.MultiplyVector(x64, ExecContext::Serial());
  std::vector<double> rawv64(n, 0.0);
  SpmvRowsT<double>(m.row_ptr().data(), m.col_idx().data(),
                    m.values().data(), 0, n, x64.data(), rawv64.data());
  EXPECT_EQ(std::memcmp(spmv64.data(), rawv64.data(), n * sizeof(double)),
            0);

  const std::vector<float> spmv32 =
      m.MultiplyVectorF32(x32, ExecContext::Serial());
  std::vector<float> rawv32(n, 0.0f);
  SpmvRowsT<float>(m.row_ptr().data(), m.col_idx().data(), values32->data(),
                   0, n, x32.data(), rawv32.data());
  EXPECT_EQ(std::memcmp(spmv32.data(), rawv32.data(), n * sizeof(float)), 0);
}

TEST(KernelEquivalenceTest, F32RunLinBpIsBitExactAcrossThreadCounts) {
  // The f32 sweep loop keeps per-row ownership and fp64 chunk-ordered
  // norms, so — like the f64 path — its result must not depend on the
  // thread count at all.
  const Graph graph = KroneckerPowerGraph(5);
  const DenseMatrix hhat =
      testing::RandomResidualCoupling(3, /*scale=*/0.002, /*seed=*/3);
  const SeededBeliefs seeded =
      SeedPaperBeliefs(graph.num_nodes(), 3, graph.num_nodes() / 20 + 1, 21);
  LinBpOptions options;
  options.precision = Precision::kF32;
  options.exec = ExecContext::Serial();
  const LinBpResult serial = RunLinBp(graph, hhat, seeded.residuals, options);
  ASSERT_TRUE(serial.converged);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    options.exec = ExecContext::WithThreads(threads);
    const LinBpResult parallel =
        RunLinBp(graph, hhat, seeded.residuals, options);
    EXPECT_EQ(parallel.iterations, serial.iterations);
    EXPECT_EQ(parallel.last_delta, serial.last_delta);
    ExpectBitEqual(parallel.beliefs.data(), serial.beliefs.data());
  }
}

TEST(KernelEquivalenceTest, RunLinBpIsBitExactAcrossThreadCounts) {
  const Graph graph = KroneckerPowerGraph(5);
  const DenseMatrix hhat =
      testing::RandomResidualCoupling(3, /*scale=*/0.002, /*seed=*/3);
  const SeededBeliefs seeded =
      SeedPaperBeliefs(graph.num_nodes(), 3, graph.num_nodes() / 20 + 1, 21);
  LinBpOptions options;
  options.exec = ExecContext::Serial();
  const LinBpResult serial = RunLinBp(graph, hhat, seeded.residuals, options);
  ASSERT_TRUE(serial.converged);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    options.exec = ExecContext::WithThreads(threads);
    const LinBpResult parallel =
        RunLinBp(graph, hhat, seeded.residuals, options);
    EXPECT_EQ(parallel.iterations, serial.iterations);
    EXPECT_EQ(parallel.last_delta, serial.last_delta);
    ExpectBitEqual(parallel.beliefs.data(), serial.beliefs.data());
  }
}

TEST(KernelEquivalenceTest, RunSbpIsBitExactAcrossThreadCounts) {
  const Graph graph = KroneckerPowerGraph(7);
  const DenseMatrix hhat =
      testing::RandomResidualCoupling(3, /*scale=*/0.01, /*seed=*/5);
  const SeededBeliefs seeded =
      SeedPaperBeliefs(graph.num_nodes(), 3, graph.num_nodes() / 50 + 1, 22);
  const SbpResult serial = RunSbp(graph, hhat, seeded.residuals,
                                  seeded.explicit_nodes, ExecContext::Serial());
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    const SbpResult parallel =
        RunSbp(graph, hhat, seeded.residuals, seeded.explicit_nodes,
               ExecContext::WithThreads(threads));
    EXPECT_EQ(parallel.geodesic, serial.geodesic);
    ExpectBitEqual(parallel.beliefs.data(), serial.beliefs.data());
  }
}

// ---------------------------------------------------------------------------
// The fused sweep against the unfused pipeline it replaced.

// What a LinBP run leaves behind that must match to the bit.
struct SweepTrace {
  DenseMatrix beliefs;
  int iterations = 0;
  std::vector<double> deltas;  // per-sweep max |change|
};

// RunSweepLoop's stop rule with the divergence early-abort off.
bool StopsAfter(const LinBpSweepStats& stats, const LinBpOptions& options) {
  return !std::isfinite(stats.delta) ||
         stats.magnitude > options.divergence_threshold ||
         stats.delta <= options.tolerance;
}

// The f64 Jacobi loop built from the kept unfused primitives: SpMM, the
// two coupling products, the echo subtraction, the apply step. It starts
// from `start` (LinBP starts from E, FaBP from zero).
SweepTrace UnfusedLinBp(const Graph& graph, const DenseMatrix& modulation,
                        const DenseMatrix* echo_modulation,
                        const DenseMatrix& explicit_residuals,
                        const DenseMatrix& start,
                        const LinBpOptions& options) {
  const ExecContext serial = ExecContext::Serial();
  SweepTrace trace;
  trace.beliefs = start;
  for (int it = 1; it <= options.max_iterations; ++it) {
    DenseMatrix next = graph.adjacency()
                           .MultiplyDense(trace.beliefs, serial)
                           .Multiply(modulation);
    if (echo_modulation != nullptr) {
      SubtractDegreeScaledEcho(graph.weighted_degrees(),
                               trace.beliefs.Multiply(*echo_modulation),
                               serial, &next);
    }
    const LinBpSweepStats stats =
        ApplyLinBpSweep(serial, explicit_residuals, next, &trace.beliefs);
    trace.iterations = it;
    trace.deltas.push_back(stats.delta);
    if (StopsAfter(stats, options)) break;
  }
  return trace;
}

// The unfused f32 pipeline the fused kernel must reproduce: f32 SpMM,
// then (f32 x fp64 coupling) products accumulated in fp64 with one
// rounding per element, the echo subtraction in fp64 rounded once, and
// the apply in float with fp64 statistics.
DenseMatrixF32 MultiplyWide(const DenseMatrixF32& m,
                            const DenseMatrix& other) {
  DenseMatrixF32 out(m.rows(), other.cols());
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    for (std::int64_t c = 0; c < other.cols(); ++c) {
      double acc = 0.0;
      for (std::int64_t i = 0; i < m.cols(); ++i) {
        acc += static_cast<double>(m.At(r, i)) * other.At(i, c);
      }
      out.At(r, c) = static_cast<float>(acc);
    }
  }
  return out;
}

SweepTrace UnfusedLinBpF32(const Graph& graph, const DenseMatrix& modulation,
                           const DenseMatrix* echo_modulation,
                           const DenseMatrix& explicit_residuals,
                           const DenseMatrix& start,
                           const LinBpOptions& options) {
  const ExecContext serial = ExecContext::Serial();
  const std::vector<double>& degrees = graph.weighted_degrees();
  const DenseMatrixF32 e = DenseMatrixF32::FromF64(explicit_residuals);
  DenseMatrixF32 b = DenseMatrixF32::FromF64(start);
  SweepTrace trace;
  for (int it = 1; it <= options.max_iterations; ++it) {
    DenseMatrixF32 next = MultiplyWide(
        graph.adjacency().MultiplyDenseF32(b, serial), modulation);
    if (echo_modulation != nullptr) {
      const DenseMatrixF32 echo = MultiplyWide(b, *echo_modulation);
      for (std::int64_t s = 0; s < next.rows(); ++s) {
        for (std::int64_t c = 0; c < next.cols(); ++c) {
          next.At(s, c) = static_cast<float>(
              static_cast<double>(next.At(s, c)) -
              degrees[s] * static_cast<double>(echo.At(s, c)));
        }
      }
    }
    LinBpSweepStats stats;
    for (std::int64_t s = 0; s < b.rows(); ++s) {
      for (std::int64_t c = 0; c < b.cols(); ++c) {
        const float value = e.At(s, c) + next.At(s, c);
        const double change =
            static_cast<double>(value) - static_cast<double>(b.At(s, c));
        stats.delta = std::max(stats.delta, std::abs(change));
        stats.magnitude =
            std::max(stats.magnitude, std::abs(static_cast<double>(value)));
        b.At(s, c) = value;
      }
    }
    trace.iterations = it;
    trace.deltas.push_back(stats.delta);
    if (StopsAfter(stats, options)) break;
  }
  trace.beliefs = b.ToF64();
  return trace;
}

SweepTrace FusedLinBp(const engine::PropagationBackend& backend,
                      const DenseMatrix& hhat,
                      const DenseMatrix& explicit_residuals,
                      LinBpOptions options) {
  SweepTrace trace;
  options.sweep_observer = [&trace](const SweepTelemetry& t) {
    trace.deltas.push_back(t.delta);
  };
  const LinBpResult result =
      RunLinBp(backend, hhat, explicit_residuals, options);
  EXPECT_FALSE(result.failed) << result.error;
  trace.beliefs = result.beliefs;
  trace.iterations = result.iterations;
  return trace;
}

// RunFabp with the loop settings of `options`, which FabpOptions mirrors.
SweepTrace FusedFabp(const engine::PropagationBackend& backend, double h,
                     const std::vector<double>& priors,
                     const LinBpOptions& options) {
  SweepTrace trace;
  FabpOptions fabp;
  fabp.max_iterations = options.max_iterations;
  fabp.tolerance = options.tolerance;
  fabp.exec = options.exec;
  fabp.precision = options.precision;
  fabp.observer = [&trace](const SweepTelemetry& t) {
    trace.deltas.push_back(t.delta);
  };
  const FabpResult result = RunFabp(backend, h, priors, fabp);
  EXPECT_FALSE(result.failed) << result.error;
  trace.beliefs = DenseMatrix::FromVectorized(
      result.beliefs, static_cast<std::int64_t>(result.beliefs.size()), 1);
  trace.iterations = result.iterations;
  return trace;
}

void ExpectSameTrace(const SweepTrace& fused, const SweepTrace& reference) {
  EXPECT_EQ(fused.iterations, reference.iterations);
  EXPECT_EQ(fused.deltas, reference.deltas);
  ASSERT_EQ(fused.beliefs.data().size(), reference.beliefs.data().size());
  EXPECT_EQ(std::memcmp(fused.beliefs.data().data(),
                        reference.beliefs.data().data(),
                        fused.beliefs.data().size() * sizeof(double)),
            0);
}

// The stream configurations of the fused-sweep matrix. An inline stream
// reads a `.lbps` written by SaveSnapshot (one f64 shard) instead of a
// shard directory.
struct Stream {
  const char* name;
  dataset::ShardCompression compression;
  std::int64_t cache_budget;
  bool inline_file = false;
};
const std::vector<Stream> kStreams = {
    {"f64", dataset::ShardCompression::kF64, 0},
    {"f64 cached", dataset::ShardCompression::kF64, std::int64_t{1} << 30},
    {"f32", dataset::ShardCompression::kF32, 0},
    {"f32 cached", dataset::ShardCompression::kF32, std::int64_t{1} << 30},
};

// Opens one backend per configuration in `streams` over `scenario` cut
// into `shards` shards. f32 shards hold narrowed values, so *narrowed
// receives the bulk load of those files: the reference of the streams
// that read them.
void OpenStreams(const dataset::Scenario& scenario, const std::string& tag,
                 const std::vector<Stream>& streams, std::int64_t shards,
                 std::vector<engine::ShardStreamBackend>* streamed,
                 std::optional<Graph>* narrowed) {
  std::string error;
  for (const Stream& stream : streams) {
    const std::string path = ::testing::TempDir() + "/fused_" + tag + "_" +
                             std::to_string(streamed->size());
    std::filesystem::remove_all(path);
    std::string manifest = path;
    if (stream.inline_file) {
      ASSERT_TRUE(dataset::SaveSnapshot(scenario, path, &error)) << error;
    } else {
      const auto written = dataset::ShardSnapshot(scenario, shards, path,
                                                  &error, stream.compression);
      ASSERT_TRUE(written.has_value()) << error;
      manifest = written->manifest_path;
    }
    auto backend = engine::ShardStreamBackend::Open(
        manifest, &error, ExecContext::Serial(), stream.cache_budget);
    ASSERT_TRUE(backend.has_value()) << error;
    streamed->push_back(std::move(*backend));
    if (stream.compression == dataset::ShardCompression::kF32 &&
        !narrowed->has_value()) {
      auto loaded = dataset::LoadShardedSnapshot(manifest, &error);
      ASSERT_TRUE(loaded.has_value()) << error;
      *narrowed = std::move(loaded->graph);
    }
  }
}

// Runs `fused` in memory and on every stream (opened from `streams`) at
// every context, and expects each run to reproduce `expected`
// (`expected_narrowed` on the streams that read f32-valued shards).
void ExpectFusedEverywhere(
    const std::function<SweepTrace(const engine::PropagationBackend&,
                                   const LinBpOptions&)>& fused,
    const engine::PropagationBackend& in_memory,
    const std::vector<Stream>& streams,
    const std::vector<engine::ShardStreamBackend>& streamed,
    const std::vector<ExecContext>& contexts, LinBpOptions options,
    const SweepTrace& expected, const SweepTrace& expected_narrowed) {
  for (std::size_t t = 0; t < contexts.size(); ++t) {
    options.exec = contexts[t];
    SCOPED_TRACE(::testing::Message() << "threads " << kThreadCounts[t]);
    {
      SCOPED_TRACE("in memory");
      ExpectSameTrace(fused(in_memory, options), expected);
    }
    for (std::size_t s = 0; s < streamed.size(); ++s) {
      SCOPED_TRACE(streams[s].name);
      const bool f32_values =
          streams[s].compression == dataset::ShardCompression::kF32;
      ExpectSameTrace(fused(streamed[s], options),
                      f32_values ? expected_narrowed : expected);
    }
  }
}

// Every k the kernel dispatches on (compile-time 1..8, runtime 9; k = 1
// is FaBP), every variant, both precisions, threads {1, 2, 4, 8}, in
// memory and streamed from f64 and f32 shards with the block cache off
// and on: beliefs, sweep count and every sweep's delta equal the unfused
// loop's.
TEST(KernelEquivalenceTest, FusedSweepMatchesUnfusedPrimitivesByMemcmp) {
  std::vector<ExecContext> contexts;
  for (const int threads : kThreadCounts) {
    contexts.push_back(ExecContext::WithThreads(threads));
  }
  const LinBpVariant kVariants[] = {LinBpVariant::kLinBp,
                                    LinBpVariant::kLinBpStar,
                                    LinBpVariant::kLinBpExact};

  for (const std::int64_t k : {2, 3, 4, 8, 9}) {
    std::string error;
    const auto scenario = dataset::MakeScenario(
        "sbm:n=240,k=" + std::to_string(k) +
            ",deg=6,labeled=0.1,seed=" + std::to_string(k),
        &error);
    ASSERT_TRUE(scenario.has_value()) << error;
    const CouplingMatrix coupling = scenario->Coupling();
    const DenseMatrix hhat = coupling.ScaledResidual(
        0.5 * SufficientEpsilonBound(scenario->graph, coupling,
                                     LinBpVariant::kLinBp));
    const DenseMatrix& e = scenario->explicit_residuals;
    std::vector<engine::ShardStreamBackend> streamed;
    std::optional<Graph> narrowed;
    ASSERT_NO_FATAL_FAILURE(OpenStreams(*scenario, "k" + std::to_string(k),
                                        kStreams, 3, &streamed, &narrowed));
    const engine::InMemoryBackend in_memory(&scenario->graph);

    for (const LinBpVariant variant : kVariants) {
      const DenseMatrix modulation = variant == LinBpVariant::kLinBpExact
                                         ? ExactModulation(hhat)
                                         : hhat;
      const DenseMatrix echo = hhat.Multiply(modulation);
      const DenseMatrix* echo_modulation =
          variant == LinBpVariant::kLinBpStar ? nullptr : &echo;
      for (const Precision precision : {Precision::kF64, Precision::kF32}) {
        SCOPED_TRACE(::testing::Message()
                     << "k " << k << ", variant " << static_cast<int>(variant)
                     << ", " << PrecisionName(precision));
        LinBpOptions options;
        options.variant = variant;
        options.precision = precision;
        options.tolerance = precision == Precision::kF32 ? 1e-6 : 1e-10;
        options.divergence_patience = 0;
        const auto reference = [&](const Graph& graph) {
          return precision == Precision::kF32
                     ? UnfusedLinBpF32(graph, modulation, echo_modulation, e,
                                       e, options)
                     : UnfusedLinBp(graph, modulation, echo_modulation, e, e,
                                    options);
        };
        const SweepTrace expected = reference(scenario->graph);
        ASSERT_GE(expected.iterations, 3);
        ASSERT_LT(expected.iterations, options.max_iterations);
        ExpectFusedEverywhere(
            [&](const engine::PropagationBackend& backend,
                const LinBpOptions& run) {
              return FusedLinBp(backend, hhat, e, run);
            },
            in_memory, kStreams, streamed, contexts, options, expected,
            reference(*narrowed));
      }
    }
  }

  // k = 1 is FaBP: the sweep over n x 1 beliefs with modulation [c1] and
  // echo modulation [c2], started from zero beliefs.
  std::string error;
  const auto scenario = dataset::MakeScenario(
      "sbm:n=240,k=2,deg=6,labeled=0.1,seed=1", &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  const std::int64_t n = scenario->graph.num_nodes();
  std::vector<double> priors(static_cast<std::size_t>(n));
  for (std::int64_t v = 0; v < n; ++v) {
    priors[v] = scenario->explicit_residuals.At(v, 0);
  }
  const double h = 0.04;
  const double denom = 1.0 - 4.0 * h * h;
  const DenseMatrix c1{{2.0 * h / denom}};
  const DenseMatrix c2{{4.0 * h * h / denom}};
  const DenseMatrix e = DenseMatrix::FromVectorized(priors, n, 1);
  const DenseMatrix zero(n, 1);
  std::vector<engine::ShardStreamBackend> streamed;
  std::optional<Graph> narrowed;
  ASSERT_NO_FATAL_FAILURE(
      OpenStreams(*scenario, "k1", kStreams, 3, &streamed, &narrowed));
  const engine::InMemoryBackend in_memory(&scenario->graph);
  for (const Precision precision : {Precision::kF64, Precision::kF32}) {
    SCOPED_TRACE(::testing::Message()
                 << "k 1 (FaBP), " << PrecisionName(precision));
    LinBpOptions options;
    options.precision = precision;
    options.tolerance = precision == Precision::kF32 ? 1e-6 : 1e-10;
    const auto reference = [&](const Graph& graph) {
      return precision == Precision::kF32
                 ? UnfusedLinBpF32(graph, c1, &c2, e, zero, options)
                 : UnfusedLinBp(graph, c1, &c2, e, zero, options);
    };
    const SweepTrace expected = reference(scenario->graph);
    ASSERT_GE(expected.iterations, 3);
    ASSERT_LT(expected.iterations, options.max_iterations);
    ExpectFusedEverywhere(
        [&](const engine::PropagationBackend& backend,
            const LinBpOptions& run) {
          return FusedFabp(backend, h, priors, run);
        },
        in_memory, kStreams, streamed, contexts, options, expected,
        reference(*narrowed));
  }
}

// The same pin on shards of several row groups each (one 5,000-row
// shard: three groups), so every streamed sweep decodes its shard across
// the context's lanes: f64 and f32 values, cache off and on, the shard in
// its own file and inline in a `.lbps`, both precisions, threads
// {1, 2, 4, 8}.
TEST(KernelEquivalenceTest, FusedSweepMatchesUnfusedOnMultiGroupShards) {
  const std::vector<Stream> streams = {
      {"f64 multi-group", dataset::ShardCompression::kF64, 0},
      {"f64 multi-group cached", dataset::ShardCompression::kF64,
       std::int64_t{1} << 30},
      {"f32 multi-group", dataset::ShardCompression::kF32, 0},
      {"f64 multi-group inline", dataset::ShardCompression::kF64, 0, true},
  };
  std::vector<ExecContext> contexts;
  for (const int threads : kThreadCounts) {
    contexts.push_back(ExecContext::WithThreads(threads));
  }
  std::string error;
  const auto scenario = dataset::MakeScenario(
      "sbm:n=5000,k=3,deg=6,labeled=0.1,seed=3", &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  const CouplingMatrix coupling = scenario->Coupling();
  const DenseMatrix hhat = coupling.ScaledResidual(
      0.5 * SufficientEpsilonBound(scenario->graph, coupling,
                                   LinBpVariant::kLinBp));
  const DenseMatrix echo = hhat.Multiply(hhat);
  const DenseMatrix& e = scenario->explicit_residuals;
  std::vector<engine::ShardStreamBackend> streamed;
  std::optional<Graph> narrowed;
  ASSERT_NO_FATAL_FAILURE(OpenStreams(*scenario, "multi_group", streams, 1,
                                      &streamed, &narrowed));
  const engine::InMemoryBackend in_memory(&scenario->graph);
  for (const Precision precision : {Precision::kF64, Precision::kF32}) {
    SCOPED_TRACE(PrecisionName(precision));
    LinBpOptions options;
    options.precision = precision;
    options.tolerance = precision == Precision::kF32 ? 1e-6 : 1e-10;
    options.divergence_patience = 0;
    const auto reference = [&](const Graph& graph) {
      return precision == Precision::kF32
                 ? UnfusedLinBpF32(graph, hhat, &echo, e, e, options)
                 : UnfusedLinBp(graph, hhat, &echo, e, e, options);
    };
    const SweepTrace expected = reference(scenario->graph);
    ASSERT_GE(expected.iterations, 3);
    ASSERT_LT(expected.iterations, options.max_iterations);
    ExpectFusedEverywhere(
        [&](const engine::PropagationBackend& backend,
            const LinBpOptions& run) {
          return FusedLinBp(backend, hhat, e, run);
        },
        in_memory, streams, streamed, contexts, options, expected,
        reference(*narrowed));
  }
}

}  // namespace
}  // namespace linbp
