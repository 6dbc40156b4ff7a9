// Equivalence of the parallel CSR kernels with the serial reference.
//
// SpMM and SpMV assign whole output rows to one block, so a parallel run
// must be BIT-IDENTICAL to the serial kernel for every thread count (the
// static partition changes which thread computes a row, never the
// floating-point evaluation order inside it). TransposeMultiplyVector
// reduces per-block partials instead and is checked to tight tolerance
// plus run-to-run determinism. The solver-level checks extend the
// guarantee to RunLinBp / RunSbp outputs, and the fused-sweep matrix at
// the end pins RunLinBp to the unfused primitives it replaced, and the
// unit-weight matrix pins every row kernel's null-value form to the
// weighted kernel over an explicit array of 1.0s.

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
#include "src/engine/backend_ops.h"
#include "src/engine/in_memory_backend.h"
#include "src/engine/shard_stream_backend.h"
#include "src/exec/exec_context.h"
#include "src/graph/beliefs.h"
#include "src/graph/generators.h"
#include "src/la/dense_matrix_f32.h"
#include "src/la/kron_ops.h"
#include "src/la/sparse_matrix.h"
#include "tests/testing/shard_bytes.h"
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
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted ? "weighted" : "unit weights");
    const Graph unit = KroneckerPowerGraph(7);
    const Graph graph = weighted ? testing::WithEndpointWeights(unit) : unit;
    const SparseMatrix& m = graph.adjacency();
    ASSERT_EQ(m.unit_weights(), !weighted);
    // The raw kernels take the matrix's own value pointers: null for a
    // unit matrix, in either precision.
    const auto values32 = m.values_f32();
    const float* values32_data = values32 ? values32->data() : nullptr;
    EXPECT_EQ(values32 == nullptr, !weighted);
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
                      m.values_or_null(), 0, n, b64.data().data(), k,
                      raw64.data());
    ASSERT_EQ(spmm64.data().size(), raw64.size());
    EXPECT_EQ(std::memcmp(spmm64.data().data(), raw64.data(),
                          raw64.size() * sizeof(double)),
              0);

    const DenseMatrixF32 spmm32 =
        m.MultiplyDenseF32(b32, ExecContext::Serial());
    std::vector<float> raw32(n * k, 0.0f);
    SpmmRowsT<float>(m.row_ptr().data(), m.col_idx().data(), values32_data, 0,
                     n, b32.data().data(), k, raw32.data());
    ASSERT_EQ(spmm32.data().size(), raw32.size());
    EXPECT_EQ(std::memcmp(spmm32.data().data(), raw32.data(),
                          raw32.size() * sizeof(float)),
              0);

    const std::vector<double> spmv64 =
        m.MultiplyVector(x64, ExecContext::Serial());
    std::vector<double> rawv64(n, 0.0);
    SpmvRowsT<double>(m.row_ptr().data(), m.col_idx().data(),
                      m.values_or_null(), 0, n, x64.data(), rawv64.data());
    EXPECT_EQ(std::memcmp(spmv64.data(), rawv64.data(), n * sizeof(double)),
              0);

    const std::vector<float> spmv32 =
        m.MultiplyVectorF32(x32, ExecContext::Serial());
    std::vector<float> rawv32(n, 0.0f);
    SpmvRowsT<float>(m.row_ptr().data(), m.col_idx().data(), values32_data, 0,
                     n, x32.data(), rawv32.data());
    EXPECT_EQ(std::memcmp(spmv32.data(), rawv32.data(), n * sizeof(float)), 0);
  }
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

  for (const bool weighted : {false, true}) {
    for (const std::int64_t k : {2, 3, 4, 8, 9}) {
      std::string error;
      auto scenario = dataset::MakeScenario(
          "sbm:n=240,k=" + std::to_string(k) +
              ",deg=6,labeled=0.1,seed=" + std::to_string(k),
          &error);
      ASSERT_TRUE(scenario.has_value()) << error;
      if (weighted) {
        scenario->graph = testing::WithEndpointWeights(scenario->graph);
      }
      const CouplingMatrix coupling = scenario->Coupling();
      const DenseMatrix hhat = coupling.ScaledResidual(
          0.5 * SufficientEpsilonBound(scenario->graph, coupling,
                                       LinBpVariant::kLinBp));
      const DenseMatrix& e = scenario->explicit_residuals;
      std::vector<engine::ShardStreamBackend> streamed;
      std::optional<Graph> narrowed;
      ASSERT_NO_FATAL_FAILURE(OpenStreams(
          *scenario, (weighted ? "weighted_k" : "k") + std::to_string(k),
          kStreams, 3, &streamed, &narrowed));
      const engine::InMemoryBackend in_memory(&scenario->graph);

      for (const LinBpVariant variant : kVariants) {
        const DenseMatrix modulation = variant == LinBpVariant::kLinBpExact
                                           ? ExactModulation(hhat)
                                           : hhat;
        const DenseMatrix echo = hhat.Multiply(modulation);
        const DenseMatrix* echo_modulation =
            variant == LinBpVariant::kLinBpStar ? nullptr : &echo;
        for (const Precision precision :
             {Precision::kF64, Precision::kF32}) {
          SCOPED_TRACE(::testing::Message()
                       << (weighted ? "weighted" : "unit weights") << ", k "
                       << k << ", variant " << static_cast<int>(variant)
                       << ", " << PrecisionName(precision));
          LinBpOptions options;
          options.variant = variant;
          options.precision = precision;
          options.tolerance = precision == Precision::kF32 ? 1e-6 : 1e-10;
          options.divergence_patience = 0;
          const auto reference = [&](const Graph& graph) {
            return precision == Precision::kF32
                       ? UnfusedLinBpF32(graph, modulation, echo_modulation,
                                         e, e, options)
                       : UnfusedLinBp(graph, modulation, echo_modulation, e,
                                      e, options);
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
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted ? "weighted" : "unit weights");
    std::string error;
    auto scenario = dataset::MakeScenario(
        "sbm:n=5000,k=3,deg=6,labeled=0.1,seed=3", &error);
    ASSERT_TRUE(scenario.has_value()) << error;
    if (weighted) {
      scenario->graph = testing::WithEndpointWeights(scenario->graph);
    }
    const CouplingMatrix coupling = scenario->Coupling();
    const DenseMatrix hhat = coupling.ScaledResidual(
        0.5 * SufficientEpsilonBound(scenario->graph, coupling,
                                     LinBpVariant::kLinBp));
    const DenseMatrix echo = hhat.Multiply(hhat);
    const DenseMatrix& e = scenario->explicit_residuals;
    std::vector<engine::ShardStreamBackend> streamed;
    std::optional<Graph> narrowed;
    ASSERT_NO_FATAL_FAILURE(
        OpenStreams(*scenario, weighted ? "multi_group_w" : "multi_group",
                    streams, 1, &streamed, &narrowed));
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
}

// ---------------------------------------------------------------------------
// Unit weights: a null value pointer against an explicit array of 1.0s.

// memcmp equality of two equally long arrays of T.
template <typename T>
bool SameBits(const T* a, const T* b, std::size_t count) {
  return count == 0 || std::memcmp(a, b, count * sizeof(T)) == 0;
}

// delta_sq sums per range, so it is compared only between runs with the
// same row split (`with_delta_sq`).
bool SameStats(const LinBpRowStats& a, const LinBpRowStats& b,
               bool with_delta_sq = true) {
  return SameBits(&a.delta, &b.delta, 1) &&
         (!with_delta_sq || SameBits(&a.delta_sq, &b.delta_sq, 1)) &&
         SameBits(&a.magnitude, &b.magnitude, 1);
}

// A backend over a unit-weight graph's CSR that hands out an explicit
// value array of 1.0s (f64 and f32) where the graph keeps none, with
// degrees summed as 1 * 1 per entry: the weighted kernels over ones.
class OnesBackend final : public engine::PropagationBackend {
 public:
  explicit OnesBackend(const Graph* graph)
      : graph_(graph),
        ones_(static_cast<std::size_t>(graph->num_directed_edges()), 1.0),
        ones_f32_(ones_.size(), 1.0f),
        degrees_(static_cast<std::size_t>(graph->num_nodes()), 0.0) {
    const auto& row_ptr = graph->adjacency().row_ptr();
    for (std::int64_t r = 0; r < graph->num_nodes(); ++r) {
      for (std::int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
        degrees_[r] += ones_[e] * ones_[e];
      }
    }
  }
  std::int64_t num_nodes() const override { return graph_->num_nodes(); }
  std::int64_t num_stored_entries() const override {
    return graph_->num_directed_edges();
  }
  const std::vector<double>& weighted_degrees() const override {
    return degrees_;
  }
  bool VisitRowBlocks(Precision precision, const ExecContext& ctx,
                      const engine::BlockVisitor& visit,
                      std::string* error) const override {
    (void)ctx;
    (void)error;
    engine::CsrBlock block;
    block.num_rows = graph_->num_nodes();
    block.row_ptr = graph_->adjacency().row_ptr().data();
    block.col_idx = graph_->adjacency().col_idx().data();
    if (precision == Precision::kF32) {
      block.values_f32 = ones_f32_.data();
    } else {
      block.values = ones_.data();
    }
    visit(block);
    return true;
  }

 private:
  const Graph* graph_;
  std::vector<double> ones_;
  std::vector<float> ones_f32_;
  std::vector<double> degrees_;
};

// The four row kernels over a unit-weight CSR, serial over every row:
// the null-value (unit) instantiation against the weighted one over an
// explicit array of 1.0s, at k = 1..8 (compile-time) and 9 (runtime).
template <typename Scalar>
void ExpectUnitRowKernelsMatchOnes(const Graph& graph) {
  const SparseMatrix& a = graph.adjacency();
  ASSERT_TRUE(a.unit_weights());
  const std::int64_t n = a.rows();
  const std::int64_t* row_ptr = a.row_ptr().data();
  const std::int32_t* col_idx = a.col_idx().data();
  const std::vector<Scalar> ones(static_cast<std::size_t>(a.NumNonZeros()),
                                 Scalar(1));
  // Zeros in the operands exercise the skips of SpMV's transpose.
  const auto operand = [n](std::int64_t k, std::uint64_t seed) {
    std::vector<Scalar> out(static_cast<std::size_t>(n * k));
    const DenseMatrix m = testing::RandomMatrix(n, k, 1.0, seed);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = i % 5 == 0 ? Scalar(0) : static_cast<Scalar>(m.data()[i]);
    }
    return out;
  };

  const std::vector<Scalar> x = operand(1, 3);
  std::vector<Scalar> unit(n), with_ones(n);
  SpmvRowsT<Scalar>(row_ptr, col_idx, nullptr, 0, n, x.data(), unit.data());
  SpmvRowsT<Scalar>(row_ptr, col_idx, ones.data(), 0, n, x.data(),
                    with_ones.data());
  EXPECT_TRUE(SameBits(unit.data(), with_ones.data(), unit.size()))
      << "SpmvRowsT";
  std::fill(unit.begin(), unit.end(), Scalar(0));
  std::fill(with_ones.begin(), with_ones.end(), Scalar(0));
  SpmtvRowsT<Scalar>(row_ptr, col_idx, nullptr, 0, n, x.data(), unit.data());
  SpmtvRowsT<Scalar>(row_ptr, col_idx, ones.data(), 0, n, x.data(),
                     with_ones.data());
  EXPECT_TRUE(SameBits(unit.data(), with_ones.data(), unit.size()))
      << "SpmtvRowsT";

  for (std::int64_t k = 1; k <= 9; ++k) {
    SCOPED_TRACE(::testing::Message() << "k " << k);
    const std::vector<Scalar> b = operand(k, 10 + k);
    std::vector<Scalar> spmm_unit(b.size()), spmm_ones(b.size());
    SpmmRowsT<Scalar>(row_ptr, col_idx, nullptr, 0, n, b.data(), k,
                      spmm_unit.data());
    SpmmRowsT<Scalar>(row_ptr, col_idx, ones.data(), 0, n, b.data(), k,
                      spmm_ones.data());
    EXPECT_TRUE(SameBits(spmm_unit.data(), spmm_ones.data(), b.size()))
        << "SpmmRowsT";

    const DenseMatrix hhat = testing::RandomMatrix(k, k, 0.1, 20 + k);
    const DenseMatrix hhat2 = hhat.Multiply(hhat);
    const std::vector<Scalar> e = operand(k, 30 + k);
    for (const bool echo : {false, true}) {
      for (const bool apply : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "LinBpRowsT echo " << echo << ", apply " << apply);
        LinBpRowsArgs<Scalar> args;
        args.row_ptr = row_ptr;
        args.col_idx = col_idx;
        args.row_begin = 0;
        args.row_end = n;
        args.k = k;
        args.beliefs = b.data();
        args.hhat = hhat.data().data();
        args.hhat2 = echo ? hhat2.data().data() : nullptr;
        args.degrees = graph.weighted_degrees().data();
        args.explicit_residuals = apply ? e.data() : nullptr;
        std::vector<Scalar> out_unit(b.size()), out_ones(b.size());
        args.out = out_unit.data();
        const LinBpRowStats stats_unit = LinBpRowsT<Scalar>(args);
        args.values = ones.data();
        args.out = out_ones.data();
        const LinBpRowStats stats_ones = LinBpRowsT<Scalar>(args);
        EXPECT_TRUE(SameBits(out_unit.data(), out_ones.data(), b.size()));
        EXPECT_TRUE(SameStats(stats_unit, stats_ones));
      }
    }
  }
}

// One fused sweep of every backend in `backends` at every context, k and
// precision, against the first backend's: next beliefs and statistics
// memcmp-equal (delta_sq only with `same_split`: the backends split the
// rows alike). Then the backends' f64 SpMM and SpMV, the same way.
void ExpectBackendsAgree(
    const std::vector<const engine::PropagationBackend*>& backends,
    const std::vector<const char*>& names, bool same_split) {
  const std::int64_t n = backends.front()->num_nodes();
  for (const int threads : kThreadCounts) {
    const ExecContext ctx = ExecContext::WithThreads(threads);
    for (std::int64_t k = 1; k <= 9; ++k) {
      const DenseMatrix hhat = testing::RandomMatrix(k, k, 0.05, 40 + k);
      const DenseMatrix hhat2 = hhat.Multiply(hhat);
      const DenseMatrix b = testing::RandomMatrix(n, k, 1.0, 50 + k);
      const DenseMatrix e = testing::RandomMatrix(n, k, 0.1, 60 + k);
      const DenseMatrixF32 b32 = DenseMatrixF32::FromF64(b);
      const DenseMatrixF32 e32 = DenseMatrixF32::FromF64(e);
      DenseMatrix first(n, k);
      DenseMatrixF32 first32(n, k);
      LinBpRowStats first_stats;
      LinBpRowStats first_stats32;
      DenseMatrix first_spmm;
      std::vector<double> first_spmv;
      for (std::size_t i = 0; i < backends.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << names[i] << ", threads "
                                          << threads << ", k " << k);
        std::string error;
        DenseMatrix next(n, k);
        DenseMatrixF32 next32(n, k);
        LinBpRowStats stats;
        LinBpRowStats stats32;
        ASSERT_TRUE(engine::BackendLinBpSweep(*backends[i], hhat, &hhat2, b,
                                              e, ctx, &next, &stats, &error))
            << error;
        ASSERT_TRUE(engine::BackendLinBpSweep(*backends[i], hhat, &hhat2,
                                              b32, e32, ctx, &next32,
                                              &stats32, &error))
            << error;
        DenseMatrix spmm;
        std::vector<double> spmv;
        ASSERT_TRUE(backends[i]->MultiplyDense(b, ctx, &spmm, &error))
            << error;
        ASSERT_TRUE(backends[i]->MultiplyVector(
            std::vector<double>(b.data().begin(), b.data().begin() + n), ctx,
            &spmv, &error))
            << error;
        if (i == 0) {
          first = std::move(next);
          first32 = std::move(next32);
          first_stats = stats;
          first_stats32 = stats32;
          first_spmm = std::move(spmm);
          first_spmv = std::move(spmv);
          continue;
        }
        EXPECT_TRUE(SameBits(next.data().data(), first.data().data(),
                             next.data().size()));
        EXPECT_TRUE(SameBits(next32.data().data(), first32.data().data(),
                             next32.data().size()));
        EXPECT_TRUE(SameStats(stats, first_stats, same_split));
        EXPECT_TRUE(SameStats(stats32, first_stats32, same_split));
        EXPECT_TRUE(SameBits(spmm.data().data(), first_spmm.data().data(),
                             spmm.data().size()));
        EXPECT_TRUE(SameBits(spmv.data(), first_spmv.data(), spmv.size()));
      }
    }
  }
}

// A unit-weight matrix runs every row kernel with a null value pointer,
// and no value array exists to hand over. Its results must be the bits
// of the weighted kernels over an explicit array of 1.0s: the raw row
// kernels (SpMM, SpMV, transpose SpMV, the fused LinBP rows) at every k
// in f32 and f64, and the fused sweep and products of every backend —
// in memory, over unit-weight shards (f64 and f32 requested, which write
// the same bytes), over legacy shards whose value sections store the
// 1.0s, and over an in-memory CSR with an explicit ones array — at 1, 2,
// 4 and 8 threads.
TEST(KernelEquivalenceTest, UnitWeightKernelsMatchExplicitOnesByMemcmp) {
  std::string error;
  const auto scenario = dataset::MakeScenario(
      "sbm:n=3000,k=3,deg=6,labeled=0.1,seed=5", &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  const Graph& graph = scenario->graph;
  ASSERT_TRUE(graph.adjacency().unit_weights());
  ASSERT_TRUE(graph.adjacency().values().empty());
  ASSERT_EQ(graph.adjacency().values_f32(), nullptr);
  {
    SCOPED_TRACE("f64 row kernels");
    ExpectUnitRowKernelsMatchOnes<double>(graph);
  }
  {
    SCOPED_TRACE("f32 row kernels");
    ExpectUnitRowKernelsMatchOnes<float>(graph);
  }

  const engine::InMemoryBackend in_memory(&graph);
  const OnesBackend ones(&graph);
  EXPECT_EQ(ones.weighted_degrees(), graph.weighted_degrees());
  std::vector<engine::ShardStreamBackend> streamed;
  const char* stream_names[] = {"unit shards", "unit shards (f32 asked)",
                                "legacy ones shards"};
  for (int i = 0; i < 3; ++i) {
    const std::string dir =
        ::testing::TempDir() + "/unit_vs_ones_" + std::to_string(i);
    std::filesystem::remove_all(dir);
    const auto written = dataset::ShardSnapshot(
        *scenario, 4, dir, &error,
        i == 1 ? dataset::ShardCompression::kF32
               : dataset::ShardCompression::kF64);
    ASSERT_TRUE(written.has_value()) << error;
    if (i == 2) testing::ForgeLegacyValueSections(written->manifest_path);
    auto backend = engine::ShardStreamBackend::Open(written->manifest_path,
                                                    &error);
    ASSERT_TRUE(backend.has_value()) << error;
    EXPECT_EQ(backend->reader().unit_weights(), i != 2);
    EXPECT_EQ(backend->weighted_degrees(), graph.weighted_degrees());
    streamed.push_back(std::move(*backend));
  }
  ExpectBackendsAgree({&ones, &in_memory, &streamed[0], &streamed[1],
                       &streamed[2]},
                      {"explicit ones in memory", "in memory",
                       stream_names[0], stream_names[1], stream_names[2]},
                      /*same_split=*/false);
  ExpectBackendsAgree({&ones, &in_memory},
                      {"explicit ones in memory", "in memory"},
                      /*same_split=*/true);
  ExpectBackendsAgree({&streamed[2], &streamed[0], &streamed[1]},
                      {stream_names[2], stream_names[0], stream_names[1]},
                      /*same_split=*/true);
}

}  // namespace
}  // namespace linbp
