#include "src/core/linbp.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "src/engine/backend_ops.h"
#include "src/engine/in_memory_backend.h"
#include "src/la/dense_linalg.h"
#include "src/la/dense_matrix_f32.h"
#include "src/la/kron_ops.h"
#include "src/la/solvers.h"
#include "src/obs/obs.h"
#include "src/util/check.h"
#include "src/util/timer.h"

namespace linbp {

DenseMatrix ExactModulation(const DenseMatrix& hhat) {
  LINBP_CHECK(hhat.rows() == hhat.cols());
  const DenseMatrix lhs =
      DenseMatrix::Identity(hhat.rows()).Sub(hhat.Multiply(hhat));
  const auto inverse = Inverse(lhs);
  LINBP_CHECK_MSG(inverse.has_value(), "I - Hhat^2 is singular");
  return inverse->Multiply(hhat);
}

namespace core_internal {
namespace {

// Records one completed sweep into the global metrics registry, the
// family's time series, the enclosing trace span (may be null), and the
// observer (may be empty), so cold, warm and FaBP sweeps report alike.
void ReportSweep(SweepFamily family, const SweepTelemetry& telemetry,
                 const SweepObserver& observer, obs::ScopedSpan* span) {
  obs::TimeSeriesSample sample;
  sample.sweep = telemetry.sweep;
  sample.delta = telemetry.delta;
  sample.delta_l2 = telemetry.delta_l2;
  sample.seconds = telemetry.seconds;
  sample.bytes_streamed = telemetry.bytes_streamed;
  sample.precision = PrecisionName(telemetry.precision);
  // The obs macros cache one handle per call site, so each family's
  // names need call sites of their own.
  switch (family) {
    case SweepFamily::kLinBp:
      LINBP_OBS_COUNTER_ADD("linbp_sweeps_total", 1);
      LINBP_OBS_COUNTER_ADD("linbp_rows_processed_total", telemetry.rows);
      LINBP_OBS_COUNTER_ADD("linbp_nnz_processed_total", telemetry.nnz);
      LINBP_OBS_HISTOGRAM_OBSERVE("linbp_sweep_seconds", telemetry.seconds);
      LINBP_OBS_TIMESERIES_APPEND("linbp_sweep", sample);
      break;
    case SweepFamily::kFabp:
      LINBP_OBS_COUNTER_ADD("fabp_sweeps_total", 1);
      LINBP_OBS_COUNTER_ADD("fabp_rows_processed_total", telemetry.rows);
      LINBP_OBS_COUNTER_ADD("fabp_nnz_processed_total", telemetry.nnz);
      LINBP_OBS_HISTOGRAM_OBSERVE("fabp_sweep_seconds", telemetry.seconds);
      LINBP_OBS_TIMESERIES_APPEND("fabp_sweep", sample);
      break;
  }
  if (span != nullptr && span->active()) {
    span->SetAttr("sweep", telemetry.sweep);
    span->SetAttr("delta", telemetry.delta);
    span->SetAttr("max_magnitude", telemetry.max_magnitude);
    span->SetAttr("rows", telemetry.rows);
    span->SetAttr("nnz", telemetry.nnz);
    span->SetAttr("precision", PrecisionName(telemetry.precision));
  }
  if (observer) observer(telemetry);
}

// Current value of the shard-stream byte counter; per-sweep deltas give
// the bytes a streamed backend read for that sweep (0 for in-memory
// backends, which never touch the counter).
std::int64_t StreamBytesCounterValue() {
#ifndef LINBP_OBS_DISABLED
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("shard_stream_bytes_read_total");
  return counter.Value();
#else
  return 0;
#endif
}

// rho of the swept operator B -> A*B*modulation - D*B*echo_modulation by
// power iteration, or -1 when a streamed backend fails mid-estimate.
double EstimateSpectralRadius(const engine::PropagationBackend& backend,
                              const DenseMatrix& modulation,
                              const DenseMatrix* echo_modulation,
                              const exec::ExecContext& ctx) {
  try {
    const engine::BackendLinBpOperator op(&backend, modulation,
                                          echo_modulation, ctx);
    return PowerIteration(op, 500, 1e-11).spectral_radius;
  } catch (const std::exception&) {
    return -1.0;
  }
}

// How many deltas FitContractionRate's trailing window actually uses.
int CountFittedDeltas(const std::vector<double>& deltas, int window) {
  const std::size_t begin =
      window > 0 && deltas.size() > static_cast<std::size_t>(window)
          ? deltas.size() - static_cast<std::size_t>(window)
          : 0;
  int n = 0;
  for (std::size_t i = begin; i < deltas.size(); ++i) {
    if (std::isfinite(deltas[i]) && deltas[i] > 0.0) ++n;
  }
  return n;
}

std::string DivergenceAbortError(int sweeps, int streak, double rho_hat,
                                 double spectral_estimate) {
  char spectral[64];
  if (spectral_estimate >= 0.0) {
    std::snprintf(spectral, sizeof(spectral), "%.6g", spectral_estimate);
  } else {
    std::snprintf(spectral, sizeof(spectral), "unavailable");
  }
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "diverging: residual delta rose for %d consecutive sweeps "
                "(completed %d sweeps, rho_hat=%.6g, spectral radius "
                "estimate=%s)",
                streak, sweeps, rho_hat, spectral);
  return buffer;
}

// One fused sweep from *current into *next, then a swap: the two buffers
// carry the whole loop, and a failed sweep skips the swap, leaving
// *current — the last completed sweep — untouched.
template <typename Matrix>
bool SweepAndSwap(const engine::PropagationBackend& backend,
                  const DenseMatrix& modulation,
                  const DenseMatrix* echo_modulation,
                  const Matrix& explicit_residuals,
                  const exec::ExecContext& ctx, Matrix* current, Matrix* next,
                  LinBpSweepStats* stats, std::string* error) {
  LinBpRowStats rows;
  if (!engine::BackendLinBpSweep(backend, modulation, echo_modulation,
                                 *current, explicit_residuals, ctx, next,
                                 &rows, error)) {
    return false;
  }
  std::swap(*current, *next);
  stats->delta = rows.delta;
  stats->delta_l2 = std::sqrt(rows.delta_sq);
  stats->magnitude = rows.magnitude;
  return true;
}

}  // namespace

SweepLoopResult RunSweepLoop(const engine::PropagationBackend& backend,
                             const DenseMatrix& modulation,
                             const DenseMatrix* echo_modulation,
                             const DenseMatrix& explicit_residuals,
                             const LinBpOptions& options, double spectral_hint,
                             SweepFamily family, DenseMatrix* beliefs) {
  const std::int64_t n = backend.num_nodes();
  const exec::ExecContext& ctx = options.exec;
  SweepLoopResult result;
  result.diagnostics.spectral_radius_estimate = spectral_hint;

  // Each sweep writes a second belief buffer and swaps it in, so no sweep
  // allocates. In f32 mode both buffers (and the explicit residuals) are
  // float for the whole loop (the bandwidth win) and the result is
  // widened back into *beliefs on every exit path below; in f64 mode
  // *beliefs itself is one of the two buffers.
  const std::int64_t k = modulation.rows();
  const bool f32 = options.precision == Precision::kF32;
  DenseMatrix next;
  DenseMatrixF32 beliefs32;
  DenseMatrixF32 next32;
  DenseMatrixF32 explicit32;
  if (f32) {
    beliefs32 = DenseMatrixF32::FromF64(*beliefs);
    next32 = DenseMatrixF32(n, k);
    explicit32 = DenseMatrixF32::FromF64(explicit_residuals);
  } else {
    next = DenseMatrix(n, k);
  }

  std::vector<double> deltas;
  deltas.reserve(std::max(options.max_iterations, 0));
  int growth_streak = 0;
  double prev_delta = 0.0;
  const bool fabp = family == SweepFamily::kFabp;
  if (fabp) {
    LINBP_OBS_TIMESERIES_BEGIN_RUN("fabp_sweep");
  } else {
    LINBP_OBS_TIMESERIES_BEGIN_RUN("linbp_sweep");
  }
  for (int it = 1; it <= options.max_iterations; ++it) {
    obs::ScopedSpan span(fabp ? "fabp_sweep" : "linbp_sweep");
    WallTimer sweep_timer;
    const std::int64_t bytes_before = StreamBytesCounterValue();
    LinBpSweepStats stats;
    const bool swept =
        f32 ? SweepAndSwap(backend, modulation, echo_modulation, explicit32,
                           ctx, &beliefs32, &next32, &stats, &result.error)
            : SweepAndSwap(backend, modulation, echo_modulation,
                           explicit_residuals, ctx, beliefs, &next, &stats,
                           &result.error);
    if (!swept) {
      // The failing sweep was never applied: beliefs still hold sweep
      // it - 1, so callers can report the error with their state intact.
      result.failed = true;
      break;
    }
    result.iterations = it;
    result.last_delta = stats.delta;
    deltas.push_back(stats.delta);

    SweepTelemetry telemetry;
    telemetry.sweep = it;
    telemetry.delta = stats.delta;
    telemetry.delta_l2 = stats.delta_l2;
    telemetry.max_magnitude = stats.magnitude;
    telemetry.seconds = sweep_timer.Seconds();
    telemetry.contraction =
        it > 1 && prev_delta > 0.0 ? stats.delta / prev_delta : 0.0;
    telemetry.rows = n;
    telemetry.nnz = backend.num_stored_entries();
    telemetry.bytes_streamed = StreamBytesCounterValue() - bytes_before;
    telemetry.precision = options.precision;
    ReportSweep(family, telemetry, options.sweep_observer, &span);

    growth_streak =
        it > 1 && stats.delta > prev_delta ? growth_streak + 1 : 0;
    prev_delta = stats.delta;
    if (!std::isfinite(stats.delta) ||
        stats.magnitude > options.divergence_threshold) {
      result.diverged = true;
      break;
    }
    if (stats.delta <= options.tolerance) {
      result.converged = true;
      break;
    }
    if (options.divergence_patience > 0 &&
        growth_streak >= options.divergence_patience &&
        stats.delta > deltas.front()) {
      const double rho_hat = FitContractionRate(deltas);
      if (rho_hat > 1.0) {
        if (result.diagnostics.spectral_radius_estimate < 0.0) {
          result.diagnostics.spectral_radius_estimate =
              EstimateSpectralRadius(backend, modulation, echo_modulation,
                                     ctx);
        }
        result.diverged = true;
        result.failed = true;
        result.error = DivergenceAbortError(
            it, growth_streak, rho_hat,
            result.diagnostics.spectral_radius_estimate);
        break;
      }
    }
  }

  // Widen the f32 working state back to the caller's fp64 beliefs on
  // every exit (converged, diverged, failed, max_iterations): completed
  // sweeps were computed in f32, so the widening is exact.
  if (f32) *beliefs = beliefs32.ToF64();

  result.diagnostics.empirical_contraction = FitContractionRate(deltas);
  result.diagnostics.fitted_sweeps = CountFittedDeltas(deltas, 16);
  const double rho = result.diagnostics.empirical_contraction;
  if (result.converged) {
    result.diagnostics.predicted_sweeps_to_tolerance = 0.0;
  } else if (rho > 0.0 && rho < 1.0 && options.tolerance > 0.0 &&
             result.last_delta > options.tolerance) {
    result.diagnostics.predicted_sweeps_to_tolerance = std::ceil(
        std::log(options.tolerance / result.last_delta) / std::log(rho));
  }
  return result;
}

}  // namespace core_internal

LinBpSweepStats ApplyLinBpSweep(const exec::ExecContext& ctx,
                                const DenseMatrix& explicit_residuals,
                                const DenseMatrix& propagated,
                                DenseMatrix* beliefs) {
  const std::int64_t n = beliefs->rows();
  const std::int64_t k = beliefs->cols();
  LINBP_CHECK(explicit_residuals.rows() == n && explicit_residuals.cols() == k);
  LINBP_CHECK(propagated.rows() == n && propagated.cols() == k);
  const std::int64_t chunks = std::min<std::int64_t>(
      std::max<std::int64_t>(n, 1),
      ctx.NumChunks(n * k, exec::kDefaultMinWorkPerChunk));
  std::vector<double> chunk_delta(chunks, 0.0);
  std::vector<double> chunk_delta_sq(chunks, 0.0);
  std::vector<double> chunk_magnitude(chunks, 0.0);
  ctx.RunChunks(n, chunks, [&](std::int64_t chunk, std::int64_t row_begin,
                               std::int64_t row_end) {
    double local_delta = 0.0;
    double local_delta_sq = 0.0;
    double local_magnitude = 0.0;
    for (std::int64_t s = row_begin; s < row_end; ++s) {
      for (std::int64_t c = 0; c < k; ++c) {
        const double value = explicit_residuals.At(s, c) + propagated.At(s, c);
        const double change = value - beliefs->At(s, c);
        local_delta = std::max(local_delta, std::abs(change));
        local_delta_sq += change * change;
        local_magnitude = std::max(local_magnitude, std::abs(value));
        beliefs->At(s, c) = value;
      }
    }
    chunk_delta[chunk] = local_delta;
    chunk_delta_sq[chunk] = local_delta_sq;
    chunk_magnitude[chunk] = local_magnitude;
  });
  LinBpSweepStats stats;
  // Sum-of-squares reduces in chunk order so delta_l2 is deterministic
  // for a fixed chunk count. NumChunks clamps the count to ctx's thread
  // count, so delta_l2 is deterministic for a fixed context and may
  // differ in the last bits between contexts (delta and magnitude are
  // maxima and never do).
  double delta_sq = 0.0;
  for (std::int64_t chunk = 0; chunk < chunks; ++chunk) {
    stats.delta = std::max(stats.delta, chunk_delta[chunk]);
    delta_sq += chunk_delta_sq[chunk];
    stats.magnitude = std::max(stats.magnitude, chunk_magnitude[chunk]);
  }
  stats.delta_l2 = std::sqrt(delta_sq);
  return stats;
}

LinBpResult RunLinBp(const engine::PropagationBackend& backend,
                     const DenseMatrix& hhat,
                     const DenseMatrix& explicit_residuals,
                     const LinBpOptions& options) {
  const std::int64_t n = backend.num_nodes();
  const std::int64_t k = hhat.rows();
  LINBP_CHECK(hhat.cols() == k && k >= 2);
  LINBP_CHECK(explicit_residuals.rows() == n &&
              explicit_residuals.cols() == k);

  // Pick the modulation matrices for the requested variant. For kLinBpExact
  // the per-edge modulation is Hhat* and the echo term uses Hhat * Hhat*
  // (Eq. 29); for kLinBp both collapse to Hhat and Hhat^2 (Theorem 4);
  // kLinBpStar drops the echo term.
  DenseMatrix modulation = hhat;
  if (options.variant == LinBpVariant::kLinBpExact) {
    modulation = ExactModulation(hhat);
  }
  const DenseMatrix echo_modulation = hhat.Multiply(modulation);

  const DenseMatrix* echo =
      options.variant == LinBpVariant::kLinBpStar ? nullptr : &echo_modulation;
  const double spectral_estimate =
      options.estimate_spectral_radius
          ? core_internal::EstimateSpectralRadius(backend, modulation, echo,
                                                  options.exec)
          : -1.0;

  LinBpResult result;
  result.beliefs = explicit_residuals;
  const core_internal::SweepLoopResult loop = core_internal::RunSweepLoop(
      backend, modulation, echo, explicit_residuals, options,
      spectral_estimate, core_internal::SweepFamily::kLinBp, &result.beliefs);
  result.iterations = loop.iterations;
  result.converged = loop.converged;
  result.diverged = loop.diverged;
  result.failed = loop.failed;
  result.error = loop.error;
  result.last_delta = loop.last_delta;
  result.diagnostics = loop.diagnostics;
  return result;
}

LinBpResult RunLinBp(const Graph& graph, const DenseMatrix& hhat,
                     const DenseMatrix& explicit_residuals,
                     const LinBpOptions& options) {
  const engine::InMemoryBackend backend(&graph);
  return RunLinBp(backend, hhat, explicit_residuals, options);
}

}  // namespace linbp
