// Linearized Belief Propagation (Theorem 4 of the paper).
//
// Iterative updates:
//   LinBP  (Eq. 6):  B <- E + A*B*Hhat - D*B*Hhat^2   (echo cancellation)
//   LinBP* (Eq. 7):  B <- E + A*B*Hhat
// plus the "exact" variant of Eq. 29, which keeps Hhat* = (I-Hhat^2)^-1 Hhat
// instead of approximating it by Hhat:
//   LinBP^e:         B <- E + A*B*Hhat* - D*B*Hhat*Hhat*
// All matrices are residuals (centered); beliefs are n x k.

#ifndef LINBP_CORE_LINBP_H_
#define LINBP_CORE_LINBP_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/engine/propagation_backend.h"
#include "src/exec/exec_context.h"
#include "src/graph/graph.h"
#include "src/la/dense_matrix.h"
#include "src/la/precision.h"

namespace linbp {

/// Which update equation to run.
enum class LinBpVariant {
  kLinBp,       // Eq. 6, with echo cancellation
  kLinBpStar,   // Eq. 7, without echo cancellation
  kLinBpExact,  // Eq. 29, with the exact Hhat* modulation
};

/// The order a LinBP / FaBP sweep updates its rows in. Both iterate the
/// same update equation to the same fixed point B = E + M(B), where M is
/// the swept operator B -> A*B*modulation - D*B*echo_modulation.
///
/// kJacobi is the paper's iteration (Eq. 6): every row reads the
/// previous sweep's beliefs. It converges iff rho(M) < 1 (Lemma 8), and
/// the residual contracts by rho(M) per sweep.
///
/// kSegmentedGaussSeidel splits the rows into kSweepSegments fixed
/// segments [g*n/kSweepSegments, (g+1)*n/kSweepSegments), set by n alone
/// (never by the thread count, the shard layout or the row groups; a
/// graph with n < kSweepSegments gets empty segments, and the sweep is
/// row-order Gauss-Seidel). A row reads this sweep's value for each
/// neighbour in an earlier segment and the previous sweep's value for
/// every other neighbour, its own echo term included. M is symmetric
/// (Hhat, Hhat* and A are), so with I - M = P - N, P = I - L and L the
/// part of M strictly below the segment diagonal, P + P^T - (I - M) =
/// I + D_S, where D_S is M's segment-diagonal part; by Cauchy
/// interlacing D_S's eigenvalues lie in [lambda_min(M), lambda_max(M)].
/// By the Householder-John theorem the schedule therefore converges iff
/// lambda_max(M) < 1, given I + D_S positive definite. Every solve that
/// converges under Jacobi (rho(M) < 1, which gives both) converges here
/// too, to the same fixed point; on the perfbench graphs it takes 35-55%
/// fewer sweeps. It can converge where Jacobi diverges, when
/// lambda_min(M) <= -1 < lambda_max(M) < 1 with I + D_S still positive
/// definite, and with I + D_S positive definite it diverges when
/// lambda_max(M) > 1.
enum class SweepSchedule {
  kSegmentedGaussSeidel,
  kJacobi,
};

/// The segment count of kSegmentedGaussSeidel, a constant like the
/// shard format's row-group size, not a setting. Each segment is one
/// fork-join per sweep, so more segments save sweeps but pay for short
/// fork-joins.
inline constexpr int kSweepSegments = 8;

/// "segmented_gauss_seidel" or "jacobi" (telemetry and reports).
const char* SweepScheduleName(SweepSchedule schedule);

/// Telemetry for one completed solver sweep, delivered to a
/// SweepObserver. One "sweep" is one propagate + apply over all rows
/// (LinBP, and FaBP at k = 1), or one geodesic level (SBP).
struct SweepTelemetry {
  int sweep = 0;                // 1-based within this (re-)solve
  double delta = 0.0;           // max abs belief change of the sweep
  double delta_l2 = 0.0;        // L2 norm of the belief change
  double max_magnitude = 0.0;   // max abs belief after the sweep
  double seconds = 0.0;         // wall time of propagate + apply
  /// delta / previous sweep's delta — the one-step contraction estimate
  /// (values < 1 contract; 0 on the first sweep or a zero previous
  /// delta). The run-level fit is on the result's diagnostics.
  double contraction = 0.0;
  std::int64_t rows = 0;        // belief rows updated
  std::int64_t nnz = 0;         // stored adjacency entries propagated
  std::int64_t bytes_streamed = 0;  // shard bytes read during the sweep
  /// Belief-storage precision the sweep ran at (recorded on the sweep's
  /// trace span). Delta norms are fp64-accumulated either way.
  Precision precision = Precision::kF64;
  /// The sweep's row order (LinBP and FaBP sweeps; an SBP level keeps
  /// the default).
  SweepSchedule schedule = SweepSchedule::kJacobi;
};

/// Per-sweep telemetry hook. Observers only *read* solver state —
/// beliefs are bit-identical with or without one installed
/// (test-enforced in tests/core/linbp_test.cc).
using SweepObserver = std::function<void(const SweepTelemetry&)>;

/// Options for RunLinBp.
struct LinBpOptions {
  LinBpVariant variant = LinBpVariant::kLinBp;
  /// Maximum number of update sweeps. The paper's timing experiments use a
  /// fixed count of 5; quality experiments iterate to convergence.
  int max_iterations = 100;
  /// Stop when the largest absolute belief change falls below this.
  double tolerance = 1e-12;
  /// Treat belief magnitudes larger than this as divergence.
  double divergence_threshold = 1e12;
  /// Where the per-sweep SpMM and belief updates run. Defaults to the
  /// process-wide context (LINBP_THREADS); results are bit-identical
  /// across thread counts.
  exec::ExecContext exec = exec::ExecContext::Default();
  /// Called after every completed sweep (cold solves and LinBpState warm
  /// re-solves alike). Null to disable. Independent of this hook, every
  /// sweep also records into the global obs registry (metrics + the
  /// "linbp_sweep" time series) and the active tracer.
  SweepObserver sweep_observer;
  /// RunLinBp only: estimate rho(M) of the update operator by power
  /// iteration before the solve (Lemma 8's exact convergence criterion)
  /// and surface it on the result's diagnostics. Costs ~hundreds of
  /// extra backend products, so it is opt-in. Beliefs are unaffected.
  /// LinBpState ignores it: its rho(M) is LinBpState::SpectralRadius(),
  /// computed on request.
  bool estimate_spectral_radius = false;
  /// Divergence early-abort: when the residual delta has risen for this
  /// many consecutive sweeps, exceeds the run's first delta, and the
  /// fitted contraction rate rho-hat is above 1, the solve stops with
  /// failed (and diverged) set and a diagnostic error instead of
  /// spinning to max_iterations. 0 disables the abort.
  int divergence_patience = 5;
  /// Storage precision of the belief matrices on the sweep hot path.
  /// kF64 (the default) is bit-identical to the pre-precision-seam
  /// solver. kF32 stores beliefs/residuals as float and runs the f32
  /// backend kernels — roughly half the memory traffic per sweep — while
  /// every delta norm, diagnostic fit, and spectral estimate still
  /// accumulates in fp64; the result's beliefs are widened back to fp64
  /// on exit. See src/la/precision.h for when f32 is safe.
  Precision precision = Precision::kF64;
  /// The sweep order (see SweepSchedule). The segmented default needs
  /// 35-55% fewer sweeps to a tolerance; kJacobi is the paper's
  /// iteration, for runs that reproduce it (fixed sweep counts, Lemma 8
  /// thresholds, the SQL implementation's iterates).
  SweepSchedule schedule = SweepSchedule::kSegmentedGaussSeidel;
};

/// Convergence diagnostics of one (re-)solve, fitted from the per-sweep
/// residual deltas. Purely observational: computed from the same sweep
/// statistics the solver already tracks, never from extra solver math.
struct ConvergenceDiagnostics {
  /// Empirical contraction rate rho-hat (la FitContractionRate over the
  /// trailing sweeps): the rate of the schedule that ran. Under kJacobi
  /// it asymptotically equals rho(M) of the update operator, the
  /// quantity Lemma 8 requires below 1. Under the segmented default it
  /// fits that schedule's faster rate, below rho(M) (0.26 against 0.90
  /// on Example 20's torus at eps 0.45). 0 when fewer than 2 usable
  /// deltas exist.
  double empirical_contraction = 0.0;
  /// Sweeps whose deltas entered the rho-hat fit.
  int fitted_sweeps = 0;
  /// Predicted further sweeps to reach options.tolerance at rho-hat
  /// geometric decay from the last delta. 0 when already converged, -1
  /// when unknown (no usable fit or rho-hat >= 1).
  double predicted_sweeps_to_tolerance = -1.0;
  /// rho(M) power-iteration estimate for the operator the sweeps iterate:
  /// RunLinBp's when options.estimate_spectral_radius was set, a
  /// LinBpState's cached SpectralRadius(), or the one a divergence abort
  /// computed for its error message; -1 when none was. Under kJacobi it
  /// and empirical_contraction agree within a few percent on a
  /// converging run; under the segmented schedule rho-hat is lower.
  double spectral_radius_estimate = -1.0;
};

/// Result of a LinBP run. Beliefs are residuals (rows sum to ~0).
struct LinBpResult {
  DenseMatrix beliefs;
  int iterations = 0;
  bool converged = false;
  bool diverged = false;
  /// A streamed backend failed mid-run (I/O error, shard checksum
  /// mismatch). `beliefs` then holds the last fully completed sweep —
  /// the failing sweep is never partially applied — and `error`
  /// describes the failure. Always false for in-memory backends.
  bool failed = false;
  std::string error;
  double last_delta = 0.0;
  /// Fitted convergence diagnostics of this run (see the struct docs).
  ConvergenceDiagnostics diagnostics;
};

/// Runs LinBP over any propagation backend with scaled residual coupling
/// `hhat` (k x k) and explicit residual beliefs `explicit_residuals`
/// (n x k; zero rows for unlabeled nodes). Edge weights are honored per
/// Sect. 5.2. Beliefs are bit-identical across backends and thread
/// counts (see src/engine/propagation_backend.h).
LinBpResult RunLinBp(const engine::PropagationBackend& backend,
                     const DenseMatrix& hhat,
                     const DenseMatrix& explicit_residuals,
                     const LinBpOptions& options = {});

/// RunLinBp on a resident graph (wraps engine::InMemoryBackend).
LinBpResult RunLinBp(const Graph& graph, const DenseMatrix& hhat,
                     const DenseMatrix& explicit_residuals,
                     const LinBpOptions& options = {});

/// The Hhat* = (I_k - Hhat^2)^-1 * Hhat modulation matrix of Lemma 6.
/// Requires I - Hhat^2 to be invertible (true for all entries << 1/k).
DenseMatrix ExactModulation(const DenseMatrix& hhat);

/// Convergence statistics of one belief sweep.
struct LinBpSweepStats {
  double delta = 0.0;      // max abs belief change
  double delta_l2 = 0.0;   // L2 norm of the belief change
  double magnitude = 0.0;  // max abs belief
};

/// Applies one Jacobi sweep in place: beliefs <- explicit_residuals +
/// propagated, tracking the sweep statistics. Chunked over `ctx`; rows
/// are chunk-owned and max-reductions are exact, so beliefs, delta and
/// magnitude are bit-identical across thread counts (delta_l2 is
/// deterministic for a fixed context). The unfused apply step: the
/// solvers fold it into the fused sweep (engine::BackendLinBpSweep),
/// and this is the per-layer reference that sweep is checked and timed
/// against.
LinBpSweepStats ApplyLinBpSweep(const exec::ExecContext& ctx,
                                const DenseMatrix& explicit_residuals,
                                const DenseMatrix& propagated,
                                DenseMatrix* beliefs);

namespace core_internal {
/// The solver a sweep loop reports as: LinBP sweeps record into
/// linbp_sweeps_total, linbp_rows_processed_total,
/// linbp_nnz_processed_total, linbp_sweep_seconds and the "linbp_sweep"
/// series and span; FaBP sweeps into their fabp_* counterparts.
enum class SweepFamily { kLinBp, kFabp };

/// Outcome of one RunSweepLoop call — LinBpResult minus the beliefs,
/// which the loop updates in place.
struct SweepLoopResult {
  int iterations = 0;
  bool converged = false;
  bool diverged = false;
  bool failed = false;
  std::string error;
  double last_delta = 0.0;
  ConvergenceDiagnostics diagnostics;
};

/// The sweep loop of LinBP and FaBP: one fused sweep
/// (engine::BackendLinBpSweep, in options.schedule's row order) of
///   B <- E + A*B*modulation - D*B*(*echo_modulation)
/// (no echo term when `echo_modulation` is null) per iteration until
/// convergence, divergence, failure, or options.max_iterations, with all
/// observability (metrics, time series, spans, observer, diagnostics
/// fit, divergence early-abort) attached under `family`'s names.
/// `spectral_hint` >= 0 is rho(M) of that operator, known up front
/// (RunLinBp's estimate, a LinBpState's cache) and reported on the
/// diagnostics; the loop itself runs power iteration only for a
/// divergence abort's message, and only without a hint. It ignores
/// options.estimate_spectral_radius. The loop swaps two belief buffers,
/// one of them `beliefs`, and allocates nothing per sweep; `beliefs` ends on
/// the last completed sweep and is never partially mutated by a failing
/// one. Used by RunLinBp, LinBpState::Solve and RunFabp.
SweepLoopResult RunSweepLoop(const engine::PropagationBackend& backend,
                             const DenseMatrix& modulation,
                             const DenseMatrix* echo_modulation,
                             const DenseMatrix& explicit_residuals,
                             const LinBpOptions& options, double spectral_hint,
                             SweepFamily family, DenseMatrix* beliefs);
}  // namespace core_internal

}  // namespace linbp

#endif  // LINBP_CORE_LINBP_H_
