// Backend-generalized LinBP steps and propagation operators.
//
// BackendLinBpSweep is the solvers' sweep (LinBP's, and FaBP's at k = 1):
// one pass of the fused row kernel (LinBpRowsT in src/la/sparse_matrix.h)
// over a backend's row blocks, each fanned out over nnz-balanced ranges
// of its rows (exec::RowPartition::ForContext), Jacobi or segmented
// Gauss-Seidel. It lives here once for both backends and both
// precisions.
// BackendLinBpPropagate runs the same pass with the propagate-only
// epilogue, mirroring kron_ops' LinBpPropagate with the SparseMatrix
// replaced by a PropagationBackend, and the LinearOperator adapters let
// the iterative solvers in src/la (power iteration, Jacobi) run on any
// backend. For an InMemoryBackend every operator here is bit-for-bit
// its kron_ops counterpart.

#ifndef LINBP_ENGINE_BACKEND_OPS_H_
#define LINBP_ENGINE_BACKEND_OPS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/engine/propagation_backend.h"
#include "src/exec/exec_context.h"
#include "src/la/dense_matrix.h"
#include "src/la/dense_matrix_f32.h"
#include "src/la/kron_ops.h"
#include "src/la/sparse_matrix.h"

namespace linbp {
namespace engine {

/// One fused LinBP sweep over `backend`:
///   *next = E + A*B*hhat - D*B*(*hhat2)   (no echo term if hhat2 is null)
/// with B = `beliefs`, E = `explicit_residuals` and D = diag(weighted
/// degrees), in a single pass over the row blocks with no n x k
/// temporaries. `*next` must already be n x k and must not alias
/// `beliefs`.
///
/// `segments` >= 1 splits the rows into that many fixed segments
/// [g*n/segments, (g+1)*n/segments), set by n alone (empty ones are
/// skipped). Row s of segment g reads this sweep's *next row for every
/// neighbour below g's start and B for every other neighbour, its own
/// echo term included: Jacobi inside a segment, Gauss-Seidel across
/// segments. Each block visit runs its rows as pieces (block intersected
/// with segment), in row order, one fan-out per piece. The blocks arrive
/// in row order, so a neighbour below the segment is final before it is
/// read, whichever block holds it: the result depends on n and
/// `segments`, never on the block split or the thread count. segments = 1
/// is the Jacobi sweep, bit-identical to MultiplyDense,
/// DenseMatrix::Multiply twice, SubtractDegreeScaledEcho and
/// ApplyLinBpSweep in a row.
///
/// On success *stats holds the sweep's change statistics: delta and
/// magnitude are identical for every backend and context; delta_sq
/// depends on the block split, so it is deterministic for a fixed
/// backend and context. Returns false and fills *error on a stream
/// failure; *next is then partly written and `beliefs` untouched.
bool BackendLinBpSweep(const PropagationBackend& backend,
                       const DenseMatrix& hhat, const DenseMatrix* hhat2,
                       const DenseMatrix& beliefs,
                       const DenseMatrix& explicit_residuals,
                       std::int64_t segments, const exec::ExecContext& ctx,
                       DenseMatrix* next, LinBpRowStats* stats,
                       std::string* error);

/// The Precision::kF32 sweep: beliefs stored and CSR values read as
/// float, the coupling matrices and every dense product in fp64, each
/// stored element rounded once (see LinBpRowsT). Same contract.
bool BackendLinBpSweep(const PropagationBackend& backend,
                       const DenseMatrix& hhat, const DenseMatrix* hhat2,
                       const DenseMatrixF32& beliefs,
                       const DenseMatrixF32& explicit_residuals,
                       std::int64_t segments, const exec::ExecContext& ctx,
                       DenseMatrixF32* next, LinBpRowStats* stats,
                       std::string* error);

/// One LinBP propagation step over `backend`:
///   *out = A*B*Hhat - D*B*Hhat2   if `with_echo`
///   *out = A*B*Hhat               otherwise,
/// where D = diag(weighted degrees) and `hhat2` must be Hhat^2: the
/// fused sweep with its propagate-only epilogue. Resizes *out, which
/// must not alias `beliefs`. Returns false and fills *error on a stream
/// failure (*out unspecified).
bool BackendLinBpPropagate(const PropagationBackend& backend,
                           const DenseMatrix& hhat, const DenseMatrix& hhat2,
                           const DenseMatrix& beliefs, bool with_echo,
                           const exec::ExecContext& ctx, DenseMatrix* out,
                           std::string* error);

/// The adjacency matrix of a backend as a LinearOperator (for power
/// iteration). Apply() throws StreamError on a backend failure.
class BackendAdjacencyOperator final : public LinearOperator {
 public:
  BackendAdjacencyOperator(const PropagationBackend* backend,
                           exec::ExecContext ctx = exec::ExecContext::Default());
  std::int64_t dim() const override;
  void Apply(const std::vector<double>& x,
             std::vector<double>* y) const override;

 private:
  const PropagationBackend* backend_;  // not owned
  exec::ExecContext ctx_;
};

/// The implicit operator vec(B) -> vec(A*B*M - D*B*M2) over a backend,
/// for any modulation pair M = `modulation`, M2 = *`echo_modulation` (no
/// echo term when null): (Hhat, Hhat^2) for LinBP, (Hhat*, Hhat Hhat*)
/// for the exact variant, ([c1], [c2]) for FaBP. It is the propagation
/// each RunSweepLoop sweep iterates. Apply() throws StreamError on a
/// backend failure.
class BackendLinBpOperator final : public LinearOperator {
 public:
  BackendLinBpOperator(const PropagationBackend* backend,
                       DenseMatrix modulation,
                       const DenseMatrix* echo_modulation,
                       exec::ExecContext ctx = exec::ExecContext::Default());
  std::int64_t dim() const override;
  void Apply(const std::vector<double>& x,
             std::vector<double>* y) const override;

 private:
  const PropagationBackend* backend_;  // not owned
  DenseMatrix modulation_;
  std::optional<DenseMatrix> echo_modulation_;
  exec::ExecContext ctx_;
};

}  // namespace engine
}  // namespace linbp

#endif  // LINBP_ENGINE_BACKEND_OPS_H_
