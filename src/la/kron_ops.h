// Implicit linear operators over vectorized belief matrices.
//
// The closed form of LinBP (Prop. 7) involves the nk x nk matrix
// M = Hhat (x) A - Hhat^2 (x) D. Materializing it is infeasible for large
// graphs, but every algorithm only needs M * vec(B), which by Roth's column
// lemma equals vec(A*B*Hhat - D*B*Hhat^2) -- one sparse-dense product plus
// two tiny dense products. These operators power the exact convergence
// criteria (Lemma 8) and the Jacobi closed-form solver at scale.

#ifndef LINBP_LA_KRON_OPS_H_
#define LINBP_LA_KRON_OPS_H_

#include <cstdint>
#include <vector>

#include "src/exec/exec_context.h"
#include "src/la/dense_matrix.h"
#include "src/la/sparse_matrix.h"

namespace linbp {

/// Abstract square linear operator y = M x.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  /// Dimension of the (square) operator.
  virtual std::int64_t dim() const = 0;

  /// Computes y = M x. `y` is resized as needed; `x` and `y` must not alias.
  virtual void Apply(const std::vector<double>& x,
                     std::vector<double>* y) const = 0;
};

/// Dense operator wrapper (tests and tiny systems).
class DenseOperator final : public LinearOperator {
 public:
  explicit DenseOperator(DenseMatrix m);
  std::int64_t dim() const override { return m_.rows(); }
  void Apply(const std::vector<double>& x,
             std::vector<double>* y) const override;

 private:
  DenseMatrix m_;
};

/// One LinBP propagation step applied at the matrix level:
///   returns A*B*Hhat        - D*B*Hhat2   if `with_echo`
///   returns A*B*Hhat                      otherwise,
/// where D = diag(degrees). `hhat2` must be Hhat^2 (precomputed by callers
/// so repeated steps do not recompute it). Runs the fused row kernel
/// (LinBpRowsT, propagate only) over the matrix's nnz-balanced row blocks
/// on `ctx`: rows are block-owned, so the result is bit-identical across
/// thread counts, and to the unfused MultiplyDense, Multiply,
/// SubtractDegreeScaledEcho chain.
DenseMatrix LinBpPropagate(const SparseMatrix& adjacency,
                           const std::vector<double>& degrees,
                           const DenseMatrix& hhat, const DenseMatrix& hhat2,
                           const DenseMatrix& beliefs, bool with_echo,
                           const exec::ExecContext& ctx);
inline DenseMatrix LinBpPropagate(const SparseMatrix& adjacency,
                                  const std::vector<double>& degrees,
                                  const DenseMatrix& hhat,
                                  const DenseMatrix& hhat2,
                                  const DenseMatrix& beliefs, bool with_echo) {
  return LinBpPropagate(adjacency, degrees, hhat, hhat2, beliefs, with_echo,
                        exec::ExecContext::Default());
}

/// The unfused echo-cancellation step: subtracts degrees[s] * echo(s, c)
/// from propagated(s, c) in place, chunked over `ctx` with per-row
/// ownership (bit-identical across thread counts). The solvers run the
/// fused kernel instead; this is the per-layer reference the fused
/// sweep is checked and timed against.
void SubtractDegreeScaledEcho(const std::vector<double>& degrees,
                              const DenseMatrix& echo,
                              const exec::ExecContext& ctx,
                              DenseMatrix* propagated);

/// The implicit operator vec(B) -> vec(A*B*Hhat [- D*B*Hhat^2]).
/// Vectorization is column-major (class-major), matching the paper's vec().
class LinBpOperator final : public LinearOperator {
 public:
  /// `adjacency` must be square (n x n); `degrees` are the weighted degrees
  /// d_s = sum of squared edge weights; `hhat` is the k x k residual
  /// coupling matrix. With `with_echo` false the echo-cancellation term is
  /// dropped (LinBP*). Apply() runs its SpMM on `ctx`.
  LinBpOperator(const SparseMatrix* adjacency, std::vector<double> degrees,
                DenseMatrix hhat, bool with_echo,
                exec::ExecContext ctx = exec::ExecContext::Default());

  std::int64_t dim() const override;
  void Apply(const std::vector<double>& x,
             std::vector<double>* y) const override;

  const DenseMatrix& hhat() const { return hhat_; }
  const DenseMatrix& hhat2() const { return hhat2_; }

 private:
  const SparseMatrix* adjacency_;  // not owned
  std::vector<double> degrees_;
  DenseMatrix hhat_;
  DenseMatrix hhat2_;
  bool with_echo_;
  exec::ExecContext ctx_;
};

/// Converts between the column-major vec() layout of length n*k and the
/// n x k dense belief matrix.
DenseMatrix UnvectorizeBeliefs(const std::vector<double>& v, std::int64_t n,
                               std::int64_t k);
std::vector<double> VectorizeBeliefs(const DenseMatrix& b);

}  // namespace linbp

#endif  // LINBP_LA_KRON_OPS_H_
