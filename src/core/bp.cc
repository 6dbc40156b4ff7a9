#include "src/core/bp.h"

#include <cmath>

#include "src/util/check.h"

namespace linbp {
namespace {

// Normalizes the k entries at `msg` to sum to k (Eq. 3). Returns false if
// the entries sum to a non-positive or non-finite value.
bool NormalizeMessage(double* msg, std::int64_t k) {
  double sum = 0.0;
  for (std::int64_t i = 0; i < k; ++i) sum += msg[i];
  if (!(sum > 0.0) || !std::isfinite(sum)) return false;
  const double scale = static_cast<double>(k) / sum;
  for (std::int64_t i = 0; i < k; ++i) msg[i] *= scale;
  return true;
}

}  // namespace

BpResult RunBp(const Graph& graph, const DenseMatrix& h,
               const DenseMatrix& priors, const BpOptions& options) {
  const std::int64_t n = graph.num_nodes();
  const std::int64_t k = h.rows();
  LINBP_CHECK(h.cols() == k && k >= 2);
  LINBP_CHECK(priors.rows() == n && priors.cols() == k);
  for (const double v : h.data()) LINBP_CHECK_MSG(v >= 0.0, "H must be >= 0");

  const SparseMatrix& adjacency = graph.adjacency();
  const auto& row_ptr = adjacency.row_ptr();
  const std::vector<std::int64_t> reverse = ReverseEdgeIndex(adjacency);
  const std::int64_t num_edges = adjacency.NumNonZeros();

  // msg[e * k + i]: message along directed edge slot e (row s, col t reads
  // as the message s -> t), initialized to the uninformative all-ones.
  std::vector<double> msg(num_edges * k, 1.0);
  std::vector<double> next(num_edges * k, 0.0);

  BpResult result;
  // Scratch: prefix/suffix in-message products for one node.
  std::vector<double> prefix;
  std::vector<double> suffix;

  for (int it = 1; it <= options.max_iterations; ++it) {
    double delta = 0.0;
    for (std::int64_t s = 0; s < n; ++s) {
      const std::int64_t begin = row_ptr[s];
      const std::int64_t end = row_ptr[s + 1];
      const std::int64_t degree = end - begin;
      if (degree == 0) continue;
      // In-messages of s are msg[reverse[e]] for out-slots e.
      // prefix[j*k + i] = prod of in-messages 0..j-1 (class i), and
      // suffix[j*k + i] = prod of in-messages j+1..degree-1.
      prefix.assign((degree + 1) * k, 1.0);
      suffix.assign((degree + 1) * k, 1.0);
      for (std::int64_t j = 0; j < degree; ++j) {
        const double* in = &msg[reverse[begin + j] * k];
        for (std::int64_t i = 0; i < k; ++i) {
          prefix[(j + 1) * k + i] = prefix[j * k + i] * in[i];
        }
      }
      for (std::int64_t j = degree - 1; j >= 0; --j) {
        const double* in = &msg[reverse[begin + j] * k];
        for (std::int64_t i = 0; i < k; ++i) {
          suffix[j * k + i] = suffix[(j + 1) * k + i] * in[i];
        }
      }
      for (std::int64_t j = 0; j < degree; ++j) {
        const std::int64_t e = begin + j;
        double* out = &next[e * k];
        // q(j') = prior(s, j') * prod_{u != t} m_{u->s}(j'),
        // out(i) = sum_j' H(j', i) q(j')   (Eq. 3).
        for (std::int64_t i = 0; i < k; ++i) out[i] = 0.0;
        for (std::int64_t jj = 0; jj < k; ++jj) {
          const double q = priors.At(s, jj) * prefix[j * k + jj] *
                           suffix[(j + 1) * k + jj];
          if (q == 0.0) continue;
          for (std::int64_t i = 0; i < k; ++i) out[i] += h.At(jj, i) * q;
        }
        if (!NormalizeMessage(out, k)) {
          result.diverged = true;
          result.iterations = it;
          result.beliefs = DenseMatrix(n, k);
          return result;
        }
        for (std::int64_t i = 0; i < k; ++i) {
          delta = std::max(delta, std::abs(out[i] - msg[e * k + i]));
        }
      }
    }
    msg.swap(next);
    result.iterations = it;
    result.last_delta = delta;
    if (!std::isfinite(delta) || delta > options.divergence_threshold) {
      result.diverged = true;
      break;
    }
    if (delta <= options.tolerance) {
      result.converged = true;
      break;
    }
  }

  if (options.keep_messages) result.messages = msg;

  // Posterior beliefs (Eq. 1): b_s ~ prior_s x prod of in-messages.
  result.beliefs = DenseMatrix(n, k);
  for (std::int64_t s = 0; s < n; ++s) {
    double sum = 0.0;
    for (std::int64_t i = 0; i < k; ++i) {
      double value = priors.At(s, i);
      for (std::int64_t e = row_ptr[s]; e < row_ptr[s + 1]; ++e) {
        value *= msg[reverse[e] * k + i];
      }
      result.beliefs.At(s, i) = value;
      sum += value;
    }
    if (sum > 0.0 && std::isfinite(sum)) {
      for (std::int64_t i = 0; i < k; ++i) result.beliefs.At(s, i) /= sum;
    } else {
      // Degenerate (all-zero) row: fall back to the uniform distribution.
      for (std::int64_t i = 0; i < k; ++i) {
        result.beliefs.At(s, i) = 1.0 / static_cast<double>(k);
      }
    }
  }
  return result;
}

DenseMatrix ExactMarginals(const Graph& graph, const DenseMatrix& h,
                           const DenseMatrix& priors) {
  const std::int64_t n = graph.num_nodes();
  const std::int64_t k = h.rows();
  LINBP_CHECK(priors.rows() == n && priors.cols() == k);
  LINBP_CHECK_MSG(n <= 12, "brute-force enumeration is k^n");
  double total = 0.0;
  DenseMatrix marginals(n, k);
  std::vector<std::int64_t> state(n, 0);
  const std::vector<Edge> edges = graph.edges();
  while (true) {
    // Unnormalized probability of this joint state.
    double p = 1.0;
    for (std::int64_t s = 0; s < n; ++s) p *= priors.At(s, state[s]);
    if (p != 0.0) {
      for (const Edge& e : edges) p *= h.At(state[e.u], state[e.v]);
    }
    total += p;
    for (std::int64_t s = 0; s < n; ++s) marginals.At(s, state[s]) += p;
    // Advance the mixed-radix counter.
    std::int64_t pos = 0;
    while (pos < n && ++state[pos] == k) {
      state[pos] = 0;
      ++pos;
    }
    if (pos == n) break;
  }
  LINBP_CHECK_MSG(total > 0.0, "all states have zero probability");
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t i = 0; i < k; ++i) marginals.At(s, i) /= total;
  }
  return marginals;
}

}  // namespace linbp
