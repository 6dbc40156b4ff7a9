#include "src/la/norms.h"

#include <algorithm>
#include <cmath>

namespace linbp {

double FrobeniusNorm(const DenseMatrix& a) {
  double sum = 0.0;
  for (const double v : a.data()) sum += v * v;
  return std::sqrt(sum);
}

double FrobeniusNorm(const SparseMatrix& a) {
  double sum = 0.0;
  for (std::int64_t e = 0; e < a.NumNonZeros(); ++e) {
    sum += a.weight(e) * a.weight(e);
  }
  return std::sqrt(sum);
}

double Induced1Norm(const DenseMatrix& a) {
  double max_sum = 0.0;
  for (std::int64_t c = 0; c < a.cols(); ++c) {
    double sum = 0.0;
    for (std::int64_t r = 0; r < a.rows(); ++r) sum += std::abs(a.At(r, c));
    max_sum = std::max(max_sum, sum);
  }
  return max_sum;
}

double Induced1Norm(const SparseMatrix& a) {
  const std::vector<double> sums = a.AbsColSums();
  return sums.empty() ? 0.0 : *std::max_element(sums.begin(), sums.end());
}

double InducedInfNorm(const DenseMatrix& a) {
  double max_sum = 0.0;
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    double sum = 0.0;
    for (std::int64_t c = 0; c < a.cols(); ++c) sum += std::abs(a.At(r, c));
    max_sum = std::max(max_sum, sum);
  }
  return max_sum;
}

double InducedInfNorm(const SparseMatrix& a) {
  const std::vector<double> sums = a.AbsRowSums();
  return sums.empty() ? 0.0 : *std::max_element(sums.begin(), sums.end());
}

double MinNorm(const DenseMatrix& a) {
  return std::min({FrobeniusNorm(a), Induced1Norm(a), InducedInfNorm(a)});
}

double MinNorm(const SparseMatrix& a) {
  return std::min({FrobeniusNorm(a), Induced1Norm(a), InducedInfNorm(a)});
}

}  // namespace linbp
