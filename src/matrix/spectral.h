// Spectral-radius estimation by power iteration.
//
// LinBP's convergence condition (Eq. 2 in the paper) requires the spectral
// radii of both the adjacency matrix W (n×n, sparse, symmetric) and the
// centered compatibility matrix H̃ (k×k, dense, symmetric). For symmetric
// matrices the spectral radius equals the largest absolute eigenvalue, which
// power iteration recovers from a random start. The paper uses PyAMG's
// approximate routine for the same purpose; power iteration computes the
// identical quantity.

#ifndef FGR_MATRIX_SPECTRAL_H_
#define FGR_MATRIX_SPECTRAL_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "matrix/dense.h"
#include "matrix/sparse.h"
#include "util/check.h"
#include "util/random.h"
#include "util/status.h"

namespace fgr {

class PanelSource;

struct PowerIterationOptions {
  int max_iterations = 200;
  double tolerance = 1e-7;
  std::uint64_t seed = 12345;
};

namespace spectral_internal {
inline double Norm2(const std::vector<double>& x) {
  double sum = 0.0;
  for (double v : x) sum += v * v;
  return std::sqrt(sum);
}
}  // namespace spectral_internal

// Shared power-iteration loop over an opaque y = A·x callback: the sparse
// (panel-source) and dense SpectralRadius overloads both run it.
template <typename MultiplyFn>
double PowerIterate(std::int64_t n, MultiplyFn&& multiply,
                    const PowerIterationOptions& options = {}) {
  using spectral_internal::Norm2;
  if (n == 0) return 0.0;
  Rng rng(options.seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);
  double norm = Norm2(x);
  FGR_CHECK_GT(norm, 0.0);
  for (double& v : x) v /= norm;

  std::vector<double> y;
  double lambda = 0.0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    multiply(x, &y);
    const double y_norm = Norm2(y);
    if (y_norm == 0.0) return 0.0;  // x in the null space: radius estimate 0
    // Rayleigh-style estimate |λ| = ‖Ax‖ for normalized x; valid for the
    // symmetric matrices this routine is documented for.
    const double next = y_norm;
    for (std::size_t i = 0; i < y.size(); ++i) x[i] = y[i] / y_norm;
    if (std::fabs(next - lambda) <= options.tolerance * std::fabs(next)) {
      return next;
    }
    lambda = next;
  }
  return lambda;
}

// Spectral radius of the symmetric adjacency matrix behind `source`
// (data/panel_source.h): each multiply is one pass tiling y from the
// panels' disjoint row ranges, so a streamed ρ(W) is bit-identical to the
// in-core one. Fails only when a streamed panel is corrupt. Returns 0 for
// empty matrices.
Result<double> SpectralRadius(PanelSource& source,
                              const PowerIterationOptions& options = {});

// Same, over an in-memory matrix (the one-panel source).
double SpectralRadius(const SparseMatrix& matrix,
                      const PowerIterationOptions& options = {});

// Spectral radius of a symmetric dense matrix (intended for k×k H).
double SpectralRadius(const DenseMatrix& matrix,
                      const PowerIterationOptions& options = {});

}  // namespace fgr

#endif  // FGR_MATRIX_SPECTRAL_H_
