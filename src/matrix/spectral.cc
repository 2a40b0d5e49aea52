#include "matrix/spectral.h"

#include <vector>

#include "data/panel_source.h"
#include "util/check.h"

namespace fgr {

Result<double> SpectralRadius(PanelSource& source,
                              const PowerIterationOptions& options) {
  Status status = Status::Ok();
  const double rho = PowerIterate(
      source.num_nodes(),
      [&](const std::vector<double>& x, std::vector<double>* y) {
        y->assign(x.size(), 0.0);
        if (!status.ok()) return;
        status = source.ForEachPanel(
            [&](const CsrPanelView& panel) { panel.MultiplyVectorInto(x, y); });
      },
      options);
  if (!status.ok()) return status;
  return rho;
}

double SpectralRadius(const SparseMatrix& matrix,
                      const PowerIterationOptions& options) {
  ResidentPanelSource source(matrix.View());
  return SpectralRadius(source, options).value();
}

double SpectralRadius(const DenseMatrix& matrix,
                      const PowerIterationOptions& options) {
  FGR_CHECK_EQ(matrix.rows(), matrix.cols());
  const auto n = matrix.rows();
  return PowerIterate(
      n,
      [&matrix, n](const std::vector<double>& x, std::vector<double>* y) {
        y->assign(static_cast<std::size_t>(n), 0.0);
        for (DenseMatrix::Index i = 0; i < n; ++i) {
          const double* row = matrix.RowPtr(i);
          double sum = 0.0;
          for (DenseMatrix::Index j = 0; j < n; ++j) {
            sum += row[j] * x[static_cast<std::size_t>(j)];
          }
          (*y)[static_cast<std::size_t>(i)] = sum;
        }
      },
      options);
}

}  // namespace fgr
