// Linearized Belief Propagation (LinBP).
//
// Implements the paper's propagation substrate:
//   F ← X + ε · W F H'          (Eq. 1 / Eq. 4)
// where H' is the (optionally centered) compatibility matrix scaled by ε so
// the iteration converges: ε = s / (ρ(W) · ρ(H̃)) for a convergence parameter
// s < 1 (Eq. 2). Theorem 3.1 shows the final *labels* are identical whether
// X and H are centered or not, so by default we propagate the uncentered
// frequency-distribution form. The echo-cancellation variant
//   F ← X + W F Ĥ − D F Ĥ²
// from the original LinBP derivation is available for the ablation bench;
// the paper explicitly drops it.

#ifndef FGR_PROP_LINBP_H_
#define FGR_PROP_LINBP_H_

#include <cstdint>

#include "graph/graph.h"
#include "graph/labels.h"
#include "matrix/dense.h"
#include "util/status.h"

namespace fgr {

class PanelSource;

struct LinBpOptions {
  // Fixed iteration count; the paper's experiments use 10.
  int iterations = 10;
  // Convergence parameter s in (0, 1): ε = s / (ρ(W)·ρ(H̃)).
  double convergence_scale = 0.5;
  // Propagate the centered residual matrix H̃ instead of H. Labels are
  // identical by Theorem 3.1; beliefs differ (Fig. 10).
  bool centered = false;
  // Include the echo-cancellation term (ablation only).
  bool echo_cancellation = false;
  // Stop early when max-abs belief change falls below this (0 disables).
  double early_stop_tolerance = 0.0;
  // Precomputed spectral radius of W (0 = compute internally). Callers that
  // propagate repeatedly on the same graph (Holdout, benches) should compute
  // it once with SpectralRadius() and pass it here.
  double rho_w_hint = 0.0;
};

struct LinBpResult {
  DenseMatrix beliefs;       // final F (n×k)
  double epsilon = 0.0;      // applied scaling
  double rho_w = 0.0;        // spectral radius of W
  double rho_h = 0.0;        // spectral radius of H̃
  int iterations_run = 0;
};

// Runs LinBP from the seed labeling with compatibility matrix `h` (k×k,
// symmetric; typically doubly stochastic but any constant-shifted variant
// labels identically) over the adjacency matrix behind `source`
// (data/panel_source.h). ρ(W) and every iteration are one pass each; each
// panel fills its rows of W·F and folds them into the next F, which reads
// only the previous F — so panel order and shape cannot change a value, and
// streamed beliefs are bit-identical to in-core at any thread count. Only
// the n×k belief state is resident beyond the source's own panels. Fails on
// shape mismatches and corrupt streamed panels.
Result<LinBpResult> RunLinBp(PanelSource& source, const Labeling& seeds,
                             const DenseMatrix& h,
                             const LinBpOptions& options = {});

// Same, over an in-memory graph.
LinBpResult RunLinBp(const Graph& graph, const Labeling& seeds,
                     const DenseMatrix& h, const LinBpOptions& options = {});

// Same, over a whole-matrix adjacency view plus its weighted degrees (used
// by the echo term instead of a row-sum pass), e.g. an mmap'd .fgrbin.
LinBpResult RunLinBp(const CsrPanelView& adjacency,
                     const std::vector<double>& degrees,
                     const Labeling& seeds, const DenseMatrix& h,
                     const LinBpOptions& options = {});

// Argmax labeling from a belief matrix; seeds keep their given labels.
Labeling LabelsFromBeliefs(const DenseMatrix& beliefs, const Labeling& seeds);

}  // namespace fgr

#endif  // FGR_PROP_LINBP_H_
