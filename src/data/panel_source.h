// PanelSource: the adjacency matrix W as a rewindable sequence of row
// panels.
//
// Everything the pipeline computes over W reads it strictly block-row —
// each output row needs one row of W plus the dense n×k state:
//   * the summarization recurrence N(ℓ) = W N(ℓ−1) − … (Alg. 4.4), one
//     pass per ℓ (ComputeGraphStatistics, core/path_stats.h);
//   * the power iteration for ρ(W), one pass per multiply
//     (SpectralRadius, matrix/spectral.h);
//   * the LinBP iteration F ← X + ε·(W F)H', one pass per iteration
//     (RunLinBp, prop/linbp.h).
// Each of them is written once, as passes over a PanelSource; where W
// lives is the source's business:
//   * ResidentPanelSource — one whole-matrix CsrPanelView (a SparseMatrix
//     in memory or an mmap'd .fgrbin), so in-core is the one-panel case;
//   * OpenStreamedPanelSource — a .fgrbin read block-row under a memory
//     budget (BlockRowReader), with panels read ahead on a producer thread
//     (PrefetchingPanelReader) unless prefetch is off.
//
// Equivalence contract: every pass hands out panels that exactly tile
// [0, n) in ascending row order, and the kernels write each output row in
// the same serial order whatever the panel shape. Serial results over any
// source are therefore bit-identical by construction; threaded runs agree
// to the reassociation of sharded reductions, exactly as in-core.

#ifndef FGR_DATA_PANEL_SOURCE_H_
#define FGR_DATA_PANEL_SOURCE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "data/block_row_reader.h"
#include "graph/labels.h"
#include "matrix/sparse.h"
#include "util/status.h"

namespace fgr {

class PanelSource {
 public:
  using PanelFn = std::function<void(const CsrPanelView& panel)>;

  PanelSource() = default;
  PanelSource(const PanelSource&) = delete;
  PanelSource& operator=(const PanelSource&) = delete;
  virtual ~PanelSource() = default;

  virtual std::int64_t num_nodes() const = 0;

  // True when W is read from disk on every pass (names the trace spans).
  virtual bool streamed() const = 0;

  // One full pass over W from row 0: calls `fn` on every panel in
  // ascending, exactly-tiling row order. Passes repeat as often as asked.
  // A corrupt block read mid-stream stops the pass with the reader's error.
  virtual Status ForEachPanel(const PanelFn& fn) = 0;
};

// W already in memory: every pass is the one whole-matrix view. The view's
// storage must outlive the source.
class ResidentPanelSource final : public PanelSource {
 public:
  explicit ResidentPanelSource(const CsrPanelView& whole);

  std::int64_t num_nodes() const override { return whole_.rows(); }
  bool streamed() const override { return false; }
  Status ForEachPanel(const PanelFn& fn) override;

 private:
  CsrPanelView whole_;
};

// Streams the .fgrbin cache at `path` block-row under
// `options.memory_budget_bytes` (or `options.rows_per_panel`). Panels are
// prefetched on a producer thread when `options.prefetch` is set and the
// environment does not say FGR_PREFETCH=0; the panels, and so the results,
// are identical either way.
Result<std::unique_ptr<PanelSource>> OpenStreamedPanelSource(
    const std::string& path, const BlockRowReaderOptions& options);

// InvalidArgument unless `seeds` labels exactly the source's nodes.
Status CheckSeedsMatch(const PanelSource& source, const Labeling& seeds);

}  // namespace fgr

#endif  // FGR_DATA_PANEL_SOURCE_H_
