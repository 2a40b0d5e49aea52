// Block-row streaming over the .fgrbin binary CSR cache.
//
// The factorized summarization consumes the adjacency matrix W strictly
// block-row by block-row (Algorithm 4.4 gathers from the dense n×k state,
// never from other rows of W), so W — the part of the problem that does not
// fit in RAM — never needs to be resident. BlockRowReader turns a .fgrbin
// cache into a sequence of row panels under a configurable memory budget;
// each panel is a CsrPanelView the SpMM and summarization kernels accept
// without copying.
//
// Validation: Open() runs the same header validation as ReadFgrBin
// (InspectFgrBin) and then makes one cheap pass over the row_ptr section to
// check it (monotone, spanning [0, nnz]) and fix the panel boundaries —
// greedily as many whole rows per panel as the budget allows, always at
// least one. Every NextPanel() re-validates its slices (row_ptr matching
// the boundaries fixed at Open, in-range strictly-ascending columns, no
// diagonal entries, positive finite weights), so a block corrupted on disk
// fails loudly mid-stream instead of feeding garbage to the recurrence.
// Symmetry is the one Graph::FromAdjacency invariant a row-local check
// cannot see; WriteFgrBin only writes symmetric matrices, and an
// asymmetric corruption skews estimates but cannot cause UB.

#ifndef FGR_DATA_BLOCK_ROW_READER_H_
#define FGR_DATA_BLOCK_ROW_READER_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "data/fgrbin.h"
#include "matrix/sparse.h"
#include "util/status.h"

namespace fgr {

struct BlockRowReaderOptions {
  // Upper bound on the bytes one resident panel may hold (row_ptr slice +
  // col_idx + the materialized values buffer). At least one row is always
  // read, so a single hub row wider than the budget still streams — with
  // that row's memory. This bounds one panel, not the pipeline: with
  // prefetch on, the ring holds depth + 1 (by default 3) panel buffers of
  // up to this size each.
  std::int64_t memory_budget_bytes = std::int64_t{64} << 20;
  // > 0: exactly this many rows per panel (the last panel takes the
  // remainder), overriding the budget. Tests sweep panel shapes with this.
  std::int64_t rows_per_panel = 0;
  // Read panels on a producer thread ahead of compute (the async panel
  // pipeline). Identical results either way — prefetching only moves where
  // the read happens, never the panel order or contents. `FGR_PREFETCH=0`
  // in the environment overrides this to off as an escape hatch.
  bool prefetch = true;
};

// One resident row panel. The vectors are reused across NextPanel() calls,
// so a full pass allocates O(1) times.
struct CsrPanel {
  std::int64_t first_row = 0;
  std::vector<SparseMatrix::Index> row_ptr;  // local, rebased to 0
  std::vector<SparseMatrix::Index> col_idx;
  std::vector<double> values;  // filled with 1.0 when the file omits them

  std::int64_t rows() const {
    return static_cast<std::int64_t>(row_ptr.size()) - 1;
  }
  std::int64_t nnz() const { return row_ptr.empty() ? 0 : row_ptr.back(); }

  // View over this panel's storage for an n-column (n-node) matrix.
  CsrPanelView View(std::int64_t num_cols) const {
    return CsrPanelView(first_row, rows(), num_cols, row_ptr.data(),
                        col_idx.data(), values.data());
  }
};

class BlockRowReader {
 public:
  static Result<BlockRowReader> Open(const std::string& path,
                                     BlockRowReaderOptions options = {});

  BlockRowReader(BlockRowReader&&) = default;
  BlockRowReader& operator=(BlockRowReader&&) = default;

  const FgrBinInfo& info() const { return info_; }
  std::int64_t num_nodes() const { return info_.num_nodes; }
  std::int64_t nnz() const { return info_.nnz; }
  std::int64_t num_panels() const {
    return static_cast<std::int64_t>(panel_rows_.size()) - 1;
  }

  bool Done() const { return next_panel_ >= num_panels(); }

  // Reads the next panel in ascending row order; panels exactly tile
  // [0, num_nodes). Fails with InvalidArgument on any corrupt block.
  Status NextPanel(CsrPanel* panel);

  // Restarts the pass; the summarization recurrence runs one pass per ℓ.
  Status Rewind();

 private:
  BlockRowReader() = default;

  std::string path_;
  FgrBinInfo info_;
  std::ifstream in_;
  // Panel boundaries fixed at Open: panel p covers rows
  // [panel_rows_[p], panel_rows_[p + 1]) with nnz range
  // [panel_ptrs_[p], panel_ptrs_[p + 1]). 16 bytes per panel — the only
  // per-panel state that persists across the pass.
  std::vector<std::int64_t> panel_rows_;
  std::vector<std::int64_t> panel_ptrs_;
  std::int64_t next_panel_ = 0;
};

}  // namespace fgr

#endif  // FGR_DATA_BLOCK_ROW_READER_H_
