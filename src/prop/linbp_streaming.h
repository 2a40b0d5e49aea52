// Out-of-core LinBP: block-row propagation over a streamed .fgrbin cache.
//
// The LinBP iteration F ← X + ε·(W F)H' consumes W strictly block-row, like
// the summarization recurrence, so RunLinBp runs over a streamed
// PanelSource (data/panel_source.h) exactly as over an in-memory one:
// resident memory is the n×k belief state (X, F, F_next, the W·F scratch:
// 4·n·k doubles) plus the reader's panel buffers; W itself never
// materializes. Beliefs are bit-identical to the in-core path at any thread
// count.

#ifndef FGR_PROP_LINBP_STREAMING_H_
#define FGR_PROP_LINBP_STREAMING_H_

#include <string>

#include "data/block_row_reader.h"
#include "matrix/dense.h"
#include "graph/labels.h"
#include "prop/linbp.h"
#include "util/status.h"

namespace fgr {

// Runs LinBP from `seeds` with compatibility matrix `h` over the .fgrbin
// cache at `path` without materializing the CSR: RunLinBp over
// OpenStreamedPanelSource(path, reader_options). Fails loudly — with the
// reader's panel-boundary error — if the file mutates mid-stream.
Result<LinBpResult> PropagateLinBPStreaming(
    const std::string& path, const Labeling& seeds, const DenseMatrix& h,
    const LinBpOptions& options = {},
    const BlockRowReaderOptions& reader_options = {});

}  // namespace fgr

#endif  // FGR_PROP_LINBP_STREAMING_H_
