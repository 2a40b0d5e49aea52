// Out-of-core compatibility estimation: stream a .fgrbin graph larger than
// RAM block-row by block-row through the factorized summarizer.
//
// The paper's factorization already shrinks the estimation state to k×k
// sketches; the only RAM-scale object left in the pipeline was the CSR
// itself. The ℓ-recurrence consumes W strictly row by row, so
// ComputeGraphStatistics runs over a streamed PanelSource
// (data/panel_source.h) in ℓmax sequential passes: resident memory is the
// compact state (one-hot X, three rolling n×k recurrence buffers, the
// degree vector) plus the reader's panel buffers — W never materializes.
// Serial streamed results are bit-identical to the in-core path (same
// kernel, same operation order); threaded runs agree to floating-point
// reassociation, exactly like the in-core parallel backend.

#ifndef FGR_DATA_STREAMING_ESTIMATION_H_
#define FGR_DATA_STREAMING_ESTIMATION_H_

#include <string>

#include "core/dce.h"
#include "core/path_stats.h"
#include "data/block_row_reader.h"
#include "graph/labels.h"
#include "util/status.h"

namespace fgr {

// Streams the ℓ-recurrence over the cache at `path` and returns the same
// GraphStatistics ComputeGraphStatistics produces in-core. `seeds` must
// match the cached graph's node count.
Result<GraphStatistics> ComputeGraphStatisticsStreaming(
    const std::string& path, const Labeling& seeds, int max_length,
    PathType path_type = PathType::kNonBacktracking,
    NormalizationVariant variant = NormalizationVariant::kRowStochastic,
    const BlockRowReaderOptions& reader_options = {});

// End-to-end DCE/DCEr over a .fgrbin cache without materializing the CSR:
// streamed summarization, then the graph-size-independent optimization.
Result<EstimationResult> EstimateDceStreaming(
    const std::string& path, const Labeling& seeds,
    const DceOptions& options = {},
    const BlockRowReaderOptions& reader_options = {});

}  // namespace fgr

#endif  // FGR_DATA_STREAMING_ESTIMATION_H_
