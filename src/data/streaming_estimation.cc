#include "data/streaming_estimation.h"

#include <memory>

#include "data/panel_source.h"

namespace fgr {

Result<GraphStatistics> ComputeGraphStatisticsStreaming(
    const std::string& path, const Labeling& seeds, int max_length,
    PathType path_type, NormalizationVariant variant,
    const BlockRowReaderOptions& reader_options) {
  Result<std::unique_ptr<PanelSource>> source =
      OpenStreamedPanelSource(path, reader_options);
  if (!source.ok()) return source.status();
  return ComputeGraphStatistics(*source.value(), seeds, max_length,
                                path_type, variant);
}

// EstimateDceStreaming lives in fgr/estimate.cc as a wrapper over
// fgr::Estimate, keeping both estimation routes behind the one router.

}  // namespace fgr
