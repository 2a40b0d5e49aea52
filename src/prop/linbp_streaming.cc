#include "prop/linbp_streaming.h"

#include <memory>

#include "data/panel_source.h"

namespace fgr {

Result<LinBpResult> PropagateLinBPStreaming(
    const std::string& path, const Labeling& seeds, const DenseMatrix& h,
    const LinBpOptions& options,
    const BlockRowReaderOptions& reader_options) {
  Result<std::unique_ptr<PanelSource>> source =
      OpenStreamedPanelSource(path, reader_options);
  if (!source.ok()) return source.status();
  return RunLinBp(*source.value(), seeds, h, options);
}

}  // namespace fgr
