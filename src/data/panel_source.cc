#include "data/panel_source.h"

#include <optional>
#include <utility>

#include "data/prefetching_panel_reader.h"
#include "util/check.h"
#include "util/env.h"

namespace fgr {
namespace {

// options.prefetch, forced off by the FGR_PREFETCH=0 escape hatch.
bool StreamingPrefetchEnabled(const BlockRowReaderOptions& options) {
  return options.prefetch && EnvInt64("FGR_PREFETCH", 1) != 0;
}

// One pass over either reader. Both hand out the same panels in the same
// order, so prefetching cannot perturb a result.
template <typename Reader>
Status Pass(Reader& reader, bool rewind, CsrPanel& panel,
            const PanelSource::PanelFn& fn) {
  Status status = rewind ? reader.Rewind() : Status::Ok();
  while (status.ok() && !reader.Done()) {
    status = reader.NextPanel(&panel);
    if (status.ok()) fn(panel.View(reader.num_nodes()));
  }
  return status;
}

class StreamedPanelSource final : public PanelSource {
 public:
  StreamedPanelSource(BlockRowReader reader, bool prefetch)
      : num_nodes_(reader.num_nodes()) {
    if (prefetch) {
      prefetched_ = std::make_unique<PrefetchingPanelReader>(std::move(reader));
    } else {
      sync_.emplace(std::move(reader));
    }
  }

  std::int64_t num_nodes() const override { return num_nodes_; }
  bool streamed() const override { return true; }

  Status ForEachPanel(const PanelFn& fn) override {
    // A fresh reader already stands at row 0, and the prefetcher is
    // reading ahead from there: rewinding would discard those reads.
    const bool rewind = !fresh_;
    fresh_ = false;
    return prefetched_ != nullptr ? Pass(*prefetched_, rewind, panel_, fn)
                                  : Pass(*sync_, rewind, panel_, fn);
  }

 private:
  std::int64_t num_nodes_;
  bool fresh_ = true;
  std::optional<BlockRowReader> sync_;
  std::unique_ptr<PrefetchingPanelReader> prefetched_;
  CsrPanel panel_;  // persists across passes so its buffers recycle
};

}  // namespace

ResidentPanelSource::ResidentPanelSource(const CsrPanelView& whole)
    : whole_(whole) {
  FGR_CHECK_EQ(whole.first_row(), 0) << "a resident source is the whole W";
  FGR_CHECK_EQ(whole.rows(), whole.cols());
}

Status ResidentPanelSource::ForEachPanel(const PanelFn& fn) {
  fn(whole_);
  return Status::Ok();
}

Result<std::unique_ptr<PanelSource>> OpenStreamedPanelSource(
    const std::string& path, const BlockRowReaderOptions& options) {
  Result<BlockRowReader> opened = BlockRowReader::Open(path, options);
  if (!opened.ok()) return opened.status();
  return std::unique_ptr<PanelSource>(std::make_unique<StreamedPanelSource>(
      std::move(opened).value(), StreamingPrefetchEnabled(options)));
}

Status CheckSeedsMatch(const PanelSource& source, const Labeling& seeds) {
  if (seeds.num_nodes() == source.num_nodes()) return Status::Ok();
  return Status::InvalidArgument(
      "graph has " + std::to_string(source.num_nodes()) +
      " nodes but the seed labeling has " +
      std::to_string(seeds.num_nodes()));
}

}  // namespace fgr
