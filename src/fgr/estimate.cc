#include "fgr/estimate.h"

#include <memory>
#include <optional>
#include <utility>

#include "core/path_stats.h"
#include "data/fgrbin.h"
#include "data/panel_source.h"
#include "util/check.h"

namespace fgr {
namespace {

// A dataset opened for the pipeline: W as a panel source, plus the seeds.
// Filled in place, never moved, because `source` and `seeds` may point
// into `loaded` and `embedded`.
struct OpenedDataset {
  std::optional<LabeledGraph> loaded;  // an in-core .fgrbin
  Labeling embedded;                   // the cache's own label section
  std::unique_ptr<PanelSource> source;
  const Labeling* seeds = nullptr;
};

Status Open(const DatasetRef& dataset, const EstimateOptions& options,
            OpenedDataset* opened) {
  if (dataset.graph != nullptr && !dataset.path.empty()) {
    return Status::InvalidArgument(
        "DatasetRef names both an in-memory graph and a path; set one");
  }
  if (dataset.graph != nullptr) {
    if (dataset.seeds == nullptr) {
      return Status::InvalidArgument(
          "in-memory estimation needs a seed labeling");
    }
    if (options.memory_budget_bytes.has_value()) {
      return Status::InvalidArgument(
          "memory_budget_bytes applies to .fgrbin-backed datasets; an "
          "in-memory graph is already resident");
    }
    opened->source = std::make_unique<ResidentPanelSource>(
        dataset.graph->adjacency().View());
    opened->seeds = dataset.seeds;
    return Status::Ok();
  }
  if (dataset.path.empty()) {
    return Status::InvalidArgument(
        "empty DatasetRef: set graph + seeds or a .fgrbin path");
  }

  if (options.memory_budget_bytes.has_value()) {
    // Out-of-core: stream block-row panels under the budget.
    BlockRowReaderOptions reader = options.reader;
    reader.memory_budget_bytes = *options.memory_budget_bytes;
    Result<std::unique_ptr<PanelSource>> streamed =
        OpenStreamedPanelSource(dataset.path, reader);
    if (!streamed.ok()) return streamed.status();
    opened->source = std::move(streamed).value();
    if (dataset.seeds == nullptr) {
      Result<Labeling> embedded = ReadFgrBinLabels(dataset.path);
      if (!embedded.ok()) return embedded.status();
      opened->embedded = std::move(embedded).value();
    }
  } else {
    // In-core: load the cache whole.
    Result<LabeledGraph> loaded = ReadFgrBin(dataset.path);
    if (!loaded.ok()) return loaded.status();
    opened->loaded = std::move(loaded).value();
    opened->source = std::make_unique<ResidentPanelSource>(
        opened->loaded->graph.adjacency().View());
    opened->embedded = std::move(opened->loaded->labels);
  }
  // Seed from the embedded labels unless the caller supplied their own.
  opened->seeds = dataset.seeds != nullptr ? dataset.seeds : &opened->embedded;
  if (dataset.seeds == nullptr && opened->embedded.NumLabeled() == 0) {
    return Status::FailedPrecondition(
        dataset.path + ": cache has no label section to seed from");
  }
  return Status::Ok();
}

Result<EstimationResult> EstimateOpened(OpenedDataset& opened,
                                        const DceOptions& options) {
  Result<GraphStatistics> stats = ComputeGraphStatistics(
      *opened.source, *opened.seeds, options.max_path_length,
      options.path_type, options.variant);
  if (!stats.ok()) return stats.status();
  return EstimateDceFromStatistics(stats.value(),
                                   opened.seeds->num_classes(), options);
}

}  // namespace

Result<EstimationResult> Estimate(const DatasetRef& dataset,
                                  const EstimateOptions& options) {
  OpenedDataset opened;
  FGR_RETURN_IF_ERROR(Open(dataset, options, &opened));
  return EstimateOpened(opened, options.dce);
}

Result<LabelResult> Label(const DatasetRef& dataset,
                          const LabelOptions& options) {
  OpenedDataset opened;
  FGR_RETURN_IF_ERROR(Open(dataset, options.estimate, &opened));
  Result<EstimationResult> estimate =
      EstimateOpened(opened, options.estimate.dce);
  if (!estimate.ok()) return estimate.status();
  LabelResult result;
  result.estimate = std::move(estimate).value();
  Result<LinBpResult> propagated = RunLinBp(
      *opened.source, *opened.seeds, result.estimate.h, options.linbp);
  if (!propagated.ok()) return propagated.status();
  result.propagation = std::move(propagated).value();
  result.labels = LabelsFromBeliefs(result.propagation.beliefs, *opened.seeds);
  return result;
}

// Legacy entry points, kept as thin wrappers so the whole codebase funnels
// through the one router above. Declared in core/dce.h and
// data/streaming_estimation.h respectively.

EstimationResult EstimateDce(const Graph& graph, const Labeling& seeds,
                             const DceOptions& options) {
  EstimateOptions unified;
  unified.dce = options;
  Result<EstimationResult> result =
      Estimate(DatasetRef::InMemory(graph, seeds), unified);
  // The in-memory route has no failure mode once graph + seeds are set.
  FGR_CHECK(result.ok()) << result.status().message();
  return std::move(result).value();
}

Result<EstimationResult> EstimateDceStreaming(
    const std::string& path, const Labeling& seeds, const DceOptions& options,
    const BlockRowReaderOptions& reader_options) {
  EstimateOptions unified;
  unified.dce = options;
  unified.reader = reader_options;
  unified.memory_budget_bytes = reader_options.memory_budget_bytes;
  return Estimate(DatasetRef::FgrBin(path, &seeds), unified);
}

}  // namespace fgr
