// fgr command-line tool: run the estimation pipeline on any dataset the
// registry can resolve — a registered mimic name, a SNAP-style edge-list
// file, or a .fgrbin binary cache.
//
// Subcommands:
//   fgr_cli --dataset <name|path> [--labels seeds.txt] [--classes K]
//           [--f FRAC] [--scale S] [--seed N] [--restarts R] [--lmax L]
//           [--lambda X] [--out predicted.txt]
//       End-to-end: load the dataset, estimate the compatibility matrix
//       with DCEr, propagate labels with LinBP, report accuracy when the
//       ground truth is known, and optionally write the predicted labels.
//       Fully labeled sources (mimics, converted caches) expose only a
//       stratified --f fraction (default 1%) as seeds.
//
//   fgr_cli datasets list
//       Print every registered dataset (name, description, published size).
//
//   fgr_cli datasets convert <name|path> <out.fgrbin> [--labels file]
//           [--classes K] [--scale S] [--seed N]
//       Load any resolvable dataset and write it as a binary cache —
//       including labels and the gold matrix when known — so later runs
//       reload it in O(read).
//
//   fgr_cli generate <edges.txt> <labels.txt> --nodes N --edges M
//           --classes K [--skew H] [--seed S] [--powerlaw]
//       Write a planted-compatibility graph and its full ground truth.
//
//   fgr_cli estimate <name|edges.txt> <labels.txt> --classes K
//           [--restarts R] [--lmax L] [--lambda X] [--memory-budget MB]
//       Estimate and print the compatibility matrix. Labels use -1 for
//       unlabeled nodes. With --memory-budget the dataset must be a
//       .fgrbin cache; the CSR is then streamed block-row by block-row
//       under the budget instead of materialized (out-of-core estimation
//       for graphs larger than RAM).
//
//   fgr_cli label <name|edges.txt> <labels.txt> <out.txt> --classes K
//           [--restarts R] [--memory-budget MB]
//       Estimate + LinBP propagation; writes a fully labeled file. With
//       --memory-budget the dataset must be a .fgrbin cache; estimation
//       and propagation then both stream block-row under the budget
//       (out-of-core labeling — only the n×k beliefs stay resident), with
//       output byte-identical to the in-core path in serial runs.
//
//   fgr_cli serve [--port N] [--workers W] [--budget MB] [--preload ...]
//       Run the fgrd serving daemon in-process (same protocol and flags as
//       the standalone fgrd binary; see tools/fgrd.cc).
//
//   fgr_cli query estimate <dataset.fgrbin> [--restarts R] [--lmax L]
//           [--lambda X] [--dce-seed N] [--port P] [--host H]
//   fgr_cli query label <dataset.fgrbin> <out.txt> [--port P] [--host H]
//   fgr_cli query stats | datasets | metrics [--port P] [--host H]
//       Send one request to a running fgrd and print the result. estimate
//       prints the exact report the offline `estimate` subcommand prints
//       (the JSON carries full-precision doubles, so the matrices match
//       bit for bit); label writes the returned labels with WriteLabels,
//       byte-identical to the offline `label` output file.
//
// Every subcommand accepts --threads N, which pins the compute-kernel
// thread count; precedence is --threads > FGR_NUM_THREADS > hardware.
//
// Setting FGR_DATA_DIR redirects registered names (e.g. Pokec-Gender) to
// real downloaded files; see data/registry.h.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fgr/fgr.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fgr {
namespace cli {
namespace {

// Minimal --flag value parser over argv beyond the positional arguments.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  std::int64_t Int(const std::string& name, std::int64_t fallback) const {
    const std::string* raw = Find(name);
    return raw ? std::strtoll(raw->c_str(), nullptr, 10) : fallback;
  }
  double Double(const std::string& name, double fallback) const {
    const std::string* raw = Find(name);
    return raw ? std::strtod(raw->c_str(), nullptr) : fallback;
  }
  std::string Str(const std::string& name,
                  const std::string& fallback = "") const {
    const std::string* raw = Find(name);
    return raw ? *raw : fallback;
  }
  bool Bool(const std::string& name) const {
    for (const std::string& arg : args_) {
      if (arg == "--" + name) return true;
    }
    return false;
  }

 private:
  const std::string* Find(const std::string& name) const {
    const std::string key = "--" + name;
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == key) return &args_[i + 1];
    }
    return nullptr;
  }
  std::vector<std::string> args_;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "fgr_cli: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  fgr_cli --dataset <name|path> [--labels seeds] [--classes K]\n"
      "          [--f FRAC] [--scale S] [--seed N] [--restarts R]\n"
      "          [--lmax L] [--lambda X] [--out predicted]\n"
      "  fgr_cli datasets list\n"
      "  fgr_cli datasets convert <name|path> <out.fgrbin> [--labels file]\n"
      "          [--classes K] [--scale S] [--seed N]\n"
      "  fgr_cli generate <edges> <labels> --nodes N --edges M --classes K\n"
      "          [--skew H] [--seed S] [--powerlaw]\n"
      "  fgr_cli estimate <name|edges> <labels> --classes K [--restarts R]\n"
      "          [--lmax L] [--lambda X] [--memory-budget MB]\n"
      "  fgr_cli label <name|edges> <labels> <out> --classes K "
      "[--restarts R]\n"
      "          [--memory-budget MB]\n"
      "  fgr_cli serve [--port N] [--host H] [--workers W] [--budget MB]\n"
      "          [--streaming-budget MB] [--preload a.fgrbin,b] "
      "[--no-summaries]\n"
      "  fgr_cli query estimate <dataset.fgrbin> [--restarts R] [--lmax L]\n"
      "          [--lambda X] [--dce-seed N] [--port P] [--host H]\n"
      "  fgr_cli query label <dataset.fgrbin> <out> [--port P] [--host H]\n"
      "  fgr_cli query stats|datasets|metrics [--port P] [--host H]\n"
      "  fgr_cli kernels\n"
      "(any subcommand: --threads N pins the kernel thread count;\n"
      " precedence --threads > FGR_NUM_THREADS > hardware;\n"
      " FGR_KERNEL=scalar|avx2|avx512|auto forces the SIMD backend;\n"
      " --trace out.json writes a chrome-trace of the run (or FGR_TRACE);\n"
      " --timings prints a per-stage time breakdown after the command;\n"
      " FGR_LOG_LEVEL=debug|info|warn|error sets log verbosity)\n");
  return 2;
}

// Resolves and loads a dataset reference through the registry (names and
// file paths alike); `labels_path` (when non-empty) overrides the source's
// own labels, whatever kind of source resolved. Without `auto_cache`, a
// file path is read without writing a "<path>.fgrbin" cache beside it.
Result<LabeledGraph> LoadDataset(const std::string& reference,
                                 const std::string& labels_path,
                                 const Flags& flags, bool auto_cache = true) {
  LoadOptions options;
  options.scale = flags.Double("scale", 1.0);
  options.seed = static_cast<std::uint64_t>(flags.Int("seed", 42));
  options.num_classes = static_cast<ClassId>(flags.Int("classes", -1));
  FileSourceOptions file_options;
  file_options.auto_cache = false;
  std::error_code ec;
  auto source =
      auto_cache || !std::filesystem::is_regular_file(reference, ec)
          ? ResolveGraphSource(reference)
          : std::shared_ptr<const GraphSource>(std::make_shared<FileSource>(
                reference, reference, file_options));
  if (!source.ok()) return source.status();
  Result<LabeledGraph> loaded = source.value()->Load(options);
  if (!loaded.ok()) return loaded.status();
  if (!labels_path.empty()) {
    ClassId num_classes = options.num_classes;
    if (num_classes < 1 && loaded.value().has_labels()) {
      num_classes = loaded.value().labels.num_classes();
    }
    Result<Labeling> labels = ReadLabels(
        labels_path, loaded.value().graph.num_nodes(), num_classes);
    if (!labels.ok()) return labels.status();
    loaded.value().labels = std::move(labels).value();
  }
  return loaded;
}

struct Problem {
  LabeledGraph data;
  Labeling seeds;      // what the estimator sees
  bool truth_known = false;  // labels are the full ground truth
};

// With `sample_when_full` (the end-to-end runner), fully labeled sources
// expose only a stratified --f fraction as seeds so there is something left
// to predict; estimate/label take the label file exactly as given.
Result<Problem> MakeProblem(const std::string& reference,
                            const std::string& labels_path,
                            const Flags& flags, bool sample_when_full) {
  Result<LabeledGraph> loaded = LoadDataset(reference, labels_path, flags);
  if (!loaded.ok()) return loaded.status();
  Problem problem;
  problem.data = std::move(loaded).value();
  if (!problem.data.has_labels()) {
    return Status::FailedPrecondition(
        "dataset '" + reference +
        "' has no labels; pass --labels <file> with seed labels");
  }
  if (problem.data.labels.num_classes() < 2) {
    return Status::FailedPrecondition(
        "dataset '" + reference +
        "' resolves to fewer than 2 classes; pass --classes K");
  }
  const NodeId n = problem.data.graph.num_nodes();
  problem.truth_known = problem.data.labels.NumLabeled() == n;
  if (problem.truth_known && sample_when_full) {
    Rng rng(static_cast<std::uint64_t>(flags.Int("seed", 42)) + 1);
    problem.seeds = SampleStratifiedSeeds(problem.data.labels,
                                          flags.Double("f", 0.01), rng);
  } else {
    problem.seeds = problem.data.labels;
  }
  return problem;
}

DceOptions MakeDceOptions(const Flags& flags) {
  DceOptions options;
  options.restarts = static_cast<int>(flags.Int("restarts", 10));
  options.max_path_length = static_cast<int>(flags.Int("lmax", 5));
  options.lambda = flags.Double("lambda", 10.0);
  // --dce-seed pins the restart RNG, and `query` forwards the same flag
  // to the daemon, so served and offline runs stay reproducible against
  // each other for any seed. Deliberately not the generation --seed flag:
  // that one predates the serving layer with different semantics (and a
  // different default), and coupling them would silently change results
  // of pre-existing commands.
  options.seed = static_cast<std::uint64_t>(flags.Int("dce-seed", 7));
  return options;
}

// Shared by the in-core, streaming, and served `estimate` paths: the
// streaming-e2e and serve-e2e CI jobs diff their outputs bit for bit, so
// there is exactly one copy of these format strings. The labeled fraction
// is computed exactly as Labeling::LabeledFraction does, so a count-only
// caller (the query client) prints the same digits.
void PrintEstimateReport(std::int64_t num_nodes, std::int64_t num_edges,
                         std::int64_t num_labeled,
                         const EstimationResult& estimate) {
  const double fraction =
      num_nodes == 0 ? 0.0
                     : static_cast<double>(num_labeled) /
                           static_cast<double>(num_nodes);
  std::printf("graph: n=%lld m=%lld, %lld labeled (f=%.4f%%)\n",
              static_cast<long long>(num_nodes),
              static_cast<long long>(num_edges),
              static_cast<long long>(num_labeled), 100.0 * fraction);
  std::printf("estimated compatibility matrix "
              "(%.3fs summarization + %.3fs optimization, energy %.3g):\n%s\n",
              estimate.seconds_summarization, estimate.seconds_optimization,
              estimate.energy, estimate.h.ToString(4).c_str());
}

// Every CLI estimation path funnels through the unified fgr::Estimate
// router (fgr/estimate.h); the in-memory route cannot fail once graph and
// seeds are set.
EstimationResult Estimate(const Graph& graph, const Labeling& seeds,
                          const Flags& flags) {
  EstimateOptions options;
  options.dce = MakeDceOptions(flags);
  Result<EstimationResult> result =
      fgr::Estimate(DatasetRef::InMemory(graph, seeds), options);
  FGR_CHECK(result.ok()) << result.status().message();
  return std::move(result).value();
}

int RunEndToEnd(const Flags& flags) {
  const std::string reference = flags.Str("dataset");
  if (reference.empty()) return Usage();
  auto problem = MakeProblem(reference, flags.Str("labels"), flags,
                             /*sample_when_full=*/true);
  if (!problem.ok()) return Fail(problem.status().ToString());
  const Graph& graph = problem.value().data.graph;
  const Labeling& seeds = problem.value().seeds;

  std::printf("dataset %s: n=%lld m=%lld k=%d, %lld seed labels (f=%.4f%%)\n",
              problem.value().data.name.c_str(),
              static_cast<long long>(graph.num_nodes()),
              static_cast<long long>(graph.num_edges()),
              static_cast<int>(seeds.num_classes()),
              static_cast<long long>(seeds.NumLabeled()),
              100.0 * seeds.LabeledFraction());

  const EstimationResult estimate = Estimate(graph, seeds, flags);
  std::printf("estimated compatibility matrix "
              "(%.3fs summarization + %.3fs optimization):\n%s\n",
              estimate.seconds_summarization, estimate.seconds_optimization,
              estimate.h.ToString(4).c_str());
  if (problem.value().data.gold.has_value()) {
    std::printf("L2 distance to the known gold matrix: %.4f\n",
                FrobeniusDistance(estimate.h, *problem.value().data.gold));
  }

  const LinBpResult prop = RunLinBp(graph, seeds, estimate.h);
  const Labeling predicted = LabelsFromBeliefs(prop.beliefs, seeds);
  std::printf("LinBP: %d iterations\n", prop.iterations_run);
  if (problem.value().truth_known) {
    std::printf("accuracy vs ground truth (unlabeled nodes): %.4f\n",
                MacroAccuracy(problem.value().data.labels, predicted, seeds));
  }
  const std::string out_path = flags.Str("out");
  if (!out_path.empty()) {
    const Status status = WriteLabels(predicted, out_path);
    if (!status.ok()) return Fail(status.ToString());
    std::printf("wrote %lld predicted labels to %s\n",
                static_cast<long long>(predicted.num_nodes()),
                out_path.c_str());
  }
  return 0;
}

int RunDatasetsList() {
  Table table({"name", "n", "m", "k", "source"});
  for (const auto& source : DatasetRegistry::Global().List()) {
    const auto* mimic = dynamic_cast<const MimicSource*>(source.get());
    table.NewRow().Add(source->name());
    if (mimic != nullptr) {
      table.Add(mimic->spec().num_nodes)
          .Add(mimic->spec().num_edges)
          .Add(mimic->spec().num_classes);
    } else {
      table.Add("-").Add("-").Add("-");
    }
    table.Add(source->Describe());
  }
  table.Print("registered datasets (resolve with --dataset <name>; "
              "FGR_DATA_DIR overrides with real files)");
  return 0;
}

int RunDatasetsConvert(const std::string& reference,
                       const std::string& out_path, const Flags& flags) {
  // `out_path` is the cache; an auto-cache beside the input would write
  // the same CSR a second time.
  auto loaded = LoadDataset(reference, flags.Str("labels"), flags,
                            /*auto_cache=*/false);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const Status status = WriteFgrBin(loaded.value(), out_path);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("converted %s (n=%lld m=%lld%s%s) -> %s\n",
              loaded.value().name.c_str(),
              static_cast<long long>(loaded.value().graph.num_nodes()),
              static_cast<long long>(loaded.value().graph.num_edges()),
              loaded.value().has_labels() ? ", labels" : "",
              loaded.value().gold.has_value() ? ", gold" : "",
              out_path.c_str());
  return 0;
}

int RunGenerate(const std::string& edges_path, const std::string& labels_path,
                const Flags& flags) {
  PlantedGraphConfig config = MakeSkewConfig(
      flags.Int("nodes", 10000), /*avg_degree=*/10.0,
      flags.Int("classes", 3), flags.Double("skew", 3.0),
      flags.Bool("powerlaw") ? DegreeDistribution::kPowerLaw
                             : DegreeDistribution::kUniform);
  if (flags.Int("edges", 0) > 0) config.num_edges = flags.Int("edges", 0);
  Rng rng(static_cast<std::uint64_t>(flags.Int("seed", 42)));
  auto planted = GeneratePlantedGraph(config, rng);
  if (!planted.ok()) return Fail(planted.status().ToString());

  Status status = WriteEdgeList(planted.value().graph, edges_path);
  if (!status.ok()) return Fail(status.ToString());
  status = WriteLabels(planted.value().labels, labels_path);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("wrote %lld nodes / %lld edges to %s, labels to %s\n",
              static_cast<long long>(planted.value().graph.num_nodes()),
              static_cast<long long>(planted.value().graph.num_edges()),
              edges_path.c_str(), labels_path.c_str());
  std::printf("planted compatibilities:\n%s\n",
              config.compatibility.ToString(3).c_str());
  return 0;
}

// Out-of-core estimation: stream the .fgrbin cache's block-rows through the
// summarizer under the budget instead of materializing the CSR. The output
// matches the in-core path line for line (timings aside), so CI diffs the
// two directly.
int RunEstimateStreaming(const std::string& reference,
                         const std::string& labels_path, const Flags& flags,
                         std::int64_t budget_mb) {
  const std::string extension(kFgrBinExtension);
  if (reference.size() < extension.size() ||
      reference.compare(reference.size() - extension.size(),
                        extension.size(), extension) != 0) {
    return Fail("--memory-budget streams a .fgrbin cache; convert first: "
                "fgr_cli datasets convert " + reference + " <out" +
                extension + ">");
  }
  auto info = InspectFgrBin(reference);
  if (!info.ok()) return Fail(info.status().ToString());
  auto seeds = ReadLabels(labels_path, info.value().num_nodes,
                          static_cast<ClassId>(flags.Int("classes", -1)));
  if (!seeds.ok()) return Fail(seeds.status().ToString());

  EstimateOptions options;
  options.dce = MakeDceOptions(flags);
  options.memory_budget_bytes = budget_mb << 20;
  auto estimate =
      fgr::Estimate(DatasetRef::FgrBin(reference, &seeds.value()), options);
  if (!estimate.ok()) return Fail(estimate.status().ToString());

  PrintEstimateReport(info.value().num_nodes, info.value().nnz / 2,
                      seeds.value().NumLabeled(), estimate.value());
  return 0;
}

int RunEstimate(const std::string& reference, const std::string& labels_path,
                const Flags& flags) {
  // The legacy subcommands keep their explicit contract: a headerless seed
  // file cannot prove the class count (a class absent from the seeds would
  // silently shrink K), so --classes stays mandatory here.
  if (flags.Int("classes", 0) < 2) {
    return Fail("--classes K (K >= 2) is required");
  }
  const std::int64_t budget_mb = flags.Int("memory-budget", 0);
  if (budget_mb > 0) {
    return RunEstimateStreaming(reference, labels_path, flags, budget_mb);
  }
  auto problem = MakeProblem(reference, labels_path, flags,
                             /*sample_when_full=*/false);
  if (!problem.ok()) return Fail(problem.status().ToString());

  const Graph& graph = problem.value().data.graph;
  const EstimationResult estimate =
      Estimate(graph, problem.value().seeds, flags);
  PrintEstimateReport(graph.num_nodes(), graph.num_edges(),
                      problem.value().seeds.NumLabeled(), estimate);
  return 0;
}

// Out-of-core labeling: estimation *and* LinBP propagation stream the
// cache block-row under the budget — only the n×k belief state is
// resident. Serial output files are byte-identical to the in-core label
// path, so CI diffs the two directly.
int RunLabelStreaming(const std::string& reference,
                      const std::string& labels_path,
                      const std::string& out_path, const Flags& flags,
                      std::int64_t budget_mb) {
  const std::string extension(kFgrBinExtension);
  if (reference.size() < extension.size() ||
      reference.compare(reference.size() - extension.size(),
                        extension.size(), extension) != 0) {
    return Fail("--memory-budget streams a .fgrbin cache; convert first: "
                "fgr_cli datasets convert " + reference + " <out" +
                extension + ">");
  }
  auto info = InspectFgrBin(reference);
  if (!info.ok()) return Fail(info.status().ToString());
  auto seeds = ReadLabels(labels_path, info.value().num_nodes,
                          static_cast<ClassId>(flags.Int("classes", -1)));
  if (!seeds.ok()) return Fail(seeds.status().ToString());

  LabelOptions options;
  options.estimate.dce = MakeDceOptions(flags);
  options.estimate.memory_budget_bytes = budget_mb << 20;
  auto labeled =
      fgr::Label(DatasetRef::FgrBin(reference, &seeds.value()), options);
  if (!labeled.ok()) return Fail(labeled.status().ToString());

  const Status status = WriteLabels(labeled.value().labels, out_path);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("estimated H, propagated %d LinBP iterations, wrote %lld "
              "labels to %s\n",
              labeled.value().propagation.iterations_run,
              static_cast<long long>(labeled.value().labels.num_nodes()),
              out_path.c_str());
  return 0;
}

int RunLabel(const std::string& reference, const std::string& labels_path,
             const std::string& out_path, const Flags& flags) {
  if (flags.Int("classes", 0) < 2) {
    return Fail("--classes K (K >= 2) is required");
  }
  const std::int64_t budget_mb = flags.Int("memory-budget", 0);
  if (budget_mb > 0) {
    return RunLabelStreaming(reference, labels_path, out_path, flags,
                             budget_mb);
  }
  auto problem = MakeProblem(reference, labels_path, flags,
                             /*sample_when_full=*/false);
  if (!problem.ok()) return Fail(problem.status().ToString());

  const Graph& graph = problem.value().data.graph;
  const Labeling& seeds = problem.value().seeds;
  const EstimationResult estimate = Estimate(graph, seeds, flags);
  const LinBpResult prop = RunLinBp(graph, seeds, estimate.h);
  const Labeling predicted = LabelsFromBeliefs(prop.beliefs, seeds);
  const Status status = WriteLabels(predicted, out_path);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("estimated H, propagated %d LinBP iterations, wrote %lld "
              "labels to %s\n",
              prop.iterations_run,
              static_cast<long long>(predicted.num_nodes()), out_path.c_str());
  return 0;
}

// --- the fgrd client ------------------------------------------------------

// Sends `request` over a fresh connection (serve/protocol.h LineClient),
// parses the response, and fails on {"ok":false,...}.
Result<Json> QueryServer(const Flags& flags, const std::string& request) {
  const std::string host = flags.Str("host", "127.0.0.1");
  const int port = static_cast<int>(flags.Int("port", 7411));
  auto client = LineClient::Connect(host, port);
  if (!client.ok()) return client.status();
  auto raw = client.value().Exchange(request);
  if (!raw.ok()) return raw.status();
  auto parsed = ParseJson(raw.value());
  if (!parsed.ok()) {
    return Status::Internal("cannot parse fgrd response: " +
                            parsed.status().message());
  }
  const Json* ok = parsed.value().Find("ok");
  if (ok == nullptr || ok->type() != Json::Type::kBool) {
    return Status::Internal("fgrd response is missing \"ok\"");
  }
  if (!ok->bool_value()) {
    return Status(StatusCode::kInternal,
                  "fgrd: " + parsed.value().GetString("code", "Error") +
                      ": " + parsed.value().GetString("error", "unknown"));
  }
  return parsed;
}

// The estimate/label knobs of a query request, forwarded verbatim so the
// daemon's defaults (which equal this CLI's defaults) apply when omitted.
std::string BuildQueryRequest(const std::string& op,
                              const std::string& dataset,
                              const Flags& flags) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("op").Value(op);
  writer.Key("dataset").Value(dataset);
  writer.Key("restarts").Value(flags.Int("restarts", 10));
  writer.Key("lmax").Value(flags.Int("lmax", 5));
  writer.Key("lambda").Value(flags.Double("lambda", 10.0));
  writer.Key("seed").Value(flags.Int("dce-seed", 7));
  writer.EndObject();
  return writer.Take();
}

// Rebuilds the k×k H matrix from the response's nested "h" array; %.17g
// serialization makes this bit-exact.
Result<DenseMatrix> MatrixFromResponse(const Json& response) {
  const Json* h = response.Find("h");
  if (h == nullptr || h->type() != Json::Type::kArray || h->items().empty()) {
    return Status::Internal("fgrd response is missing \"h\"");
  }
  const std::int64_t k = static_cast<std::int64_t>(h->items().size());
  DenseMatrix matrix(k, k);
  for (std::int64_t i = 0; i < k; ++i) {
    const Json& row = h->items()[static_cast<std::size_t>(i)];
    if (row.type() != Json::Type::kArray ||
        static_cast<std::int64_t>(row.items().size()) != k) {
      return Status::Internal("fgrd response \"h\" is not square");
    }
    for (std::int64_t j = 0; j < k; ++j) {
      matrix(i, j) = row.items()[static_cast<std::size_t>(j)].number_value();
    }
  }
  return matrix;
}

int RunQueryEstimate(const std::string& dataset, const Flags& flags) {
  auto response =
      QueryServer(flags, BuildQueryRequest("estimate", dataset, flags));
  if (!response.ok()) return Fail(response.status().ToString());
  const Json& json = response.value();
  auto h = MatrixFromResponse(json);
  if (!h.ok()) return Fail(h.status().ToString());

  EstimationResult estimate;
  estimate.h = std::move(h).value();
  estimate.energy = json.GetNumber("energy", 0.0);
  estimate.seconds_summarization = json.GetNumber("seconds_summarization", 0.0);
  estimate.seconds_optimization = json.GetNumber("seconds_optimization", 0.0);
  // The cache provenance goes to stderr so stdout stays diffable against
  // the offline `estimate` report.
  std::fprintf(stderr, "fgrd: summary %s, %s\n",
               json.GetString("summary_source", "?").c_str(),
               json.Find("resident") != nullptr &&
                       json.Find("resident")->bool_value()
                   ? "resident"
                   : "streamed");
  PrintEstimateReport(json.GetInt("n", 0), json.GetInt("m", 0),
                      json.GetInt("labeled", 0), estimate);
  return 0;
}

int RunQueryLabel(const std::string& dataset, const std::string& out_path,
                  const Flags& flags) {
  auto response =
      QueryServer(flags, BuildQueryRequest("label", dataset, flags));
  if (!response.ok()) return Fail(response.status().ToString());
  const Json& json = response.value();
  const Json* labels = json.Find("labels");
  if (labels == nullptr || labels->type() != Json::Type::kArray) {
    return Fail("fgrd response is missing \"labels\"");
  }
  const ClassId num_classes =
      static_cast<ClassId>(json.GetInt("k", 0));
  if (num_classes < 1) return Fail("fgrd response is missing \"k\"");
  std::vector<ClassId> raw;
  raw.reserve(labels->items().size());
  for (const Json& value : labels->items()) {
    // Validate before Labeling::FromVector, whose range FGR_CHECK would
    // abort the client on a garbled or version-skewed response. Labels
    // must be integers — a 1.9 is a corrupt response, not class 1.
    const double entry = value.number_value();
    if (value.type() != Json::Type::kNumber || !(entry >= 0.0) ||
        entry >= static_cast<double>(num_classes) ||
        entry != std::floor(entry)) {
      return Fail("fgrd response contains a label outside [0, " +
                  std::to_string(num_classes) + ")");
    }
    raw.push_back(static_cast<ClassId>(entry));
  }
  const Labeling predicted = Labeling::FromVector(std::move(raw),
                                                  num_classes);
  const Status status = WriteLabels(predicted, out_path);
  if (!status.ok()) return Fail(status.ToString());
  std::fprintf(stderr, "fgrd: summary %s\n",
               json.GetString("summary_source", "?").c_str());
  std::printf("estimated H, propagated %d LinBP iterations, wrote %lld "
              "labels to %s\n",
              static_cast<int>(json.GetInt("linbp_iterations", 0)),
              static_cast<long long>(predicted.num_nodes()),
              out_path.c_str());
  return 0;
}

int RunQuery(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string op = argv[2];
  if (op == "estimate" && argc >= 4) {
    return RunQueryEstimate(argv[3], Flags(argc, argv, 4));
  }
  if (op == "label" && argc >= 5) {
    return RunQueryLabel(argv[3], argv[4], Flags(argc, argv, 5));
  }
  if (op == "stats" || op == "datasets" || op == "metrics") {
    const Flags flags(argc, argv, 3);
    auto response = QueryServer(flags, "{\"op\":\"" + op + "\"}");
    if (!response.ok()) return Fail(response.status().ToString());
    std::printf("%s\n", response.value().Dump().c_str());
    return 0;
  }
  return Usage();
}

int RunServe(const Flags& flags) {
  ServerOptions options;
  options.port = static_cast<int>(flags.Int("port", options.port));
  options.host = flags.Str("host", options.host);
  options.worker_threads =
      static_cast<int>(flags.Int("workers", options.worker_threads));
  // The same validation the fgrd binary enforces: without it an
  // out-of-range port would be silently truncated by the uint16 cast.
  if (options.port < 0 || options.port > 65535) {
    return Fail("--port must be in [0, 65535]");
  }
  if (options.worker_threads < 1) return Fail("--workers must be >= 1");
  // -1 = flag absent: --budget 0 is meaningful (no residency, stream
  // every estimate), exactly as the fgrd binary accepts it.
  const std::int64_t budget_mb = flags.Int("budget", -1);
  if (budget_mb >= 0) options.dataset_budget_bytes = budget_mb << 20;
  const std::int64_t streaming_mb = flags.Int("streaming-budget", -1);
  if (streaming_mb == 0) return Fail("--streaming-budget must be >= 1 MB");
  if (streaming_mb > 0) options.streaming_budget_bytes = streaming_mb << 20;
  options.persist_summaries = !flags.Bool("no-summaries");
  const std::vector<std::string> preload =
      SplitCommaList(flags.Str("preload"));
  const Status status = RunDaemon("fgr_cli serve", options, preload);
  if (!status.ok()) return Fail(status.ToString());
  return 0;
}

// Prints the dispatched kernel backend and which variants this build /
// machine can run — the first line is what CI publishes to the job summary.
int RunKernels() {
  std::fputs(kernels::DescribeKernels().c_str(), stdout);
  return 0;
}

// Prints the per-stage aggregate the tracer collected over the run. Only
// reached when --timings was passed (which records spans in memory even
// without --trace), so default stdout stays byte-stable for CI diffs.
void PrintStageTimings() {
  const std::vector<obs::StageTotal> totals = obs::StageTotals();
  if (totals.empty()) {
    std::printf("\n== stage timings ==\n(no spans recorded)\n");
    return;
  }
  Table table({"stage", "calls", "total_ms"});
  for (const obs::StageTotal& stage : totals) {
    table.NewRow()
        .Add(stage.name)
        .Add(stage.count)
        .Add(static_cast<double>(stage.total_ns) * 1e-6, 3);
  }
  table.Print("stage timings");
}

int RunCommand(int argc, char** argv) {
  const std::string command = argv[1];
  if (command.rfind("--", 0) == 0) {
    // No subcommand: the end-to-end path, e.g. `fgr_cli --dataset Cora`.
    return RunEndToEnd(Flags(argc, argv, 1));
  }
  if (command == "datasets" && argc >= 3) {
    const std::string action = argv[2];
    if (action == "list") return RunDatasetsList();
    if (action == "convert" && argc >= 5) {
      return RunDatasetsConvert(argv[3], argv[4], Flags(argc, argv, 5));
    }
    return Usage();
  }
  if (command == "generate" && argc >= 4) {
    return RunGenerate(argv[2], argv[3], Flags(argc, argv, 4));
  }
  if (command == "estimate" && argc >= 4) {
    return RunEstimate(argv[2], argv[3], Flags(argc, argv, 4));
  }
  if (command == "label" && argc >= 5) {
    return RunLabel(argv[2], argv[3], argv[4], Flags(argc, argv, 5));
  }
  if (command == "query") {
    return RunQuery(argc, argv);
  }
  if (command == "serve") {
    return RunServe(Flags(argc, argv, 2));
  }
  if (command == "kernels") {
    return RunKernels();
  }
  return Usage();
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  // Global flags, valid anywhere on the line for every subcommand.
  // --threads pins the kernel thread count (precedence: --threads >
  // FGR_NUM_THREADS > hardware). --trace/--timings turn the tracer on;
  // --timings records in memory only and prints the aggregate at exit.
  bool timings = false;
  obs::InitLogLevelFromEnv();
  obs::InitTracingFromEnv();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const long long threads = std::atoll(argv[i + 1]);
      if (threads < 1) return Fail("--threads must be >= 1");
      SetNumThreads(static_cast<int>(threads));
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      obs::EnableTracing(argv[i + 1]);  // flag wins over FGR_TRACE
    } else if (std::strcmp(argv[i], "--timings") == 0) {
      timings = true;
    }
  }
  if (timings && !obs::TracingEnabled()) obs::EnableTracing("");
  const int rc = RunCommand(argc, argv);
  if (timings) PrintStageTimings();
  return rc;
}

}  // namespace
}  // namespace cli
}  // namespace fgr

int main(int argc, char** argv) { return fgr::cli::Main(argc, argv); }
