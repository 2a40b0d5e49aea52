// pb_tool: the benchmark's own helper program.
//
//   pb_tool gen   --out DIR --nodes N --edges M --seed-frac F --seed S
//       Writes a planted power-law graph made by this file's own generator
//       (not src/gen): DIR/graph.edges (text edge list), DIR/seeds.txt (the
//       stratified seed labels), DIR/truth.txt (every node's class),
//       DIR/planted.txt (the planted k×k compatibility matrix) and
//       DIR/meta.json. The classes and edges come from kGraphSeed, so one
//       size always gives the same graph; --seed draws which nodes are
//       seeds. The program under test only ever sees graph.edges and
//       seeds.txt.
//
//   pb_tool trace --dir DIR --fgrbin PATH --threads T --budget-mb B
//                 --spans OUT.json [--ref-only]
//       Calls the library's public functions in the order the CLI pipeline
//       does (edge list -> .fgrbin -> load -> summarize -> optimize ->
//       spectral radius -> LinBP -> label file), records one span per call
//       with its work counts, and writes the spans to OUT.json when it
//       ends. Prints one JSON line of per-layer figures. It also writes the
//       reference answers DIR/ref.json and DIR/ref.labels that the end-to-end
//       checks compare the CLI and the daemon against. --ref-only runs just
//       the calls the reference answers need.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/dce.h"
#include "core/path_stats.h"
#include "data/block_row_reader.h"
#include "data/fgrbin.h"
#include "data/mmap_fgrbin.h"
#include "data/streaming_estimation.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/labels.h"
#include "matrix/dense.h"
#include "matrix/sparse.h"
#include "matrix/spectral.h"
#include "prop/linbp.h"
#include "prop/linbp_streaming.h"
#include "util/parallel.h"

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

struct Flags {
  std::map<std::string, std::string> values;

  std::string Str(const std::string& key, const std::string& fallback = "") const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  std::int64_t Int(const std::string& key, std::int64_t fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : std::atoll(it->second.c_str());
  }
  double Double(const std::string& key, double fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : std::atof(it->second.c_str());
  }
  bool Has(const std::string& key) const { return values.count(key) > 0; }
};

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const bool has_value = i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
    flags.values.insert_or_assign(arg, std::string(has_value ? argv[++i] : "1"));
  }
  return flags;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "pb_tool: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(fgr::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void Check(const fgr::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

// ---------------------------------------------------------------------------
// Input generation (self-contained: its own RNG and sampler, so a change to
// the program's generator cannot change what the benchmark measures).
// ---------------------------------------------------------------------------

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  std::uint64_t Next() {  // splitmix64
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[Below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

// Symmetric and doubly stochastic. Every relabeling of the classes moves it
// by at least 0.55 in Frobenius norm and the uniform matrix is 0.90 away,
// so a permuted or uniform estimate cannot pass for it.
constexpr int kPlantedK = 5;
constexpr double kPlantedH[kPlantedK][kPlantedK] = {
    {0.06, 0.55, 0.05, 0.02, 0.32},
    {0.55, 0.30, 0.03, 0.02, 0.10},
    {0.05, 0.03, 0.52, 0.37, 0.03},
    {0.02, 0.02, 0.37, 0.26, 0.33},
    {0.32, 0.10, 0.03, 0.33, 0.22}};
// Exponent of the power law over node degree propensities: rank^-kAlpha.
constexpr double kAlpha = 0.5;
// Seed of the classes and edges. The graph does not vary with --seed: the
// passes SpectralRadius needs to converge (part of every `label`) ranged
// from 23 to 37 over eight graphs of the offline size drawn from other
// seeds, and from 53 to 83 over ten of the streamed size, which alone
// spread the label time of one run to the next by more than the host did.
constexpr std::uint64_t kGraphSeed = 1;

// Walker's alias table: draws an index with probability proportional to
// its weight in O(1).
class AliasTable {
 public:
  explicit AliasTable(const std::vector<double>& weights)
      : prob_(weights.size()), alias_(weights.size()) {
    const std::size_t n = weights.size();
    double total = 0.0;
    for (double w : weights) total += w;
    std::vector<double> scaled(n);
    std::vector<std::size_t> small, large;
    for (std::size_t i = 0; i < n; ++i) {
      scaled[i] = weights[i] * static_cast<double>(n) / total;
      (scaled[i] < 1.0 ? small : large).push_back(i);
    }
    while (!small.empty() && !large.empty()) {
      const std::size_t s = small.back(), l = large.back();
      small.pop_back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] -= 1.0 - scaled[s];
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (std::size_t i : large) prob_[i] = 1.0, alias_[i] = i;
    for (std::size_t i : small) prob_[i] = 1.0, alias_[i] = i;
  }
  std::size_t Draw(Rng& rng) const {
    const std::size_t i = rng.Below(prob_.size());
    return rng.Uniform() < prob_[i] ? i : alias_[i];
  }

 private:
  std::vector<double> prob_;
  std::vector<std::size_t> alias_;
};

class TextOut {
 public:
  explicit TextOut(const std::string& path) : file_(std::fopen(path.c_str(), "wb")) {
    if (file_ == nullptr) Die("cannot write " + path);
    buffer_.reserve(kFlush + 64);
  }
  ~TextOut() {
    Flush();
    std::fclose(file_);
  }
  TextOut& Str(const std::string& text) {
    buffer_ += text;
    MaybeFlush();
    return *this;
  }
  TextOut& Int(std::int64_t value) {
    char digits[24];
    int len = 0;
    if (value < 0) {
      buffer_ += '-';
      value = -value;
    }
    do {
      digits[len++] = static_cast<char>('0' + value % 10);
      value /= 10;
    } while (value > 0);
    while (len > 0) buffer_ += digits[--len];
    return *this;
  }
  TextOut& Char(char c) {
    buffer_ += c;
    MaybeFlush();
    return *this;
  }

 private:
  static constexpr std::size_t kFlush = 1 << 20;
  void MaybeFlush() {
    if (buffer_.size() >= kFlush) Flush();
  }
  void Flush() {
    if (!buffer_.empty()) std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
    buffer_.clear();
  }
  std::FILE* file_;
  std::string buffer_;
};

void WriteLabelFile(const std::string& path, std::int64_t n, int k,
                    const std::vector<std::int64_t>& nodes,
                    const std::vector<int>& classes) {
  TextOut out(path);
  out.Str("# fgr labels: ").Int(n).Str(" nodes, ").Int(k).Str(" classes\n");
  for (std::int64_t node : nodes) {
    out.Int(node).Char(' ').Int(classes[static_cast<std::size_t>(node)]).Char('\n');
  }
}

int RunGen(const Flags& flags) {
  const std::string dir = flags.Str("out");
  const std::int64_t n = flags.Int("nodes", 0);
  const std::int64_t m = flags.Int("edges", 0);
  const int k = kPlantedK;
  const double seed_frac = flags.Double("seed-frac", 0.01);
  if (dir.empty() || n < 2 || m < 1 || seed_frac <= 0 || m > n * (n - 1) / 4) {
    Die("gen: need --out DIR --nodes N>=2 --edges M (M <= n(n-1)/4) --seed-frac F>0");
  }
  fs::create_directories(dir);
  Rng rng(kGraphSeed);

  // Classes: uniform at random. Degree propensities: a power law
  // (rank^-kAlpha) over a random ranking of the nodes.
  std::vector<int> cls(static_cast<std::size_t>(n));
  for (auto& c : cls) c = static_cast<int>(rng.Below(static_cast<std::uint64_t>(k)));
  std::vector<std::int64_t> rank(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) rank[static_cast<std::size_t>(i)] = i;
  rng.Shuffle(rank);
  std::vector<double> weight(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    weight[static_cast<std::size_t>(i)] =
        std::pow(static_cast<double>(rank[static_cast<std::size_t>(i)] + 1), -kAlpha);
  }
  std::vector<std::vector<std::int64_t>> members(static_cast<std::size_t>(k));
  std::vector<std::vector<double>> member_weights(static_cast<std::size_t>(k));
  for (std::int64_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(cls[static_cast<std::size_t>(i)]);
    members[c].push_back(i);
    member_weights[c].push_back(weight[static_cast<std::size_t>(i)]);
  }
  const AliasTable all_nodes(weight);
  std::vector<AliasTable> in_class, partner_class;
  for (int c = 0; c < k; ++c) {
    in_class.emplace_back(member_weights[static_cast<std::size_t>(c)]);
    partner_class.emplace_back(std::vector<double>(kPlantedH[c], kPlantedH[c] + k));
  }

  // Edges: u by propensity, then v's class from row H[c(u)], then v by
  // propensity within that class. Self-loops are dropped and duplicates
  // collapsed; batches continue until exactly m distinct edges exist.
  const auto un = static_cast<std::uint64_t>(n);
  std::vector<std::uint64_t> keys;
  keys.reserve(static_cast<std::size_t>(m + m / 8 + 1024));
  while (static_cast<std::int64_t>(keys.size()) < m) {
    const std::int64_t want =
        (m - static_cast<std::int64_t>(keys.size())) * 11 / 10 + 1024;
    for (std::int64_t e = 0; e < want; ++e) {
      const std::size_t u = all_nodes.Draw(rng);
      const std::size_t cv = partner_class[static_cast<std::size_t>(cls[u])].Draw(rng);
      const std::size_t vi = in_class[cv].Draw(rng);
      const auto v = static_cast<std::size_t>(members[cv][vi]);
      if (u == v) continue;
      const std::uint64_t lo = std::min(u, v), hi = std::max(u, v);
      keys.push_back(lo * un + hi);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  rng.Shuffle(keys);
  keys.resize(static_cast<std::size_t>(m));
  std::sort(keys.begin(), keys.end());

  {
    TextOut out(dir + "/graph.edges");
    out.Str("# fgr edge list: ").Int(n).Str(" nodes, ").Int(m).Str(" edges\n");
    for (std::uint64_t key : keys) {
      out.Int(static_cast<std::int64_t>(key / un))
          .Char(' ')
          .Int(static_cast<std::int64_t>(key % un))
          .Char('\n');
    }
  }

  // Stratified seeds: round(f * n_c) per class (at least one), drawn
  // uniformly within the class.
  Rng seed_rng(static_cast<std::uint64_t>(flags.Int("seed", 1)));
  std::vector<std::int64_t> seeds;
  for (int c = 0; c < k; ++c) {
    std::vector<std::int64_t> pool = members[static_cast<std::size_t>(c)];
    seed_rng.Shuffle(pool);
    const auto take = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(seed_frac * static_cast<double>(pool.size()))));
    seeds.insert(seeds.end(), pool.begin(),
                 pool.begin() + static_cast<std::ptrdiff_t>(std::min(take, pool.size())));
  }
  std::sort(seeds.begin(), seeds.end());
  WriteLabelFile(dir + "/seeds.txt", n, k, seeds, cls);
  std::vector<std::int64_t> everyone(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) everyone[static_cast<std::size_t>(i)] = i;
  WriteLabelFile(dir + "/truth.txt", n, k, everyone, cls);
  {
    TextOut out(dir + "/planted.txt");
    char cell[40];
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) {
        std::snprintf(cell, sizeof(cell), "%s%.17g", b == 0 ? "" : " ", kPlantedH[a][b]);
        out.Str(cell);
      }
      out.Char('\n');
    }
  }
  std::FILE* meta = std::fopen((dir + "/meta.json").c_str(), "w");
  if (meta == nullptr) Die("cannot write meta.json");
  std::fprintf(meta,
               "{\"n\": %" PRId64 ", \"m\": %" PRId64 ", \"k\": %d, \"seeds\": %zu, "
               "\"alpha\": %.17g, \"seed_frac\": %.17g}\n",
               n, m, k, seeds.size(), kAlpha, seed_frac);
  std::fclose(meta);
  return 0;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  std::vector<std::pair<std::string, double>> work;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int Begin(const std::string& name) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_ms = Now();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  // Closes the innermost open span and returns its duration in ms.
  double End() {
    Span& span = spans_[static_cast<std::size_t>(stack_.back())];
    span.end_ms = Now();
    stack_.pop_back();
    return span.end_ms - span.start_ms;
  }
  void Work(int span, const std::string& key, double value) {
    spans_[static_cast<std::size_t>(span)].work.emplace_back(key, value);
  }

  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"start_ms\": %.6f, \"end_ms\": %.6f, \"work\": {",
                   i, s.name.c_str(), s.parent, s.start_ms, s.end_ms);
      for (std::size_t w = 0; w < s.work.size(); ++w) {
        std::fprintf(out, "%s\"%s\": %.17g", w == 0 ? "" : ", ",
                     s.work[w].first.c_str(), s.work[w].second);
      }
      std::fprintf(out, "}}%s\n", i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
    return true;
  }

 private:
  double Now() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Runs `fn` `reps` times, each under its own span named `name`, and records
// the median duration as the layer's figure.
class Layers {
 public:
  explicit Layers(Tracer* tracer) : tracer_(tracer) {}

  template <typename Fn>
  void Time(const std::string& name, Fn&& fn, int reps = 1) {
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
      const int id = tracer_->Begin(name);
      fn(id);
      samples.push_back(tracer_->End());
    }
    std::sort(samples.begin(), samples.end());
    const std::size_t mid = samples.size() / 2;
    metrics_[name + "_ms"] = samples.size() % 2 == 1
                                 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
  }
  void Set(const std::string& name, double value) { metrics_[name] = value; }
  double Get(const std::string& name) const { return metrics_.at(name); }
  const std::map<std::string, double>& metrics() const { return metrics_; }

 private:
  Tracer* tracer_;
  std::map<std::string, double> metrics_;
};

// ---------------------------------------------------------------------------
// Reference answers and the traced run
// ---------------------------------------------------------------------------

fgr::DenseMatrix ReadPlanted(const std::string& path, int k) {
  std::FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) Die("cannot read " + path);
  fgr::DenseMatrix h(k, k);
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) {
      double value = 0.0;
      if (std::fscanf(in, "%lf", &value) != 1) Die("bad planted matrix " + path);
      h(a, b) = value;
    }
  }
  std::fclose(in);
  return h;
}

// Share of non-seed nodes whose predicted class equals the truth.
double Accuracy(const fgr::Labeling& predicted, const fgr::Labeling& truth,
                const fgr::Labeling& seeds) {
  std::int64_t right = 0, total = 0;
  for (fgr::NodeId i = 0; i < truth.num_nodes(); ++i) {
    if (seeds.is_labeled(i)) continue;
    ++total;
    right += predicted.label(i) == truth.label(i) ? 1 : 0;
  }
  return total == 0 ? 0.0 : static_cast<double>(right) / static_cast<double>(total);
}

std::string MatrixJson(const fgr::DenseMatrix& h) {
  std::string out = "[";
  char cell[40];
  for (fgr::DenseMatrix::Index a = 0; a < h.rows(); ++a) {
    out += a == 0 ? "[" : ", [";
    for (fgr::DenseMatrix::Index b = 0; b < h.cols(); ++b) {
      std::snprintf(cell, sizeof(cell), "%s%.17g", b == 0 ? "" : ", ", h(a, b));
      out += cell;
    }
    out += "]";
  }
  return out + "]";
}

// The DCEr settings fgr_cli estimate and fgrd use by default.
fgr::DceOptions CliDceOptions() {
  fgr::DceOptions options;
  options.restarts = 10;
  options.max_path_length = 5;
  options.lambda = 10.0;
  options.seed = 7;
  return options;
}

std::int64_t FileBytes(const std::string& path) {
  std::error_code error;
  const auto size = fs::file_size(path, error);
  return error ? 0 : static_cast<std::int64_t>(size);
}

int RunTrace(const Flags& flags) {
  const std::string dir = flags.Str("dir");
  const std::string fgrbin = flags.Str("fgrbin");
  const int threads = static_cast<int>(flags.Int("threads", 1));
  const std::int64_t budget_mb = flags.Int("budget-mb", 16);
  const bool ref_only = flags.Has("ref-only");
  const std::string spans_path = flags.Str("spans");
  if (dir.empty() || fgrbin.empty() || threads < 1 || budget_mb < 1) {
    Die("trace: need --dir DIR --fgrbin PATH [--threads T] [--budget-mb B]");
  }
  fgr::SetNumThreads(threads);
  const std::string edges_path = dir + "/graph.edges";
  const std::string seeds_path = dir + "/seeds.txt";
  const std::string trace_fgrbin = dir + "/trace.fgrbin";

  Tracer tracer;
  Layers layers(&tracer);
  const fgr::Labeling truth = Unwrap(fgr::ReadLabels(dir + "/truth.txt"), "truth");
  const int k = static_cast<int>(truth.num_classes());
  const fgr::NodeId n = truth.num_nodes();
  const fgr::DenseMatrix planted = ReadPlanted(dir + "/planted.txt", k);
  const fgr::DceOptions dce = CliDceOptions();

  // Reference answers over the cache the CLI converted: in-core load,
  // summarize, optimize, then LinBP with the estimated and the planted H.
  tracer.Begin("reference");
  fgr::LabeledGraph data;
  fgr::Labeling seeds;
  layers.Time("data.read_fgrbin", [&](int id) {
    data = Unwrap(fgr::ReadFgrBin(fgrbin), "ReadFgrBin");
    tracer.Work(id, "bytes", static_cast<double>(FileBytes(fgrbin)));
    tracer.Work(id, "nnz", static_cast<double>(data.graph.adjacency().nnz()));
  });
  const fgr::Graph& graph = data.graph;
  const auto nnz = static_cast<double>(graph.adjacency().nnz());
  layers.Time("graph.read_labels", [&](int id) {
    seeds = Unwrap(fgr::ReadLabels(seeds_path, n, k), "ReadLabels");
    tracer.Work(id, "labels", static_cast<double>(seeds.NumLabeled()));
  });
  fgr::GraphStatistics stats;
  layers.Time("core.summarize", [&](int id) {
    stats = fgr::ComputeGraphStatistics(graph, seeds, dce.max_path_length,
                                        dce.path_type, dce.variant);
    tracer.Work(id, "nnz", nnz);
    tracer.Work(id, "passes", dce.max_path_length);
  });
  layers.Set("core.summarize_ns_per_nnz", layers.Get("core.summarize_ms") * 1e6 / nnz);
  fgr::EstimationResult estimate;
  layers.Time("opt.optimize", [&](int id) {
    estimate = fgr::EstimateDceFromStatistics(stats, k, dce);
    tracer.Work(id, "iterations", estimate.optimizer_iterations);
    tracer.Work(id, "restarts", estimate.restarts_used);
  });
  layers.Set("opt.optimizer_iterations", estimate.optimizer_iterations);
  double rho_w = 0.0;
  layers.Time("matrix.spectral_radius", [&](int id) {
    rho_w = fgr::SpectralRadius(graph.adjacency());
    tracer.Work(id, "nnz", nnz);
  });
  fgr::LinBpOptions linbp;
  linbp.rho_w_hint = rho_w;
  fgr::LinBpResult propagated;
  layers.Time("prop.linbp", [&](int id) {
    propagated = fgr::RunLinBp(graph, seeds, estimate.h, linbp);
    tracer.Work(id, "iterations", propagated.iterations_run);
    tracer.Work(id, "nnz", nnz);
  });
  layers.Set("prop.linbp_iterations", propagated.iterations_run);
  const fgr::Labeling labels = fgr::LabelsFromBeliefs(propagated.beliefs, seeds);
  layers.Time("graph.write_labels", [&](int id) {
    Check(fgr::WriteLabels(labels, dir + "/ref.labels"), "WriteLabels");
    tracer.Work(id, "bytes", static_cast<double>(FileBytes(dir + "/ref.labels")));
  });
  tracer.Begin("reference.planted_linbp");
  const fgr::Labeling planted_labels = fgr::LabelsFromBeliefs(
      fgr::RunLinBp(graph, seeds, planted, linbp).beliefs, seeds);
  tracer.End();
  tracer.End();

  {
    std::FILE* ref = std::fopen((dir + "/ref.json").c_str(), "w");
    if (ref == nullptr) Die("cannot write ref.json");
    std::fprintf(ref,
                 "{\"nnz\": %" PRId64 ", \"h\": %s, \"acc_estimated\": %.17g, "
                 "\"acc_planted\": %.17g}\n",
                 static_cast<std::int64_t>(graph.adjacency().nnz()),
                 MatrixJson(estimate.h).c_str(), Accuracy(labels, truth, seeds),
                 Accuracy(planted_labels, truth, seeds));
    std::fclose(ref);
  }
  if (ref_only) return 0;

  // Set-up layers: parse the text edge list, write a cache with the seeds
  // embedded (what `fgr_cli datasets convert --labels` does), hash it.
  tracer.Begin("convert");
  fgr::Graph parsed;
  layers.Time("graph.read_edge_list", [&](int id) {
    parsed = Unwrap(fgr::ReadEdgeList(edges_path), "ReadEdgeList");
    tracer.Work(id, "bytes", static_cast<double>(FileBytes(edges_path)));
    tracer.Work(id, "edges", static_cast<double>(parsed.num_edges()));
  });
  layers.Time("data.write_fgrbin", [&](int id) {
    Check(fgr::WriteFgrBin(parsed, &seeds, nullptr, trace_fgrbin), "WriteFgrBin");
    tracer.Work(id, "bytes", static_cast<double>(FileBytes(trace_fgrbin)));
  });
  tracer.End();
  if (parsed.adjacency().nnz() != graph.adjacency().nnz()) {
    Die("edge list and cache disagree on nnz");
  }
  parsed = fgr::Graph();
  layers.Time("data.hash_file", [&](int id) {
    Unwrap(fgr::HashFileContents(fgrbin), "HashFileContents");
    tracer.Work(id, "bytes", static_cast<double>(FileBytes(fgrbin)));
  });

  // Kernel probes on the loaded matrix.
  layers.Time("matrix.is_symmetric", [&](int id) {
    if (!graph.adjacency().IsSymmetric()) Die("loaded adjacency is not symmetric");
    tracer.Work(id, "nnz", nnz);
  });
  {
    const fgr::DenseMatrix x = seeds.ToOneHot();
    fgr::DenseMatrix out;
    layers.Time("matrix.spmm", [&](int id) {
      graph.adjacency().Multiply(x, &out);
      tracer.Work(id, "nnz", nnz);
    }, /*reps=*/5);
    // Bytes one W·X touches: row_ptr, col_idx and values once, one k-wide
    // row of X per nonzero, and the n×k output.
    const double bytes = 8.0 * static_cast<double>(n + 1) + 16.0 * nnz +
                         8.0 * nnz * k + 8.0 * static_cast<double>(n) * k;
    layers.Set("matrix.spmm_gb_per_s", bytes / (layers.Get("matrix.spmm_ms") * 1e6));
  }

  // Out-of-core layers under the workload's memory budget.
  fgr::BlockRowReaderOptions reader_options;
  reader_options.memory_budget_bytes = budget_mb << 20;
  tracer.Begin("streamed");
  double panels = 0.0;
  const fgr::FgrBinInfo info = Unwrap(fgr::InspectFgrBin(fgrbin), "InspectFgrBin");
  const double csr_bytes = static_cast<double>(info.labels_offset > 0
                                                   ? info.labels_offset
                                                   : info.file_size) -
                           static_cast<double>(info.row_ptr_offset);
  layers.Time("data.stream_pass", [&](int id) {
    fgr::BlockRowReader reader =
        Unwrap(fgr::BlockRowReader::Open(fgrbin, reader_options), "BlockRowReader");
    fgr::CsrPanel panel;
    panels = 0.0;
    while (!reader.Done()) {
      Check(reader.NextPanel(&panel), "NextPanel");
      panels += 1.0;
    }
    tracer.Work(id, "panels", panels);
    tracer.Work(id, "bytes", csr_bytes);
  });
  layers.Set("data.stream_panels", panels);
  layers.Set("data.read_mb_per_s",
             csr_bytes / (1 << 20) / (layers.Get("data.stream_pass_ms") / 1e3));
  fgr::GraphStatistics streamed_stats;
  layers.Time("core.stream_summarize", [&](int id) {
    streamed_stats = Unwrap(
        fgr::ComputeGraphStatisticsStreaming(fgrbin, seeds, dce.max_path_length,
                                             dce.path_type, dce.variant,
                                             reader_options),
        "ComputeGraphStatisticsStreaming");
    tracer.Work(id, "nnz", nnz);
    tracer.Work(id, "passes", dce.max_path_length);
  });
  fgr::LinBpResult streamed_prop;
  layers.Time("prop.stream_linbp", [&](int id) {
    streamed_prop = Unwrap(fgr::PropagateLinBPStreaming(fgrbin, seeds, estimate.h,
                                                        fgr::LinBpOptions{},
                                                        reader_options),
                           "PropagateLinBPStreaming");
    tracer.Work(id, "iterations", streamed_prop.iterations_run);
  });
  tracer.End();
  if (threads == 1) {
    const fgr::Labeling streamed_labels =
        fgr::LabelsFromBeliefs(streamed_prop.beliefs, seeds);
    if (streamed_labels.raw() != labels.raw()) {
      Die("streamed LinBP labels differ from in-core labels at one thread");
    }
  }
  // Cost of one recorded span, so the traced figures can be read net of it.
  {
    Tracer probe;
    const auto start = Clock::now();
    constexpr int kProbe = 100000;
    for (int i = 0; i < kProbe; ++i) {
      probe.Begin("probe");
      probe.End();
    }
    layers.Set("trace.span_overhead_ns",
               std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
                   kProbe);
  }
  std::error_code ignored;
  fs::remove(trace_fgrbin, ignored);

  if (!spans_path.empty() && !tracer.Write(spans_path)) Die("cannot write spans");
  std::string line = "{";
  char cell[96];
  bool first = true;
  for (const auto& [name, value] : layers.metrics()) {
    std::snprintf(cell, sizeof(cell), "%s\"%s\": %.17g", first ? "" : ", ",
                  name.c_str(), value);
    line += cell;
    first = false;
  }
  std::printf("%s}\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: pb_tool gen|trace [flags]");
  const std::string command = argv[1];
  const Flags flags = ParseFlags(argc, argv, 2);
  if (command == "gen") return RunGen(flags);
  if (command == "trace") return RunTrace(flags);
  Die("unknown command " + command);
}
