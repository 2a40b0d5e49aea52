// fgrd: the long-lived estimation-serving daemon.
//
// FgrServer answers line-delimited JSON requests (serve/protocol.h) over a
// TCP listen socket. One event thread owns every socket through an
// edge-triggered epoll loop: it accepts, reads, frames lines out of
// per-connection buffers, dispatches complete requests to a fixed worker
// pool through a bounded queue, and writes responses back coalesced.
// Workers never touch sockets; the event thread never computes. Request
// lifecycle for estimate/label:
//
//   resolve .fgrbin path
//     → DatasetCache::Acquire        (mmap residency, LRU byte budget;
//                                     over-budget files fall to streaming)
//     → SummaryCache::GetOrCompute   (M(ℓ) statistics keyed on the file's
//                                     content hash; memory → .fgrsum
//                                     sidecar → ComputeGraphStatistics
//                                     over the request's PanelSource: the
//                                     mapped view, or streamed panels for
//                                     non-resident datasets)
//     → EstimateDceFromStatistics    (k-scale restarts, graph-free)
//     → [label only] RunLinBp over the same PanelSource +
//       LabelsFromBeliefs.
//
// Robustness: per-request and idle-connection deadlines run off a slotted
// timer wheel; a connection whose write buffer outgrows its cap is evicted
// as a slow client; once the worker queue passes its high-water mark new
// requests are shed with a structured `overloaded` error; Stop() drains
// queued and in-flight work (bounded by drain_timeout_ms) before closing.
// Every outcome lands in an atomic ServerMetrics struct served by the
// `metrics` verb.
//
// Seeds are the dataset's own label section: summaries are then a pure
// function of (file bytes, path type, ℓ), which is what makes them
// cacheable. Results match the offline CLI bit for bit in serial runs
// because every stage above is the same code path fgr_cli estimate/label
// executes on a loaded Graph.
//
// HandleRequestLine is the transport-free core — tests and benches call it
// directly; the event loop is a framing-and-scheduling shell around it.

#ifndef FGR_SERVE_SERVER_H_
#define FGR_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/dataset_cache.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/summary_cache.h"
#include "serve/timer_wheel.h"
#include "util/stopwatch.h"

namespace fgr {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 7411;  // 0: pick an ephemeral port (read it back via port())
  int worker_threads = 4;
  // Byte budget for mmap'd dataset residency (DatasetCache). Datasets
  // larger than this are never mapped; estimate and label both fall back
  // to the block-row streaming pipeline under streaming_budget_bytes.
  std::int64_t dataset_budget_bytes = std::int64_t{1} << 30;
  // Panel budget handed to BlockRowReader for non-resident datasets.
  std::int64_t streaming_budget_bytes = std::int64_t{64} << 20;
  // A request line longer than this is answered with an error and the
  // connection is closed (malformed or hostile client).
  std::int64_t max_request_bytes = std::int64_t{1} << 20;
  // Persist freshly computed summaries as .fgrsum sidecars.
  bool persist_summaries = true;

  // --- event-loop robustness knobs ---
  // A dispatched request that has not completed within this deadline is
  // answered with a `timeout` error and its connection is closed (the
  // worker's eventual result is discarded).
  std::int64_t request_timeout_ms = 30000;
  // A connection with no traffic and no request in flight for this long
  // is closed.
  std::int64_t idle_timeout_ms = 300000;
  // A connection whose unsent response backlog exceeds this cap is
  // evicted as a slow client.
  std::int64_t max_write_buffer_bytes = std::int64_t{8} << 20;
  // Admission control: once this many requests sit in the worker queue,
  // new arrivals are shed with an `overloaded` error.
  int queue_high_water = 256;
  // Stop() waits this long for queued + in-flight requests to finish and
  // flush before force-closing what remains.
  std::int64_t drain_timeout_ms = 5000;
  // When > 0, shrink SO_SNDBUF on accepted sockets to this many bytes.
  // Production leaves it 0 (kernel default); tests use it to exercise the
  // write-buffer cap without fighting megabytes of kernel buffering.
  int send_buffer_bytes = 0;
};

class FgrServer {
 public:
  explicit FgrServer(ServerOptions options);
  ~FgrServer();

  FgrServer(const FgrServer&) = delete;
  FgrServer& operator=(const FgrServer&) = delete;

  // Binds, listens, and spawns the event + worker threads.
  Status Start();

  // Graceful drain: stops accepting, lets queued and in-flight requests
  // finish and flush (bounded by drain_timeout_ms), then closes
  // everything and joins all threads. Idempotent.
  void Stop();

  bool running() const { return running_.load(); }

  // The bound port (resolves option port 0 to the ephemeral choice).
  int port() const { return port_; }
  const std::string& host() const { return options_.host; }

  // Maps a dataset into residency ahead of traffic. Summaries stay cold
  // (they load from .fgrsum or compute on first use).
  Status Preload(const std::string& path);

  // Parses and dispatches one request line, returning one response line
  // (no trailing newline). Never throws; all failures become error
  // responses. Safe to call concurrently. Per-verb metrics counters are
  // bumped here, so transport-free callers count too.
  std::string HandleRequestLine(const std::string& line);

  // The metrics response body (the same JSON the `metrics` verb returns)
  // without bumping any counter — used by --dump-metrics-on-exit.
  std::string MetricsJson(int version = 0) const;

  const DatasetCache& datasets() const { return datasets_; }
  const SummaryCache& summaries() const { return summaries_; }
  const ServerMetrics& metrics() const { return metrics_; }

 private:
  struct EstimateOutcome;

  // Per-connection state, owned exclusively by the event thread.
  struct Connection;

  // One framed request line travelling to the worker pool and back. The
  // generation ties the eventual completion to the dispatch that created
  // it: a timed-out or closed connection bumps its generation, turning
  // the worker's late result into a discard instead of a misdelivery.
  struct WorkItem {
    std::uint64_t conn_id = 0;
    std::uint64_t generation = 0;
    std::string line;
    // When the event thread enqueued the item; the worker that picks it
    // up records now-enqueued into metrics_.stage_queue_wait.
    std::chrono::steady_clock::time_point enqueued{};
  };
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t generation = 0;
    std::string response;
  };

  // Content hash of a non-resident (streamed) dataset, cached on
  // (mtime, size) so repeat queries skip the full-file re-read — the
  // streamed analogue of the dataset cache's staleness check.
  Result<std::uint64_t> StreamingContentHash(const std::string& path);

  Status RunEstimate(const Request& request,
                     EstimateOutcome* outcome);
  std::string HandleEstimate(const Request& request);
  std::string HandleLabel(const Request& request);
  std::string HandleStats(int version);
  std::string HandleDatasets(int version);
  std::string HandleMetrics(int version);

  // Event-loop internals (event thread only unless noted).
  void EventLoop();
  void WorkerLoop();
  void AcceptNewConnections();
  void HandleReadable(Connection* conn);
  void DispatchPending(Connection* conn);
  void FlushWrites(Connection* conn);  // may destroy *conn
  void QueueResponse(Connection* conn, const std::string& response);
  void CloseConnection(Connection* conn);
  void ProcessCompletions();
  void FireTimers(std::chrono::steady_clock::time_point now);
  void ArmIdleTimer(Connection* conn);
  bool UpdateEpoll(Connection* conn, bool want_write);
  void WakeEventThread();

  ServerOptions options_;
  DatasetCache datasets_;
  SummaryCache summaries_;

  struct StreamedHash {
    std::filesystem::file_time_type mtime;
    std::uintmax_t file_size = 0;
    std::uint64_t hash = 0;
  };
  std::mutex streamed_hash_mutex_;
  std::map<std::string, StreamedHash> streamed_hashes_;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};  // finish work, accept nothing new
  std::atomic<bool> stopping_{false};  // tear down now
  std::atomic<bool> drained_{false};   // event thread: nothing left to do
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: workers and Stop() kick the event thread
  int port_ = 0;
  std::thread event_thread_;
  std::vector<std::thread> workers_;

  // Event-thread-only connection table; epoll events carry the id, not
  // the pointer, so a stale event after a close resolves to "not found"
  // instead of a dangling dereference.
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::uint64_t next_conn_id_ = 1;
  TimerWheel timers_;

  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::deque<WorkItem> work_queue_;

  std::mutex completion_mutex_;
  std::vector<Completion> completions_;

  Stopwatch uptime_;
  ServerMetrics metrics_;
  // Legacy `stats` verb counters (kept distinct: `stats` predates the
  // metrics surface and its fields are pinned by clients).
  std::atomic<std::int64_t> requests_{0};
  std::atomic<std::int64_t> errors_{0};
  std::atomic<std::int64_t> estimates_{0};
  std::atomic<std::int64_t> labels_{0};
  std::atomic<std::int64_t> connections_total_{0};
};

// "a.fgrbin,b.fgrbin" → {"a.fgrbin", "b.fgrbin"} (empty pieces dropped) —
// the --preload flag syntax shared by fgrd and `fgr_cli serve`.
std::vector<std::string> SplitCommaList(const std::string& list);

// Runs a server until SIGINT/SIGTERM: blocks the signals, starts the
// server, preloads `preload` datasets (fatal when one fails), prints
// "<name>: serving on <host>:<port> ..." on stdout (flushed, so scripts
// can scrape an ephemeral port), waits for a signal, drains, stops. When
// `dump_metrics_on_exit` is set, prints the metrics JSON on its own line
// after shutdown. Shared by the fgrd binary and `fgr_cli serve`.
Status RunDaemon(const std::string& name, const ServerOptions& options,
                 const std::vector<std::string>& preload,
                 bool dump_metrics_on_exit = false);

}  // namespace fgr

#endif  // FGR_SERVE_SERVER_H_
