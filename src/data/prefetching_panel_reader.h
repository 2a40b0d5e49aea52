// Asynchronous panel prefetcher: hides .fgrbin panel I/O behind compute.
//
// PrefetchingPanelReader wraps an opened BlockRowReader with a producer
// thread that reads panels ahead of the consumer through a bounded
// RingQueue. Panel buffers are recycled through a second free-list queue,
// so a full pass still allocates O(1) times (the pipeline owns
// depth + 1 CsrPanel slots total, regardless of panel count).
//
// Error propagation is in-band: when the producer hits a corrupt block it
// ships the failing Status through the same queue slot the panel would
// have used, so the consumer observes the identical panel-boundary error,
// at the identical point in the stream, as the synchronous reader.
//
// Rewind() implements the per-ℓ pass restart: it closes the queues, joins
// the producer, drains any in-flight panels back to the free list, rewinds
// the underlying reader, reopens the queues, and starts a fresh producer.
//
// The class intentionally mirrors BlockRowReader's streaming surface
// (NextPanel/Rewind/Done/num_nodes/num_panels), so the streamed
// PanelSource (data/panel_source.h) writes its pass once over either
// reader.

#ifndef FGR_DATA_PREFETCHING_PANEL_READER_H_
#define FGR_DATA_PREFETCHING_PANEL_READER_H_

#include <cstdint>
#include <thread>
#include <vector>

#include "data/block_row_reader.h"
#include "util/ring_queue.h"
#include "util/status.h"

namespace fgr {

class PrefetchingPanelReader {
 public:
  // Takes ownership of an already-opened reader. `depth` is the number of
  // panels the producer may run ahead of the consumer; 2 double-buffers.
  explicit PrefetchingPanelReader(BlockRowReader reader, int depth = 2);
  ~PrefetchingPanelReader();

  PrefetchingPanelReader(const PrefetchingPanelReader&) = delete;
  PrefetchingPanelReader& operator=(const PrefetchingPanelReader&) = delete;

  const FgrBinInfo& info() const { return reader_.info(); }
  std::int64_t num_nodes() const { return reader_.num_nodes(); }
  std::int64_t nnz() const { return reader_.nnz(); }
  std::int64_t num_panels() const { return reader_.num_panels(); }

  // True once every panel of the pass has been handed out — or an error
  // was returned, which poisons the remainder of the pass.
  bool Done() const { return failed_ || consumed_ >= num_panels(); }

  // Swaps the next prefetched panel into `*panel` (recycling the caller's
  // previous buffers into the free list) or returns the producer's error.
  Status NextPanel(CsrPanel* panel);

  // Stops the producer, rewinds the underlying reader, and restarts the
  // producer for the next pass.
  Status Rewind();

 private:
  // One pipeline slot: a recyclable panel buffer plus the in-band status
  // channel. A slot with !status.ok() carries no panel.
  struct Slot {
    CsrPanel panel;
    Status status = Status::Ok();
  };

  void StartProducer();
  void StopProducer();  // close, join, drain filled slots back to free_
  void ProducerLoop();

  BlockRowReader reader_;
  RingQueue<Slot> filled_;
  RingQueue<Slot> free_;
  std::size_t pool_size_;  // total slots in circulation (depth + 1)
  std::thread producer_;
  std::int64_t consumed_ = 0;
  bool failed_ = false;
};

}  // namespace fgr

#endif  // FGR_DATA_PREFETCHING_PANEL_READER_H_
