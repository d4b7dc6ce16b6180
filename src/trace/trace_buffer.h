// Triple-buffered trace record storage with a resilient shipment link.
//
// The paper's trace driver "uses a triple-buffering scheme for the record
// storage, with each storage buffer able to hold up to 3,000 records"
// (section 3.2). A filling buffer rotates out when full and is shipped to
// the collection server asynchronously; if all buffers are in flight when a
// record arrives, the record is dropped and the overflow is counted (the
// paper's agent detects this condition; it never fired in their runs, and
// tests here verify both the rotation and the overflow accounting).
//
// The shipment leg models the agent -> collection-server network hop the
// paper's deployment ran over for four weeks. Each shipment carries a
// per-system sequence number so the server can detect gaps, duplicates and
// reordering. When a FaultInjector is attached, a shipment attempt can fail
// (payload lost) or lose only its acknowledgement (payload delivered, agent
// retries, server dedupes); failed shipments move to a capped retry queue
// and are re-attempted with exponential backoff plus jitter, bounded by
// ShipmentPolicy::max_attempts. When the retry backlog crosses the shed
// watermark the buffer load-sheds: incoming records are sampled and every
// discard is counted, so the pipeline accounts for 100% of emitted records
// as collected, overflow-dropped, shed or lost -- never silently missing.
// Without an injector the shipment path is byte- and timing-identical to
// the pre-fault implementation (zero extra RNG draws).

#ifndef SRC_TRACE_TRACE_BUFFER_H_
#define SRC_TRACE_TRACE_BUFFER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/fault/fault.h"
#include "src/sim/engine.h"
#include "src/trace/trace_record.h"

namespace ntrace {

// Metadata accompanying one shipped buffer.
struct ShipmentHeader {
  uint32_t system_id = 0;
  uint64_t sequence = 0;  // 1-based, dense per system.
  uint32_t attempt = 1;   // 1 = first transmission.
  uint64_t record_count = 0;
};

// Retry/backoff/shedding policy of the agent -> server link.
struct ShipmentPolicy {
  // Total transmissions per shipment before it is abandoned (records lost).
  int max_attempts = 5;
  SimDuration initial_backoff = SimDuration::Millis(200);
  double backoff_multiplier = 2.0;
  SimDuration max_backoff = SimDuration::Seconds(5);
  // Backoff is scaled by U[1 - jitter, 1 + jitter] to decorrelate agents.
  double jitter = 0.25;
  // Shipments parked awaiting retry; overflow is abandoned immediately.
  size_t retry_queue_limit = 8;
  // Backlog at or above the watermark sheds incoming records by sampling.
  size_t shed_watermark = 4;
  // Probability an incoming record is kept while shedding.
  double shed_keep_probability = 0.25;
};

// Receives completed buffers (the collection server implements this).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  // Sequence-numbered delivery.
  virtual void DeliverShipment(const ShipmentHeader& header, std::vector<TraceRecord> records) = 0;
  virtual void DeliverName(NameRecord name) = 0;
  // Unsequenced delivery: a shipment with sequence 0.
  virtual void DeliverRecords(std::vector<TraceRecord> records) {
    ShipmentHeader header;
    header.record_count = records.size();
    DeliverShipment(header, std::move(records));
  }
};

class TraceBuffer {
 public:
  static constexpr size_t kNumBuffers = 3;
  static constexpr size_t kRecordsPerBuffer = 3000;

  // `ship_latency_per_record` models the transfer to the collection server;
  // shipped buffers become free again once delivery completes. `injector`
  // (optional, borrowed) makes shipments fallible per its kShipment plan.
  TraceBuffer(Engine& engine, TraceSink& sink,
              SimDuration ship_latency_per_record = SimDuration::Micros(2),
              uint32_t system_id = 0, ShipmentPolicy policy = {},
              FaultInjector* injector = nullptr);
  // Flushes the batched emitted-records metric (see Append).
  ~TraceBuffer();

  // Appends a record; rotates/ships the active buffer when full.
  void Append(const TraceRecord& record);

  // Name records bypass buffering (they are small and rare relative to
  // events); delivered immediately.
  void AppendName(NameRecord name);

  // Ships whatever is buffered (agent shutdown / end of tracing period).
  // Parked retries keep draining through their scheduled events.
  void FlushAll();

  // --- Accounting. Invariant (asserted by tests):
  //   records_emitted = records_written + records_dropped + records_shed
  //   records_written = delivered + records_lost + still-buffered
  uint64_t records_emitted() const { return records_emitted_; }
  uint64_t records_written() const { return records_written_; }
  uint64_t records_dropped() const { return records_dropped_; }
  uint64_t records_shed() const { return records_shed_; }
  uint64_t records_lost() const { return records_lost_; }
  // Written records whose fate is not yet settled: still sitting in a
  // storage buffer, or inside a shipment that has neither delivered nor
  // been abandoned. Zero once the pipeline fully drains.
  uint64_t records_unresolved() const { return records_written_ - records_concluded_; }
  uint64_t buffers_shipped() const { return buffers_shipped_; }
  uint64_t shipment_attempts() const { return shipment_attempts_; }
  uint64_t shipment_failures() const { return shipment_failures_; }
  uint64_t shipments_abandoned() const { return shipments_abandoned_; }
  size_t retry_backlog() const { return retry_backlog_; }
  size_t peak_retry_backlog() const { return peak_retry_backlog_; }

  // Abandoned shipments as (sequence, record_count); the fleet reconciles
  // these against the server (an abandoned shipment whose final
  // acknowledgement was lost did arrive and is not really lost).
  const std::vector<std::pair<uint64_t, uint64_t>>& abandoned_shipments() const {
    return abandoned_;
  }

 private:
  struct Shipment {
    ShipmentHeader header;
    std::vector<TraceRecord> payload;
    SimDuration backoff{};
  };

  void ShipBuffer(size_t index);
  // One transmission of `shipment`; called at the scheduled arrival time.
  void CompleteAttempt(Shipment shipment, size_t free_buffer_index);
  void ScheduleRetry(Shipment shipment);
  void Abandon(Shipment& shipment);

  Engine& engine_;
  TraceSink& sink_;
  SimDuration ship_latency_per_record_;
  uint32_t system_id_;
  ShipmentPolicy policy_;
  FaultInjector* injector_;
  Rng jitter_rng_;  // Only drawn on the failure path; idle in clean runs.

  std::array<std::vector<TraceRecord>, kNumBuffers> buffers_;
  std::array<bool, kNumBuffers> in_flight_{};
  size_t active_ = 0;
  uint64_t next_sequence_ = 1;
  size_t retry_backlog_ = 0;
  size_t peak_retry_backlog_ = 0;

  uint64_t records_emitted_ = 0;
  // Emitted records not yet added to the process-wide metrics counter;
  // flushed on each shipment and at destruction (hot-path batching).
  uint64_t emitted_unreported_ = 0;
  uint64_t records_written_ = 0;
  uint64_t records_dropped_ = 0;
  uint64_t records_shed_ = 0;
  uint64_t records_lost_ = 0;
  uint64_t records_concluded_ = 0;  // Delivered (agent view) or abandoned.
  uint64_t buffers_shipped_ = 0;
  uint64_t shipment_attempts_ = 0;
  uint64_t shipment_failures_ = 0;
  uint64_t shipments_abandoned_ = 0;
  std::vector<std::pair<uint64_t, uint64_t>> abandoned_;
};

}  // namespace ntrace

#endif  // SRC_TRACE_TRACE_BUFFER_H_
