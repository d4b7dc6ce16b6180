// The trace collection server.
//
// "The collection servers are three dedicated file servers that take the
// incoming event streams and store them in compressed formats for later
// retrieval" (section 3). A CollectionServer aggregates the record streams
// delivered to it into a TraceSet. One instance can serve a whole fleet
// (the sequential path), or act as one shard of many: the parallel fleet
// gives every system its own server so no ingest state is shared between
// workers, then merges the shards in system-id order (see fleet.cc). A
// server is not itself thread-safe; sharding is the concurrency model.
//
// Shipments arrive sequence-numbered per system; the server tracks the
// received-sequence set of every stream so it can dedupe duplicate
// shipments (a retry whose original acknowledgement was lost), flag
// out-of-order arrivals, and report the sequences that never arrived at
// all. Sequences start at 1: a shipment with sequence 0 (a DeliverRecords
// call, on the spool and the wire too) is simply appended.

#ifndef SRC_TRACE_COLLECTION_SERVER_H_
#define SRC_TRACE_COLLECTION_SERVER_H_

#include <cstdint>
#include <map>
#include <unordered_set>

#include "src/trace/integrity.h"
#include "src/trace/trace_buffer.h"
#include "src/trace/trace_set.h"

namespace ntrace {

class CollectionServer final : public TraceSink {
 public:
  // Per-system stream bookkeeping (server side of the integrity report).
  struct StreamState {
    uint64_t max_sequence = 0;
    std::unordered_set<uint64_t> received;
    uint64_t shipments_received = 0;
    uint64_t duplicate_shipments = 0;
    uint64_t out_of_order_shipments = 0;
    uint64_t records_collected = 0;
    uint64_t duplicate_records_discarded = 0;

    // Sequences in [1, max_sequence] that never arrived.
    uint64_t MissingSequences() const {
      return max_sequence - static_cast<uint64_t>(received.size());
    }
    bool Received(uint64_t sequence) const { return received.count(sequence) != 0; }
  };

  CollectionServer() = default;

  // Pre-sizes the record store for an expected ingest volume (DESIGN.md §9).
  // The fleet derives the estimate from the workload shape (days x activity)
  // so steady-state delivery appends without reallocation churn; an
  // underestimate only means the vector resumes geometric growth.
  void ReserveRecords(size_t expected) { set_.records.reserve(expected); }

  void DeliverName(NameRecord name) override;
  void DeliverShipment(const ShipmentHeader& header,
                       std::vector<TraceRecord> records) override;

  // The aggregated collection (sorted by completion time on first call;
  // idempotent, so a worker can pre-sort its shard and the merge can call
  // it again without re-sorting).
  TraceSet& Finish();
  const TraceSet& set() const { return set_; }

  uint64_t deliveries() const { return deliveries_; }

  // Stream state of one system (nullptr if it never shipped a sequenced
  // shipment).
  const StreamState* StreamOf(uint32_t system_id) const;
  const std::map<uint32_t, StreamState>& streams() const { return streams_; }

  // Copies the server-side counters into `out` for the stream of
  // `out->system_id` (no-op fields stay zero for unsequenced streams).
  void FillIntegrity(SystemIntegrity* out) const;

 private:
  TraceSet set_;
  std::map<uint32_t, StreamState> streams_;
  uint64_t deliveries_ = 0;
  bool finished_ = false;
};

}  // namespace ntrace

#endif  // SRC_TRACE_COLLECTION_SERVER_H_
