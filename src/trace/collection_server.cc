#include "src/trace/collection_server.h"

#include <algorithm>

#include "src/metrics/metrics.h"

namespace ntrace {

namespace {

// Server-side ingest counters (DESIGN.md §8), aggregated across every
// shard in the process -- the fleet's whole-collection view.
struct IngestMetrics {
  Counter& shipments_received;
  Counter& duplicate_shipments;
  Counter& out_of_order_shipments;
  Counter& records_collected;
  Counter& duplicate_records;
  Counter& gap_events;

  static IngestMetrics& Get() {
    static IngestMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return IngestMetrics{
          r.GetCounter("ntrace_server_shipments_received_total",
                       "Sequence-numbered shipments arriving at collection servers"),
          r.GetCounter("ntrace_server_duplicate_shipments_total",
                       "Shipments discarded as duplicates (retry after ack loss)"),
          r.GetCounter("ntrace_server_out_of_order_shipments_total",
                       "Shipments that filled a hole behind a later sequence"),
          r.GetCounter("ntrace_server_records_collected_total",
                       "Trace records accepted into the collection"),
          r.GetCounter("ntrace_server_duplicate_records_discarded_total",
                       "Records discarded with duplicate shipments"),
          r.GetCounter("ntrace_server_sequence_gap_events_total",
                       "Ingests that exposed a sequence gap (later fills do not decrement)"),
      };
    }();
    return m;
  }
};

}  // namespace

void CollectionServer::DeliverShipment(const ShipmentHeader& header,
                                       std::vector<TraceRecord> records) {
  ++deliveries_;
  IngestMetrics& metrics = IngestMetrics::Get();
  if (header.sequence == 0) {
    // Agents number shipments from 1, so sequence 0 is an unsequenced
    // delivery: appended without stream bookkeeping.
    metrics.records_collected.Inc(records.size());
    set_.records.insert(set_.records.end(), records.begin(), records.end());
    return;
  }
  metrics.shipments_received.Inc();
  StreamState& stream = streams_[header.system_id];
  ++stream.shipments_received;
  if (stream.Received(header.sequence)) {
    // Duplicate: the agent retried a shipment whose acknowledgement was
    // lost. Discard, count -- the records are already in the collection.
    ++stream.duplicate_shipments;
    stream.duplicate_records_discarded += records.size();
    metrics.duplicate_shipments.Inc();
    metrics.duplicate_records.Inc(records.size());
    return;
  }
  if (header.sequence < stream.max_sequence) {
    // A hole is being filled in: this sequence arrived after a later one
    // (retried shipment overtaken by its successors).
    ++stream.out_of_order_shipments;
    metrics.out_of_order_shipments.Inc();
  }
  if (header.sequence > stream.max_sequence + 1) {
    // Live gap detection: at least one earlier sequence has not arrived
    // yet. Integrity reporting reconciles whether it ever does.
    metrics.gap_events.Inc();
  }
  stream.received.insert(header.sequence);
  stream.max_sequence = std::max(stream.max_sequence, header.sequence);
  stream.records_collected += records.size();
  metrics.records_collected.Inc(records.size());
  set_.records.insert(set_.records.end(), records.begin(), records.end());
}

void CollectionServer::DeliverName(NameRecord name) { set_.names.push_back(std::move(name)); }

const CollectionServer::StreamState* CollectionServer::StreamOf(uint32_t system_id) const {
  auto it = streams_.find(system_id);
  return it == streams_.end() ? nullptr : &it->second;
}

void CollectionServer::FillIntegrity(SystemIntegrity* out) const {
  const StreamState* stream = StreamOf(out->system_id);
  if (stream == nullptr) {
    return;
  }
  out->shipments_received = stream->shipments_received;
  out->duplicate_shipments = stream->duplicate_shipments;
  out->out_of_order_shipments = stream->out_of_order_shipments;
  out->sequence_gaps = stream->MissingSequences();
  out->records_collected = stream->records_collected;
  out->duplicate_records_discarded = stream->duplicate_records_discarded;
}

TraceSet& CollectionServer::Finish() {
  if (!finished_) {
    set_.SortByTime();
    finished_ = true;
  }
  return set_;
}

}  // namespace ntrace
