#include "src/trace/trace_buffer.h"

#include <algorithm>
#include <cassert>

#include "src/metrics/metrics.h"

namespace ntrace {

namespace {
constexpr size_t kNoBuffer = static_cast<size_t>(-1);

// Agent-side pipeline counters (DESIGN.md §8). The retry-backlog gauge
// aggregates across every live TraceBuffer in the process, giving the
// fleet-wide backlog a sequential per-buffer counter cannot show.
struct PipelineMetrics {
  Counter& records_emitted;
  Counter& records_dropped;
  Counter& records_shed;
  Counter& records_lost;
  Counter& shipments;
  Counter& shipment_attempts;
  Counter& shipment_failures;
  Counter& shipment_retries;
  Counter& shipments_abandoned;
  Gauge& retry_backlog;
  Histogram& shipment_records;

  static PipelineMetrics& Get() {
    static PipelineMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return PipelineMetrics{
          r.GetCounter("ntrace_trace_records_emitted_total",
                       "Trace records emitted by filter drivers into agent buffers"),
          r.GetCounter("ntrace_trace_records_dropped_total",
                       "Records dropped because every storage buffer was in flight"),
          r.GetCounter("ntrace_trace_records_shed_total",
                       "Records load-shed while the retry backlog was above the watermark"),
          r.GetCounter("ntrace_trace_records_lost_total",
                       "Records lost with abandoned shipments"),
          r.GetCounter("ntrace_trace_shipments_total", "Buffers shipped toward a server"),
          r.GetCounter("ntrace_trace_shipment_attempts_total",
                       "Shipment transmissions (first sends plus retries)"),
          r.GetCounter("ntrace_trace_shipment_failures_total",
                       "Transmissions that failed (fault-injected link)"),
          r.GetCounter("ntrace_trace_shipment_retries_total",
                       "Retries scheduled with exponential backoff"),
          r.GetCounter("ntrace_trace_shipments_abandoned_total",
                       "Shipments abandoned after max attempts or queue overflow"),
          r.GetGauge("ntrace_trace_retry_backlog",
                     "Shipments currently parked awaiting retry (all agents)"),
          r.GetHistogram("ntrace_trace_shipment_record_count", "Records per shipped buffer"),
      };
    }();
    return m;
  }
};
}  // namespace

TraceBuffer::TraceBuffer(Engine& engine, TraceSink& sink, SimDuration ship_latency_per_record,
                         uint32_t system_id, ShipmentPolicy policy, FaultInjector* injector)
    : engine_(engine),
      sink_(sink),
      ship_latency_per_record_(ship_latency_per_record),
      system_id_(system_id),
      policy_(policy),
      injector_(injector),
      jitter_rng_(0x5B1FF7E2ULL + system_id) {
  for (auto& buf : buffers_) {
    buf.reserve(kRecordsPerBuffer);
  }
}

TraceBuffer::~TraceBuffer() {
  if (emitted_unreported_ > 0) {
    PipelineMetrics::Get().records_emitted.Inc(emitted_unreported_);
    emitted_unreported_ = 0;
  }
}

void TraceBuffer::Append(const TraceRecord& record) {
  // The emitted counter is batched: one fetch_add per shipped buffer (plus
  // a final flush in the destructor), not one per record -- this is the
  // hottest call in the process.
  ++records_emitted_;
  ++emitted_unreported_;
  if (injector_ != nullptr && retry_backlog_ >= policy_.shed_watermark) {
    // Load shedding: the link is backlogged, sample the incoming stream and
    // account for every discard exactly.
    if (!jitter_rng_.Bernoulli(policy_.shed_keep_probability)) {
      ++records_shed_;
      PipelineMetrics::Get().records_shed.Inc();
      return;
    }
  }
  std::vector<TraceRecord>& buf = buffers_[active_];
  if (buf.size() >= kRecordsPerBuffer) {
    // Rotate: ship this buffer, find a free one.
    ShipBuffer(active_);
    size_t next = kNumBuffers;
    for (size_t i = 0; i < kNumBuffers; ++i) {
      const size_t candidate = (active_ + 1 + i) % kNumBuffers;
      if (!in_flight_[candidate]) {
        next = candidate;
        break;
      }
    }
    if (next == kNumBuffers) {
      // Every buffer is in flight: the overflow condition the paper's agent
      // watches for.
      ++records_dropped_;
      PipelineMetrics::Get().records_dropped.Inc();
      return;
    }
    active_ = next;
  }
  buffers_[active_].push_back(record);
  ++records_written_;
}

void TraceBuffer::AppendName(NameRecord name) { sink_.DeliverName(std::move(name)); }

void TraceBuffer::ShipBuffer(size_t index) {
  if (buffers_[index].empty() || in_flight_[index]) {
    return;
  }
  in_flight_[index] = true;
  ++buffers_shipped_;
  PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.shipments.Inc();
  metrics.shipment_records.Observe(buffers_[index].size());
  metrics.records_emitted.Inc(emitted_unreported_);
  emitted_unreported_ = 0;
  Shipment shipment;
  shipment.header.system_id = system_id_;
  shipment.header.sequence = next_sequence_++;
  shipment.header.attempt = 1;
  shipment.header.record_count = buffers_[index].size();
  shipment.payload = std::move(buffers_[index]);
  buffers_[index].clear();
  buffers_[index].reserve(kRecordsPerBuffer);
  const SimDuration latency =
      ship_latency_per_record_ * static_cast<int64_t>(shipment.payload.size());
  engine_.Schedule(latency, [this, index, shipment = std::move(shipment)]() mutable {
    CompleteAttempt(std::move(shipment), index);
  });
}

void TraceBuffer::CompleteAttempt(Shipment shipment, size_t free_buffer_index) {
  ++shipment_attempts_;
  PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.shipment_attempts.Inc();
  if (free_buffer_index != kNoBuffer) {
    // The storage buffer is reusable as soon as the payload left the agent;
    // a failed shipment lives on in the retry queue, not in the buffer.
    in_flight_[free_buffer_index] = false;
  }
  const FaultOutcome outcome = injector_ != nullptr
                                   ? injector_->Evaluate(FaultSite::kShipment, engine_.Now())
                                   : FaultOutcome{};
  if (!outcome.fail) {
    if (shipment.header.attempt > 1) {
      assert(retry_backlog_ > 0);
      --retry_backlog_;
      metrics.retry_backlog.Add(-1);
    }
    records_concluded_ += shipment.payload.size();
    sink_.DeliverShipment(shipment.header, std::move(shipment.payload));
    return;
  }
  ++shipment_failures_;
  metrics.shipment_failures.Inc();
  if (outcome.ack_lost) {
    // The payload arrived, only the acknowledgement was lost: the server
    // sees this sequence (and will see it again on retry -- its dedup path).
    sink_.DeliverShipment(shipment.header, shipment.payload);
  }
  if (shipment.header.attempt == 1) {
    ++retry_backlog_;
    metrics.retry_backlog.Add(1);
    peak_retry_backlog_ = std::max(peak_retry_backlog_, retry_backlog_);
  }
  // Signed compare: a non-positive max_attempts abandons after one attempt.
  if (static_cast<int64_t>(shipment.header.attempt) >= policy_.max_attempts) {
    Abandon(shipment);
    --retry_backlog_;
    metrics.retry_backlog.Add(-1);
    return;
  }
  if (shipment.header.attempt == 1 && retry_backlog_ > policy_.retry_queue_limit) {
    // Retry queue full: abandon immediately rather than grow without bound.
    Abandon(shipment);
    --retry_backlog_;
    metrics.retry_backlog.Add(-1);
    return;
  }
  metrics.shipment_retries.Inc();
  ScheduleRetry(std::move(shipment));
}

void TraceBuffer::ScheduleRetry(Shipment shipment) {
  // Exponential backoff, clamped, with multiplicative jitter.
  const SimDuration base =
      shipment.backoff.ticks() == 0
          ? policy_.initial_backoff
          : SimDuration::Ticks(std::min(
                static_cast<double>(policy_.max_backoff.ticks()),
                static_cast<double>(shipment.backoff.ticks()) * policy_.backoff_multiplier));
  shipment.backoff = base;
  const double scale =
      policy_.jitter > 0.0
          ? jitter_rng_.UniformReal(1.0 - policy_.jitter, 1.0 + policy_.jitter)
          : 1.0;
  const SimDuration transmit =
      ship_latency_per_record_ * static_cast<int64_t>(shipment.payload.size());
  const SimDuration delay =
      SimDuration::Ticks(static_cast<int64_t>(base.ticks() * scale)) + transmit;
  ++shipment.header.attempt;
  engine_.Schedule(delay, [this, shipment = std::move(shipment)]() mutable {
    CompleteAttempt(std::move(shipment), kNoBuffer);
  });
}

void TraceBuffer::Abandon(Shipment& shipment) {
  ++shipments_abandoned_;
  PipelineMetrics::Get().shipments_abandoned.Inc();
  PipelineMetrics::Get().records_lost.Inc(shipment.payload.size());
  records_lost_ += shipment.payload.size();
  records_concluded_ += shipment.payload.size();
  abandoned_.emplace_back(shipment.header.sequence, shipment.payload.size());
}

void TraceBuffer::FlushAll() {
  for (size_t i = 0; i < kNumBuffers; ++i) {
    ShipBuffer(i);
  }
}

}  // namespace ntrace
