#include "src/fault/fault.h"

#include <algorithm>

#include "src/metrics/metrics.h"

namespace ntrace {

std::string_view CrashKindName(CrashKind kind) {
  switch (kind) {
    case CrashKind::kNone:
      return "none";
    case CrashKind::kWorkerCrash:
      return "worker-crash";
    case CrashKind::kTornWrite:
      return "torn-write";
    case CrashKind::kBitFlip:
      return "bit-flip";
    case CrashKind::kHang:
      return "hang";
  }
  return "unknown";
}

TransportFaultInjector::TransportFaultInjector(const TransportFaultPlan& plan, uint64_t seed,
                                               uint64_t stream)
    : plan_(plan), rng_(seed + 0x94D049BB133111EBULL * (stream + 1)) {}

TransportFaultKind TransportFaultInjector::Draw() {
  if (!plan_.enabled()) {
    return TransportFaultKind::kNone;
  }
  ++draws_;
  // Fixed order, most disruptive first; one Bernoulli per enabled kind per
  // frame keeps the stream deterministic even when caps silence a kind
  // (the draw still happens, only the effect is suppressed).
  const struct {
    TransportFaultKind kind;
    double p;
  } kinds[] = {
      {TransportFaultKind::kReset, plan_.reset_probability},
      {TransportFaultKind::kPartialWrite, plan_.partial_write_probability},
      {TransportFaultKind::kStall, plan_.stall_probability},
      {TransportFaultKind::kReorder, plan_.reorder_probability},
      {TransportFaultKind::kDuplicate, plan_.duplicate_probability},
      {TransportFaultKind::kDelay, plan_.delay_probability},
  };
  TransportFaultKind fired = TransportFaultKind::kNone;
  for (const auto& k : kinds) {
    if (k.p <= 0.0) {
      continue;
    }
    const bool hit = rng_.Bernoulli(k.p);
    if (hit && fired == TransportFaultKind::kNone) {
      uint64_t& count = injected_[static_cast<size_t>(k.kind) - 1];
      if (plan_.max_per_kind == 0 || count < plan_.max_per_kind) {
        ++count;
        fired = k.kind;
      }
    }
  }
  return fired;
}

namespace {

// Independent per-site streams: seed each site's Rng from (seed, site index)
// through the same SplitMix-style scramble Rng::Seed applies, offset by a
// large odd constant so adjacent sites never alias.
uint64_t SiteSeed(uint64_t seed, size_t site) {
  return seed + 0x9E3779B97F4A7C15ULL * (site + 1);
}

// Per-site evaluation/injection counters (DESIGN.md §8), aggregated over
// every injector in the fleet.
struct FaultMetrics {
  Counter* evaluations[kNumFaultSites];
  Counter* injected[kNumFaultSites];

  static FaultMetrics& Get() {
    static FaultMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      FaultMetrics fm;
      fm.evaluations[0] =
          &r.GetCounter("ntrace_fault_shipment_evaluations_total",
                        "Operations evaluated against the shipment fault plan");
      fm.evaluations[1] = &r.GetCounter("ntrace_fault_disk_read_evaluations_total",
                                        "Operations evaluated against the disk-read fault plan");
      fm.evaluations[2] =
          &r.GetCounter("ntrace_fault_disk_write_evaluations_total",
                        "Operations evaluated against the disk-write fault plan");
      fm.injected[0] = &r.GetCounter("ntrace_fault_shipment_injected_total",
                                     "Shipment failures injected");
      fm.injected[1] = &r.GetCounter("ntrace_fault_disk_read_injected_total",
                                     "Disk-read media errors injected");
      fm.injected[2] = &r.GetCounter("ntrace_fault_disk_write_injected_total",
                                     "Disk-write media errors injected");
      return fm;
    }();
    return m;
  }
};

}  // namespace

FaultInjector::FaultInjector(uint64_t seed) {
  for (size_t i = 0; i < sites_.size(); ++i) {
    sites_[i].rng.Seed(SiteSeed(seed, i));
  }
}

FaultInjector::FaultInjector(const FaultConfig& config, uint64_t stream)
    : FaultInjector(config.seed + 0xBF58476D1CE4E5B9ULL * stream) {
  SetPlan(FaultSite::kShipment, config.shipment);
  SetPlan(FaultSite::kDiskRead, config.disk_read);
  SetPlan(FaultSite::kDiskWrite, config.disk_write);
}

void FaultInjector::SetPlan(FaultSite site, FaultPlan plan) {
  site_(site).plan = std::move(plan);
}

FaultOutcome FaultInjector::Evaluate(FaultSite site, SimTime now) {
  SiteState& s = site_(site);
  if (!s.plan.enabled()) {
    return {};
  }
  ++s.evaluations;
  FaultMetrics& metrics = FaultMetrics::Get();
  metrics.evaluations[static_cast<size_t>(site)]->Inc();

  // Hard outages fail deterministically: the link/device is down, nothing
  // was delivered, no randomness involved.
  for (const auto& [start, end] : s.plan.outages) {
    if (now >= start && now < end) {
      ++s.injected;
      metrics.injected[static_cast<size_t>(site)]->Inc();
      return {true, false};
    }
  }

  double p = s.plan.probability;
  if (s.plan.burst_period.ticks() > 0 && s.plan.burst_length.ticks() > 0) {
    const int64_t phase = now.ticks() % s.plan.burst_period.ticks();
    if (phase < s.plan.burst_length.ticks()) {
      p = std::max(p, s.plan.burst_probability);
    }
  }
  FaultOutcome outcome;
  outcome.fail = s.rng.Bernoulli(p);
  if (outcome.fail) {
    ++s.injected;
    metrics.injected[static_cast<size_t>(site)]->Inc();
    if (s.plan.ack_loss_fraction > 0.0) {
      outcome.ack_lost = s.rng.Bernoulli(s.plan.ack_loss_fraction);
    }
  }
  return outcome;
}

}  // namespace ntrace
