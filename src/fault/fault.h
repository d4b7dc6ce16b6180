// Deterministic fault injection.
//
// The paper's collection pipeline ran unattended for four weeks on ~45
// machines shipping ~190M records over a network, and its trace driver
// carried explicit overflow detection (section 3.2) -- machinery that never
// fires unless something in the pipeline can actually fail. This subsystem
// provides the failures: a seeded, deterministic FaultInjector with one
// FaultPlan per injection site (shipment link, disk reads, disk writes).
// Plans combine a base per-operation probability, periodic burst windows of
// elevated failure, and scheduled hard outages. Every draw comes from a
// per-site RNG stream forked from one seed, so enabling a plan at one site
// never perturbs the schedule of another, and the same seed always produces
// the identical fault schedule (tests assert this).

#ifndef SRC_FAULT_FAULT_H_
#define SRC_FAULT_FAULT_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"

namespace ntrace {

// Where a fault can be injected.
enum class FaultSite : uint8_t {
  kShipment,   // Agent -> collection-server buffer shipment.
  kDiskRead,   // Local media read (paging or non-cached).
  kDiskWrite,  // Local media write (paging or non-cached).
};
constexpr int kNumFaultSites = 3;

// The fault schedule of one site.
struct FaultPlan {
  // Base per-operation failure probability.
  double probability = 0.0;

  // Periodic burst windows: within [k*period, k*period + length) the failure
  // probability is raised to burst_probability. A zero period disables bursts.
  SimDuration burst_period{};
  SimDuration burst_length{};
  double burst_probability = 1.0;

  // Scheduled hard outages: inside any [start, end) window every operation
  // fails unconditionally (no randomness -- models a dead link/device).
  std::vector<std::pair<SimTime, SimTime>> outages;

  // Shipment site only: fraction of injected failures where the payload was
  // actually delivered but the acknowledgement was lost, so the sender
  // retries and the receiver sees a duplicate sequence number.
  double ack_loss_fraction = 0.0;

  bool enabled() const {
    return probability > 0.0 ||
           (burst_period.ticks() > 0 && burst_length.ticks() > 0 && burst_probability > 0.0) ||
           !outages.empty();
  }
};

// Crash fault kinds (DESIGN.md §10). Unlike the per-operation sites above,
// a crash kills a whole simulated system mid-run: the fleet supervisor
// arms the plan on the victim system's collection path and the worker dies
// (deterministically, at a fixed delivered-record count) the way a traced
// machine in the study would -- leaving a partial trace spool behind. The
// torn-write and bit-flip kinds additionally damage the tail of that spool
// segment, exercising the salvage reader.
enum class CrashKind : uint8_t {
  kNone = 0,
  kWorkerCrash,  // Process death: the partial segment ends at a frame boundary.
  kTornWrite,    // Death mid-write: the segment's final frame is truncated.
  kBitFlip,      // Media corruption: one bit of the segment flips.
  kHang,         // Worker stops making progress until the watchdog cancels it.
};

std::string_view CrashKindName(CrashKind kind);

// Transport fault kinds (DESIGN.md §11). Unlike the per-operation sites
// above -- which model *semantic* failures the agent observes (a shipment
// that never arrives) -- these model the mechanics of a real network link
// under the collection tier: the byte stream tears, duplicates, reorders or
// stalls, and the session layer (src/net) must deliver every record exactly
// once anyway. Injected on the agent side of the socket; the server has to
// survive whatever the wire does to it.
enum class TransportFaultKind : uint8_t {
  kNone = 0,
  kReset,         // Connection closed abruptly before the frame is sent.
  kPartialWrite,  // A prefix of the frame reaches the wire, then the
                  // connection resets (torn frame on the server side).
  kDelay,         // Frame held back briefly before transmission.
  kDuplicate,     // Frame transmitted twice back to back.
  kReorder,       // Frame held back and sent after its successor.
  kStall,         // Socket goes silent long enough to trip deadlines
                  // (agent send timeout / server slow-client eviction).
};
constexpr int kNumTransportFaultKinds = 6;  // Excluding kNone.

// Per-connection transport fault schedule. Each kind fires independently
// with its own per-frame probability; evaluation order is fixed (reset,
// partial-write, stall, reorder, duplicate, delay -- most to least
// disruptive) and the first kind to fire wins, so a given (seed, frame
// index) always injects the same fault. Like FaultPlan, a default
// constructed plan injects nothing and draws nothing.
struct TransportFaultPlan {
  double reset_probability = 0.0;
  double partial_write_probability = 0.0;
  double delay_probability = 0.0;
  double duplicate_probability = 0.0;
  double reorder_probability = 0.0;
  double stall_probability = 0.0;
  // Injections per kind per connection lifetime; 0 = unlimited. Tests cap
  // the expensive kinds (stall sleeps in wall clock) without giving up
  // determinism.
  uint32_t max_per_kind = 0;
  // Wall-clock magnitudes. Delay is cosmetic jitter; the stall must exceed
  // the peer's deadline to be observable.
  double delay_ms = 2.0;
  double stall_ms = 400.0;

  bool enabled() const {
    return reset_probability > 0.0 || partial_write_probability > 0.0 ||
           delay_probability > 0.0 || duplicate_probability > 0.0 || reorder_probability > 0.0 ||
           stall_probability > 0.0;
  }
};

// Draws transport faults for one connection from its own seeded stream
// (stream = agent id, forked the same way FaultInjector forks per-system
// streams). Deterministic: the k-th draw of a given (seed, stream) is the
// same fault on every run, independent of wall clock or scheduling.
class TransportFaultInjector {
 public:
  TransportFaultInjector() = default;
  TransportFaultInjector(const TransportFaultPlan& plan, uint64_t seed, uint64_t stream);

  // Evaluates one outbound frame. Returns the first kind that fires (fixed
  // evaluation order), or kNone.
  TransportFaultKind Draw();

  const TransportFaultPlan& plan() const { return plan_; }
  uint64_t draws() const { return draws_; }
  uint64_t injected(TransportFaultKind kind) const {
    return kind == TransportFaultKind::kNone ? 0 : injected_[static_cast<size_t>(kind) - 1];
  }

 private:
  TransportFaultPlan plan_;
  Rng rng_;
  uint64_t draws_ = 0;
  uint64_t injected_[kNumTransportFaultKinds] = {};
};

struct CrashPlan {
  CrashKind kind = CrashKind::kNone;
  // 1-based id of the victim system (0 disables the plan).
  uint32_t system_id = 0;
  // Fires when the victim has delivered this many trace records to its
  // collection server -- a deterministic event count, independent of wall
  // clock, thread count and scheduling.
  uint64_t at_event = 0;
  // Which simulation attempt crashes: 1 = first run only (the restart
  // succeeds), 0 = every attempt (the system is permanently down until a
  // later fleet invocation resumes with the plan disabled).
  int at_attempt = 1;
  // kTornWrite: bytes chopped off the end of the partial segment.
  uint32_t tear_bytes = 37;
  // kBitFlip: bit index flipped, counted from the middle of the segment
  // (deterministic damage without a separate RNG stream).
  uint32_t flip_bit = 3;

  bool enabled() const { return kind != CrashKind::kNone && system_id != 0; }
};

// Result of evaluating one operation against a site's plan.
struct FaultOutcome {
  bool fail = false;
  // Only meaningful when fail: the operation succeeded on the far side but
  // the initiator observes a failure (lost acknowledgement).
  bool ack_lost = false;
};

// Per-fleet fault schedule: one plan per site plus the fault-stream seed.
// Strictly opt-in -- a default-constructed config injects nothing and causes
// zero RNG draws, so runs without faults are bit-identical to runs that
// predate the fault layer.
struct FaultConfig {
  uint64_t seed = 0xFA17;
  FaultPlan shipment;
  FaultPlan disk_read;
  FaultPlan disk_write;
  // Worker-crash schedule, consumed by the fleet supervisor rather than the
  // per-operation injector; deliberately excluded from enabled() so arming
  // a crash never changes whether a system builds a FaultInjector (the
  // simulated stream must be bit-identical with and without the crash).
  CrashPlan crash;

  bool enabled() const {
    return shipment.enabled() || disk_read.enabled() || disk_write.enabled();
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0xFA17);
  // Builds an injector carrying the config's plans, seeded per `stream` (the
  // fleet passes the system id so every machine gets an independent stream).
  FaultInjector(const FaultConfig& config, uint64_t stream);

  void SetPlan(FaultSite site, FaultPlan plan);
  const FaultPlan& plan(FaultSite site) const { return site_(site).plan; }
  bool enabled(FaultSite site) const { return site_(site).plan.enabled(); }

  // Evaluates one operation at simulated time `now`. Deterministic: the
  // outcome is a pure function of (seed, site, call index, now).
  FaultOutcome Evaluate(FaultSite site, SimTime now);
  bool ShouldFail(FaultSite site, SimTime now) { return Evaluate(site, now).fail; }

  uint64_t evaluations(FaultSite site) const { return site_(site).evaluations; }
  uint64_t injected(FaultSite site) const { return site_(site).injected; }

 private:
  struct SiteState {
    FaultPlan plan;
    Rng rng;
    uint64_t evaluations = 0;
    uint64_t injected = 0;
  };

  const SiteState& site_(FaultSite site) const {
    return sites_[static_cast<size_t>(site)];
  }
  SiteState& site_(FaultSite site) { return sites_[static_cast<size_t>(site)]; }

  std::array<SiteState, kNumFaultSites> sites_;
};

}  // namespace ntrace

#endif  // SRC_FAULT_FAULT_H_
