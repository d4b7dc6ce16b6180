// Cross-layer chaos campaign engine (DESIGN.md §16).
//
// The fault layer can kill a worker mid-run, tear the bytes it spooled,
// reset and reorder the collection transport, and fail disk I/O -- each
// injector is exercised by its own tests, one family at a time. What those
// tests cannot answer is whether the pipeline's global guarantees survive
// the *composition*: a worker that crashes while its transport is dropping
// frames and the merged store then loses its tail to a torn write. A
// ChaosPlan composes the existing injectors over a seeded randomized
// schedule; RunChaosCampaign drives N independent trials end to end
// (fleet -> spool -> net -> columnar -> scan -> gap-tolerant replay) and
// checks the invariants that must hold for ANY plan:
//
//   A  accounting    every emitted record is collected, dropped, shed,
//                    lost, unresolved or lost-to-corruption -- exactly once
//                    (IntegrityReport::AllAccounted).
//   B  salvage       a store truncated at any point yields a byte-identical
//                    prefix of the full record stream, monotonically more
//                    of it the later the cut, and a scan over the salvaged
//                    store covers exactly the recovered records.
//   C  determinism   re-running the identical plan at a different worker
//                    count reproduces the merged trace bit-for-bit.
//   D  replay        gap-tolerant replay of the (possibly damaged) store
//                    terminates with every gap absorbed -- no missing-object
//                    divergence -- and degrades exactly when the input was
//                    lossy; a trial whose only loss is unresolved records
//                    (no per-operation fault, no store damage) replays each
//                    stored system's stream byte-identically, and one that
//                    lost nothing synthesizes nothing.
//
// A failing trial is re-run under greedy plan shrinking: components are
// removed one at a time while the failure reproduces, converging on a
// minimal plan + seed that a human can replay directly. The
// sabotage_crash_kind hook deliberately fails a fake invariant so tests can
// demonstrate the shrinker on a healthy tree.

#ifndef SRC_FAULT_CHAOS_H_
#define SRC_FAULT_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/workload/fleet.h"

namespace ntrace {

// Post-hoc damage applied to a copy of the merged columnar store before the
// scan/replay stages -- the "media failed after collection" family.
struct ChaosStoreDamage {
  enum class Kind : uint8_t {
    kNone = 0,
    kTruncate,  // Cut the file at at_fraction of its payload bytes.
    kBitFlip,   // Flip one bit at at_fraction of its payload bytes.
  };
  Kind kind = Kind::kNone;
  double at_fraction = 0.5;  // Position within (header, EOF), 0..1.

  bool enabled() const { return kind != Kind::kNone; }
};

// One trial's complete fault composition. Every field is drawn from the
// campaign seed (DrawChaosPlan), so a plan is reproducible from (seed,
// trial index) alone and printable for bug reports (Describe).
struct ChaosPlan {
  uint64_t trial_seed = 1;  // Workload + fault-stream seed of the trial fleet.
  int threads = 1;          // Fleet worker count.
  // Family 1: worker crash / torn write / bit flip / hang mid-run.
  CrashPlan crash;
  // Family 2: semantic shipment faults on the agent->server link.
  double shipment_probability = 0.0;
  double shipment_ack_loss = 0.0;
  // Family 3: local disk media errors (paging + non-cached I/O).
  double disk_read_probability = 0.0;
  double disk_write_probability = 0.0;
  // Family 4: byte-level transport faults under the loopback collection
  // tier (reset / torn frame / reorder / duplicate / delay / stall).
  bool net = false;
  TransportFaultPlan transport;
  // Family 5: post-collection damage to the merged columnar store.
  ChaosStoreDamage damage;

  // Number of active fault families (0-5).
  int FamilyCount() const;
  // One-line human-readable plan, e.g.
  // "seed=0x2b threads=2 crash=torn-write sys2@ev400 ship=0.050/ack0.30
  //  damage=truncate@0.62".
  std::string Describe() const;
};

// What one trial found. `failures` empty means every invariant held.
struct ChaosInvariantFailure {
  std::string invariant;  // "accounting", "salvage", "determinism", "replay", "sabotage".
  std::string detail;
};

struct ChaosTrialResult {
  ChaosPlan plan;
  std::vector<ChaosInvariantFailure> failures;

  // Facts for campaign aggregation / reporting.
  uint64_t records_emitted = 0;
  uint64_t records_collected = 0;
  uint64_t records_lost_total = 0;  // Dropped + shed + lost + unresolved + corruption.
  uint64_t store_records = 0;       // Recovered from the (possibly damaged) store.
  uint64_t replay_records = 0;
  uint64_t replay_synthesized_ops = 0;
  uint64_t replay_gaps = 0;
  uint64_t worker_crashes = 0;
  bool determinism_checked = false;
  bool identity_checked = false;  // Invariant D's per-system identity clause ran.

  bool ok() const { return failures.empty(); }
};

struct ChaosCampaignConfig {
  uint64_t seed = 0xC4A0C4A0;
  int trials = 25;
  // Run the cross-thread determinism re-check (invariant C, doubles the
  // trial's cost) on every Nth trial; 0 disables it.
  int determinism_every = 5;
  // Scratch directory for spool/columnar stores; one subdirectory per
  // trial, removed after the trial.
  std::string work_dir;
  // Workload intensity of the trial fleets (the trial budget knob).
  double activity_scale = 0.05;
  // Trial re-runs the shrinker may spend reducing a failing plan.
  int shrink_budget = 32;
  // Test hook: any plan whose crash kind matches fails a fake "sabotage"
  // invariant, demonstrating failure reporting + shrinking on a healthy
  // tree. kNone (the default) disables the hook.
  CrashKind sabotage_crash_kind = CrashKind::kNone;
  bool verbose = false;  // Per-trial progress lines on stdout.
};

struct ChaosCampaignResult {
  int trials_run = 0;
  int trials_failed = 0;
  // Coverage: trials that composed each fault family.
  int crash_trials = 0;
  int shipment_trials = 0;
  int disk_trials = 0;
  int transport_trials = 0;
  int damage_trials = 0;
  int determinism_checks = 0;
  int identity_checks = 0;  // Trials that ran invariant D's identity clause.
  // Aggregates across trials.
  uint64_t records_emitted = 0;
  uint64_t records_lost_total = 0;
  uint64_t synthesized_ops = 0;
  // The campaign stops at its first failing trial; these carry the failure
  // and its shrunk minimal reproduction.
  bool failed = false;
  ChaosTrialResult first_failure;
  ChaosPlan minimal_plan;
  int shrink_runs = 0;

  int FamiliesCovered() const {
    return (crash_trials > 0 ? 1 : 0) + (shipment_trials > 0 ? 1 : 0) +
           (disk_trials > 0 ? 1 : 0) + (transport_trials > 0 ? 1 : 0) +
           (damage_trials > 0 ? 1 : 0);
  }
  bool ok() const { return !failed; }
};

// The deterministic plan generator: plan i of a campaign seed. Guarantees
// at least one active family per plan.
ChaosPlan DrawChaosPlan(uint64_t campaign_seed, int trial_index);

// Runs one plan end to end in `trial_dir` (created, then removed) and
// checks invariants A, B, D -- plus C when check_determinism is set.
ChaosTrialResult RunChaosTrial(const ChaosPlan& plan, const ChaosCampaignConfig& config,
                               const std::string& trial_dir, bool check_determinism);

// Greedy plan shrinking: repeatedly drops one component (store damage,
// transport, shipment, disk, crash, extra threads) while the trial still
// fails, to a fixpoint or until `config.shrink_budget` re-runs are spent.
// Returns the smallest still-failing plan; *runs_used reports the spend.
ChaosPlan ShrinkChaosPlan(const ChaosPlan& failing, const ChaosCampaignConfig& config,
                          int* runs_used);

// The campaign driver: draws and runs `config.trials` plans, accumulates
// coverage, and on the first failure shrinks it and stops.
ChaosCampaignResult RunChaosCampaign(const ChaosCampaignConfig& config);

}  // namespace ntrace

#endif  // SRC_FAULT_CHAOS_H_
