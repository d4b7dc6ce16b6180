#include "src/fault/chaos.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/analysis/trace_scan.h"
#include "src/base/rng.h"
#include "src/replay/trace_replayer.h"
#include "src/trace/extent_store.h"

namespace ntrace {
namespace {

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return bytes;
  }
  uint8_t buf[1 << 14];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

bool WriteFileBytes(const std::string& path, const uint8_t* data, size_t len) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const bool ok = len == 0 || std::fwrite(data, 1, len, f) == len;
  std::fclose(f);
  return ok;
}

// Every surviving record of a store file in stream order, plus its salvage
// accounting.
std::vector<TraceRecord> RecoveredRows(const std::string& path, ExtentReadStats* stats) {
  ExtentStreamReader reader;
  std::vector<TraceRecord> rows;
  if (reader.Open(path)) {
    ColumnarExtent extent;
    while (reader.NextExtent(&extent)) {
      for (size_t i = 0; i < extent.size(); ++i) {
        rows.push_back(extent.RowAt(i));
      }
    }
  }
  *stats = reader.stats();
  return rows;
}

uint64_t LostTotal(const SystemIntegrity& t) {
  return t.records_overflow_dropped + t.records_shed + t.records_lost + t.records_unresolved +
         t.records_lost_to_corruption;
}

// The first system whose records or names differ between two collections,
// compared system by system, so a system-major store meets a time-merged
// replay; empty when every system's stream is identical.
std::string FirstSystemMismatch(const TraceSet& stored, const TraceSet& replayed) {
  std::vector<uint32_t> ids = stored.SystemIds();
  const std::vector<uint32_t> more = replayed.SystemIds();
  ids.insert(ids.end(), more.begin(), more.end());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (const uint32_t id : ids) {
    const FidelityReport fid = CheckFidelity(stored.ForSystem(id), replayed.ForSystem(id));
    if (!fid.exact()) {
      return "sys" + std::to_string(id) + ": " + fid.detail;
    }
  }
  return "";
}

void Fail(ChaosTrialResult* out, std::string invariant, std::string detail) {
  out->failures.push_back({std::move(invariant), std::move(detail)});
}

// The trial fleet: three systems, one day, scaled down to the campaign's
// per-trial budget. Durability + salvage + columnar spill are always on --
// the campaign is about the degraded paths, and a clean trial exercises
// them at zero cost.
FleetConfig TrialFleetConfig(const ChaosPlan& plan, const ChaosCampaignConfig& config,
                             const std::string& dir) {
  FleetConfig fc;
  fc.walk_up = 1;
  fc.pool = 1;
  fc.personal = 1;
  fc.administrative = 0;
  fc.scientific = 0;
  fc.days = 1;
  fc.seed = plan.trial_seed;
  fc.activity_scale = config.activity_scale;
  fc.content_scale = 0.05;
  fc.threads = plan.threads;

  fc.fault_config.seed = plan.trial_seed ^ 0xFA17;
  fc.fault_config.shipment.probability = plan.shipment_probability;
  fc.fault_config.shipment.ack_loss_fraction = plan.shipment_ack_loss;
  fc.fault_config.disk_read.probability = plan.disk_read_probability;
  fc.fault_config.disk_write.probability = plan.disk_write_probability;
  fc.fault_config.crash = plan.crash;

  fc.durability.spool_dir = dir + "/spool";
  fc.durability.salvage = true;
  fc.durability.max_restarts = 2;
  // A hung worker should cost the trial ~a second, not the default 30.
  fc.durability.watchdog_deadline_s = 1.0;
  fc.columnar_dir = dir + "/col";

  if (plan.net) {
    fc.net.enabled = true;
    fc.net.transport_faults = plan.transport;
    fc.net.fault_seed = plan.trial_seed ^ 0xBEEF;
  }
  return fc;
}

// Damages a copy of the merged store at `dst` per the plan. Returns false
// (leaving the input undamaged) when the store is too small to cut.
bool ApplyStoreDamage(const ChaosStoreDamage& damage, const std::vector<uint8_t>& bytes,
                      const std::string& dst) {
  if (!damage.enabled() || bytes.size() <= kExtentStoreHeaderSize + 1) {
    return false;
  }
  const size_t payload = bytes.size() - kExtentStoreHeaderSize;
  size_t pos = kExtentStoreHeaderSize +
               static_cast<size_t>(damage.at_fraction * static_cast<double>(payload));
  pos = std::min(std::max(pos, static_cast<size_t>(kExtentStoreHeaderSize) + 1),
                 bytes.size() - 1);
  if (damage.kind == ChaosStoreDamage::Kind::kTruncate) {
    return WriteFileBytes(dst, bytes.data(), pos);
  }
  std::vector<uint8_t> flipped = bytes;
  flipped[pos] ^= static_cast<uint8_t>(1u << (pos % 8));
  return WriteFileBytes(dst, flipped.data(), flipped.size());
}

std::string DescribeFailure(const ChaosTrialResult& r) {
  std::string s;
  for (const ChaosInvariantFailure& f : r.failures) {
    if (!s.empty()) {
      s += "; ";
    }
    s += f.invariant + ": " + f.detail;
  }
  return s;
}

}  // namespace

int ChaosPlan::FamilyCount() const {
  return (crash.enabled() ? 1 : 0) + (shipment_probability > 0.0 ? 1 : 0) +
         (disk_read_probability > 0.0 || disk_write_probability > 0.0 ? 1 : 0) +
         (net && transport.enabled() ? 1 : 0) + (damage.enabled() ? 1 : 0);
}

std::string ChaosPlan::Describe() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "seed=0x%llx threads=%d",
                static_cast<unsigned long long>(trial_seed), threads);
  std::string s = buf;
  if (crash.enabled()) {
    std::snprintf(buf, sizeof(buf), " crash=%.*s sys%u@ev%llu att%d",
                  static_cast<int>(CrashKindName(crash.kind).size()),
                  CrashKindName(crash.kind).data(), crash.system_id,
                  static_cast<unsigned long long>(crash.at_event), crash.at_attempt);
    s += buf;
  }
  if (shipment_probability > 0.0) {
    std::snprintf(buf, sizeof(buf), " ship=%.3f/ack%.2f", shipment_probability,
                  shipment_ack_loss);
    s += buf;
  }
  if (disk_read_probability > 0.0 || disk_write_probability > 0.0) {
    std::snprintf(buf, sizeof(buf), " disk=r%.3f/w%.3f", disk_read_probability,
                  disk_write_probability);
    s += buf;
  }
  if (net && transport.enabled()) {
    std::snprintf(buf, sizeof(buf), " net[rst=%.3f,tear=%.3f,dup=%.3f,ord=%.3f,stall=%.3f]",
                  transport.reset_probability, transport.partial_write_probability,
                  transport.duplicate_probability, transport.reorder_probability,
                  transport.stall_probability);
    s += buf;
  }
  if (damage.enabled()) {
    std::snprintf(buf, sizeof(buf), " damage=%s@%.2f",
                  damage.kind == ChaosStoreDamage::Kind::kTruncate ? "truncate" : "bitflip",
                  damage.at_fraction);
    s += buf;
  }
  return s;
}

ChaosPlan DrawChaosPlan(uint64_t campaign_seed, int trial_index) {
  Rng rng(campaign_seed + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(trial_index + 1));
  ChaosPlan plan;
  plan.trial_seed = rng.NextU64();
  plan.threads = static_cast<int>(rng.UniformInt(1, 3));
  if (rng.Bernoulli(0.55)) {
    // Hang trials cost a watchdog deadline of wall clock each; keep them rare.
    static constexpr CrashKind kKinds[] = {
        CrashKind::kWorkerCrash, CrashKind::kTornWrite, CrashKind::kBitFlip,
        CrashKind::kWorkerCrash, CrashKind::kTornWrite, CrashKind::kBitFlip,
        CrashKind::kHang,
    };
    plan.crash.kind = kKinds[rng.UniformInt(0, 6)];
    plan.crash.system_id = static_cast<uint32_t>(rng.UniformInt(1, 3));
    plan.crash.at_event = static_cast<uint64_t>(rng.UniformInt(40, 1200));
    // at_attempt 0 = every attempt crashes (system permanently down); hangs
    // always recover, or a 3-restart trial would stall for four deadlines.
    plan.crash.at_attempt =
        plan.crash.kind == CrashKind::kHang ? 1 : (rng.Bernoulli(0.15) ? 0 : 1);
    plan.crash.tear_bytes = static_cast<uint32_t>(rng.UniformInt(1, 128));
    plan.crash.flip_bit = static_cast<uint32_t>(rng.UniformInt(0, 63));
  }
  if (rng.Bernoulli(0.5)) {
    plan.shipment_probability = rng.UniformReal(0.01, 0.12);
    plan.shipment_ack_loss = rng.Bernoulli(0.5) ? 1.0 : rng.UniformReal(0.0, 1.0);
  }
  if (rng.Bernoulli(0.4)) {
    plan.disk_read_probability = rng.UniformReal(0.0, 0.04);
    plan.disk_write_probability = rng.UniformReal(0.0, 0.04);
  }
  if (rng.Bernoulli(0.35)) {
    plan.net = true;
    plan.transport.reset_probability = rng.UniformReal(0.0, 0.02);
    plan.transport.partial_write_probability = rng.UniformReal(0.0, 0.02);
    plan.transport.reorder_probability = rng.UniformReal(0.0, 0.05);
    plan.transport.duplicate_probability = rng.UniformReal(0.0, 0.05);
    plan.transport.delay_probability = rng.UniformReal(0.0, 0.03);
    plan.transport.stall_probability = rng.UniformReal(0.0, 0.01);
    // Stalls are wall-clock sleeps; keep them short and bounded so a trial
    // stays in budget (they still exercise the injection path).
    plan.transport.max_per_kind = 2;
    plan.transport.delay_ms = 1.0;
    plan.transport.stall_ms = 20.0;
  }
  if (rng.Bernoulli(0.5)) {
    plan.damage.kind =
        rng.Bernoulli(0.6) ? ChaosStoreDamage::Kind::kTruncate : ChaosStoreDamage::Kind::kBitFlip;
    plan.damage.at_fraction = rng.UniformReal(0.05, 0.98);
  }
  if (plan.FamilyCount() == 0) {
    plan.damage.kind = ChaosStoreDamage::Kind::kTruncate;
    plan.damage.at_fraction = 0.5;
  }
  return plan;
}

ChaosTrialResult RunChaosTrial(const ChaosPlan& plan, const ChaosCampaignConfig& config,
                               const std::string& trial_dir, bool check_determinism) {
  namespace fs = std::filesystem;
  ChaosTrialResult out;
  out.plan = plan;
  std::error_code ec;
  fs::create_directories(trial_dir, ec);

  const FleetConfig fc = TrialFleetConfig(plan, config, trial_dir + "/a");
  const FleetResult fleet = RunFleet(fc);
  const SystemIntegrity totals = fleet.integrity.Totals();
  out.records_emitted = totals.records_emitted;
  out.records_collected = totals.records_collected;
  out.records_lost_total = LostTotal(totals);
  out.worker_crashes = fleet.recovery.worker_crashes;

  // Test hook: deliberately fail so tests can watch the shrinker work.
  if (config.sabotage_crash_kind != CrashKind::kNone && plan.crash.enabled() &&
      plan.crash.kind == config.sabotage_crash_kind) {
    Fail(&out, "sabotage",
         std::string("deliberate failure on crash kind ") +
             std::string(CrashKindName(plan.crash.kind)));
  }

  // Invariant A: emitted = collected + dropped + shed + lost + unresolved
  // + lost-to-corruption, per system, exactly.
  if (!fleet.integrity.AllAccounted()) {
    for (const SystemIntegrity& s : fleet.integrity.systems) {
      if (!s.Accounted()) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "sys%u emitted=%llu != collected=%llu + lost-terms=%llu", s.system_id,
                      static_cast<unsigned long long>(s.records_emitted),
                      static_cast<unsigned long long>(s.records_collected),
                      static_cast<unsigned long long>(LostTotal(s)));
        Fail(&out, "accounting", buf);
      }
    }
  }

  const std::string merged = fc.columnar_dir + "/merged.ntx";
  const TraceSet full_rows = fleet.columnar.ToRows();
  const std::vector<uint8_t> bytes = ReadFileBytes(merged);
  if (!fleet.columnar_mode || bytes.empty()) {
    Fail(&out, "salvage", "fleet produced no merged columnar store at " + merged);
  }

  // Invariant B: a store truncated at any point salvages to a byte-exact,
  // monotonically growing prefix of the full record stream, and a scan over
  // the salvaged store covers exactly the recovered records.
  if (bytes.size() > kExtentStoreHeaderSize + 1) {
    const std::string cut_path = trial_dir + "/cut.ntx";
    size_t prev_recovered = 0;
    for (const double frac : {0.35, 0.75}) {
      const size_t len =
          kExtentStoreHeaderSize +
          static_cast<size_t>(frac * static_cast<double>(bytes.size() - kExtentStoreHeaderSize));
      if (!WriteFileBytes(cut_path, bytes.data(), len)) {
        Fail(&out, "salvage", "could not write truncated copy " + cut_path);
        break;
      }
      ExtentReadStats stats;
      const std::vector<TraceRecord> rows = RecoveredRows(cut_path, &stats);
      if (rows.size() > full_rows.records.size()) {
        Fail(&out, "salvage", "truncated store recovered more records than the full store");
      } else if (!rows.empty() &&
                 std::memcmp(rows.data(), full_rows.records.data(),
                             rows.size() * sizeof(TraceRecord)) != 0) {
        Fail(&out, "salvage", "salvaged records are not a byte-exact prefix of the stream");
      }
      if (rows.size() < prev_recovered) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "salvage not monotone: cut@%.2f got %zu < %zu", frac,
                      rows.size(), prev_recovered);
        Fail(&out, "salvage", buf);
      }
      prev_recovered = rows.size();
      const TraceScan scan = TraceScan::Run(ColumnarTraceSet::FromFile(cut_path));
      if (scan.records_scanned != rows.size()) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "scan covered %llu of %zu salvaged records",
                      static_cast<unsigned long long>(scan.records_scanned), rows.size());
        Fail(&out, "salvage", buf);
      }
      if (scan.records_lost_known < stats.records_lost_known) {
        Fail(&out, "salvage", "scan under-reports the store's known loss");
      }
    }
  }

  // Invariant C: the identical plan at a different worker count reproduces
  // the merged trace bit-for-bit.
  if (check_determinism) {
    FleetConfig fc2 = TrialFleetConfig(plan, config, trial_dir + "/b");
    fc2.threads = plan.threads == 1 ? 2 : 1;
    const FleetResult again = RunFleet(fc2);
    const TraceSet rows2 = again.columnar.ToRows();
    if (full_rows.records.size() != rows2.records.size() ||
        TraceFingerprint(full_rows) != TraceFingerprint(rows2)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "threads=%d records=%zu fp=%u vs threads=%d records=%zu fp=%u", plan.threads,
                    full_rows.records.size(), TraceFingerprint(full_rows), fc2.threads,
                    rows2.records.size(), TraceFingerprint(rows2));
      Fail(&out, "determinism", buf);
    }
    out.determinism_checked = true;
  }

  // Invariant D: gap-tolerant replay of the (possibly damaged) store
  // terminates with every gap absorbed, and the identity clause below.
  std::string replay_path = merged;
  bool damage_applied = false;
  if (plan.damage.enabled()) {
    const std::string damaged_path = trial_dir + "/damaged.ntx";
    if (ApplyStoreDamage(plan.damage, bytes, damaged_path)) {
      replay_path = damaged_path;
      damage_applied = true;
    }
  }
  const ColumnarTraceSet input = ColumnarTraceSet::FromFile(replay_path);
  out.store_records = input.record_count();

  ReplayOptions opts;
  opts.tolerate_gaps = true;
  opts.salvage = SalvageInfoFromStats(input.read_stats());
  const ReplaySalvageInfo coll = SalvageInfoFromIntegrity(fleet.integrity);
  opts.salvage.records_lost_known += coll.records_lost_known;
  opts.salvage.names_lost = opts.salvage.names_lost || coll.names_lost;

  const TraceReplayer replayer(fc);
  const FleetReplayResult replay = replayer.Replay(input, opts, 1);
  out.replay_records = replay.trace.records.size();
  out.replay_synthesized_ops = replay.degraded.synthesized_ops();
  out.replay_gaps = replay.degraded.gaps_detected;

  if (replay.divergence.missing_file_objects != 0 || replay.divergence.missing_names != 0) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "gap tolerance leaked %llu missing objects, %llu missing names",
                  static_cast<unsigned long long>(replay.divergence.missing_file_objects),
                  static_cast<unsigned long long>(replay.divergence.missing_names));
    Fail(&out, "replay", buf);
  }
  if (opts.salvage.lossy() && !replay.degraded.degraded) {
    Fail(&out, "replay", "lossy input did not mark the replay degraded");
  }

  // A trial whose only loss is unresolved records must replay byte-identically,
  // even with gap tolerance armed: those records never reach the store, and
  // the replayed stack leaves the same ones unresolved. Per-operation fault
  // schedules are excluded (their zero-loss envelope is seed-dependent, which
  // is the fidelity suite's territory, not an any-plan invariant). The store
  // is system-major and the replay time-merged, so each system's stream is
  // compared on its own. Unresolved records count as known loss, so only a
  // trial that lost nothing at all must also synthesize nothing.
  const bool per_op_faults = plan.shipment_probability > 0.0 ||
                             plan.disk_read_probability > 0.0 ||
                             plan.disk_write_probability > 0.0;
  if (out.records_lost_total == totals.records_unresolved && !damage_applied && !per_op_faults) {
    out.identity_checked = true;
    const std::string mismatch = FirstSystemMismatch(full_rows, replay.trace);
    if (!mismatch.empty() || replay.divergence.total() != 0) {
      Fail(&out, "replay", "trial did not replay byte-identically: " +
                               (mismatch.empty() ? std::string("divergence") : mismatch));
    }
    if (out.records_lost_total == 0 &&
        (replay.degraded.synthesized_ops() != 0 || replay.degraded.gaps_detected != 0)) {
      Fail(&out, "replay", "clean input triggered gap synthesis");
    }
  }

  fs::remove_all(trial_dir, ec);
  return out;
}

ChaosPlan ShrinkChaosPlan(const ChaosPlan& failing, const ChaosCampaignConfig& config,
                          int* runs_used) {
  ChaosPlan best = failing;
  int runs = 0;
  const std::string dir = config.work_dir + "/shrink";
  auto still_fails = [&](const ChaosPlan& candidate) {
    ++runs;
    return !RunChaosTrial(candidate, config, dir, /*check_determinism=*/false).ok();
  };

  bool improved = true;
  while (improved && runs < config.shrink_budget) {
    improved = false;
    std::vector<ChaosPlan> candidates;
    auto with = [&](auto&& edit) {
      ChaosPlan c = best;
      edit(c);
      candidates.push_back(c);
    };
    if (best.damage.enabled()) {
      with([](ChaosPlan& c) { c.damage = {}; });
    }
    if (best.net) {
      with([](ChaosPlan& c) {
        c.net = false;
        c.transport = {};
      });
    }
    if (best.shipment_probability > 0.0) {
      with([](ChaosPlan& c) {
        c.shipment_probability = 0.0;
        c.shipment_ack_loss = 0.0;
      });
    }
    if (best.disk_read_probability > 0.0 || best.disk_write_probability > 0.0) {
      with([](ChaosPlan& c) {
        c.disk_read_probability = 0.0;
        c.disk_write_probability = 0.0;
      });
    }
    if (best.crash.enabled()) {
      with([](ChaosPlan& c) { c.crash = {}; });
      if (best.crash.at_attempt == 0) {
        with([](ChaosPlan& c) { c.crash.at_attempt = 1; });
      }
    }
    if (best.threads != 1) {
      with([](ChaosPlan& c) { c.threads = 1; });
    }
    for (const ChaosPlan& c : candidates) {
      if (runs >= config.shrink_budget) {
        break;
      }
      if (still_fails(c)) {
        best = c;
        improved = true;
        break;
      }
    }
  }
  *runs_used = runs;
  return best;
}

ChaosCampaignResult RunChaosCampaign(const ChaosCampaignConfig& config) {
  namespace fs = std::filesystem;
  ChaosCampaignResult out;
  ChaosCampaignConfig cfg = config;
  if (cfg.work_dir.empty()) {
    std::error_code ec;
    cfg.work_dir = (fs::temp_directory_path(ec) / "ntrace_chaos").string();
  }

  for (int i = 0; i < cfg.trials; ++i) {
    const ChaosPlan plan = DrawChaosPlan(cfg.seed, i);
    out.crash_trials += plan.crash.enabled() ? 1 : 0;
    out.shipment_trials += plan.shipment_probability > 0.0 ? 1 : 0;
    out.disk_trials +=
        plan.disk_read_probability > 0.0 || plan.disk_write_probability > 0.0 ? 1 : 0;
    out.transport_trials += plan.net && plan.transport.enabled() ? 1 : 0;
    out.damage_trials += plan.damage.enabled() ? 1 : 0;

    const bool det = cfg.determinism_every > 0 && i % cfg.determinism_every == 0;
    const ChaosTrialResult r =
        RunChaosTrial(plan, cfg, cfg.work_dir + "/t" + std::to_string(i), det);
    ++out.trials_run;
    out.determinism_checks += r.determinism_checked ? 1 : 0;
    out.identity_checks += r.identity_checked ? 1 : 0;
    out.records_emitted += r.records_emitted;
    out.records_lost_total += r.records_lost_total;
    out.synthesized_ops += r.replay_synthesized_ops;
    if (cfg.verbose) {
      std::printf("chaos trial %3d: %s -- emitted=%llu lost=%llu synth=%llu gaps=%llu %s\n", i,
                  plan.Describe().c_str(), static_cast<unsigned long long>(r.records_emitted),
                  static_cast<unsigned long long>(r.records_lost_total),
                  static_cast<unsigned long long>(r.replay_synthesized_ops),
                  static_cast<unsigned long long>(r.replay_gaps), r.ok() ? "ok" : "FAIL");
      std::fflush(stdout);
    }
    if (!r.ok()) {
      out.failed = true;
      ++out.trials_failed;
      out.first_failure = r;
      std::printf("chaos trial %d FAILED (%s)\n  plan: %s\n  shrinking...\n", i,
                  DescribeFailure(r).c_str(), plan.Describe().c_str());
      out.minimal_plan = ShrinkChaosPlan(plan, cfg, &out.shrink_runs);
      std::printf("  minimal reproducing plan (%d shrink runs): %s\n", out.shrink_runs,
                  out.minimal_plan.Describe().c_str());
      std::fflush(stdout);
      break;
    }
  }
  return out;
}

}  // namespace ntrace
