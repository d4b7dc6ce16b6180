// Crash-recovery contract of the durable fleet (DESIGN.md §10):
//  - a worker crash at ANY deterministic crash point, of any kind, under
//    any thread count, followed by supervisor restart, yields a merged
//    trace byte-identical to an uninterrupted run;
//  - a second fleet invocation resumes from sealed spool segments instead
//    of re-simulating, again byte-identically;
//  - exhausted restarts drop the system but keep the integrity identity;
//  - salvage mode replays the valid prefix of a damaged segment and charges
//    the remainder to records_lost_to_corruption, never silently;
//  - a hung worker is cancelled by the deadline watchdog and restarted.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/trace/spool.h"
#include "src/workload/fleet.h"
#include "tests/test_util.h"

namespace ntrace {
namespace {

FleetConfig BaseConfig() {
  FleetConfig config;
  config.walk_up = 1;
  config.pool = 1;
  config.personal = 1;
  config.administrative = 1;
  config.scientific = 1;  // 5 systems: victims "first/middle/last" = 1/3/5.
  config.days = 1;
  config.seed = 7;
  config.activity_scale = 0.2;
  config.content_scale = 0.05;
  return config;
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = ScratchPath("fleet_recovery_") + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

// Integrity equality. Salvage fields are compared only when
// `expect_salvage_zero` (a resumed run legitimately reports salvaged
// records; a live rerun must report none).
void ExpectSameIntegrity(const IntegrityReport& a, const IntegrityReport& b,
                         bool expect_salvage_zero) {
  ASSERT_EQ(a.systems.size(), b.systems.size());
  for (size_t i = 0; i < a.systems.size(); ++i) {
    const SystemIntegrity& x = a.systems[i];
    const SystemIntegrity& y = b.systems[i];
    EXPECT_EQ(x.system_id, y.system_id);
    EXPECT_EQ(x.records_emitted, y.records_emitted);
    EXPECT_EQ(x.records_overflow_dropped, y.records_overflow_dropped);
    EXPECT_EQ(x.records_shed, y.records_shed);
    EXPECT_EQ(x.records_lost, y.records_lost);
    EXPECT_EQ(x.records_unresolved, y.records_unresolved);
    EXPECT_EQ(x.shipments_sent, y.shipments_sent);
    EXPECT_EQ(x.shipment_attempts, y.shipment_attempts);
    EXPECT_EQ(x.shipment_failures, y.shipment_failures);
    EXPECT_EQ(x.shipments_abandoned, y.shipments_abandoned);
    EXPECT_EQ(x.shipments_received, y.shipments_received);
    EXPECT_EQ(x.duplicate_shipments, y.duplicate_shipments);
    EXPECT_EQ(x.out_of_order_shipments, y.out_of_order_shipments);
    EXPECT_EQ(x.sequence_gaps, y.sequence_gaps);
    EXPECT_EQ(x.records_collected, y.records_collected);
    EXPECT_EQ(x.duplicate_records_discarded, y.duplicate_records_discarded);
    EXPECT_EQ(x.records_lost_to_corruption, y.records_lost_to_corruption);
    if (expect_salvage_zero) {
      EXPECT_EQ(y.records_salvaged, 0u);
    }
  }
}

struct Reference {
  FleetResult result;
  std::vector<uint8_t> bytes;
};

const Reference& UninterruptedReference() {
  static const Reference* ref = [] {
    auto* r = new Reference;
    r->result = RunFleet(BaseConfig());
    r->bytes = SerializedBytes(r->result.trace, "reference");
    return r;
  }();
  return *ref;
}

uint64_t CollectedOf(const FleetResult& result, uint32_t system_id) {
  for (const SystemIntegrity& s : result.integrity.systems) {
    if (s.system_id == system_id) {
      return s.records_collected;
    }
  }
  return 0;
}

// The acceptance sweep: crash kind x victim position x crash point x thread
// count, paired down to one run per kind/thread combination (the full cross
// product re-tests the same code paths at 3x the cost). Every run must be
// byte-identical to the uninterrupted reference after supervisor restart.
TEST(FleetRecovery, CrashRestartSweepIsByteIdentical) {
  const Reference& ref = UninterruptedReference();
  ASSERT_FALSE(ref.bytes.empty());

  struct Case {
    int threads;
    CrashKind kind;
    uint32_t victim;
    int point;  // 0 = first delivery, 1 = mid-run, 2 = near the end.
  };
  const Case cases[] = {
      {1, CrashKind::kWorkerCrash, 1, 1}, {2, CrashKind::kWorkerCrash, 3, 0},
      {8, CrashKind::kWorkerCrash, 5, 2}, {1, CrashKind::kTornWrite, 3, 2},
      {2, CrashKind::kTornWrite, 5, 1},   {8, CrashKind::kTornWrite, 1, 0},
      {1, CrashKind::kBitFlip, 5, 0},     {2, CrashKind::kBitFlip, 1, 2},
      {8, CrashKind::kBitFlip, 3, 1},
  };
  int index = 0;
  for (const Case& c : cases) {
    const uint64_t collected = CollectedOf(ref.result, c.victim);
    ASSERT_GT(collected, 100u);
    const uint64_t at_event =
        c.point == 0 ? 1 : (c.point == 1 ? collected / 2 : collected - 10);

    FleetConfig config = BaseConfig();
    config.threads = c.threads;
    config.durability.spool_dir = FreshDir("sweep_" + std::to_string(index));
    config.fault_config.crash.kind = c.kind;
    config.fault_config.crash.system_id = c.victim;
    config.fault_config.crash.at_event = at_event;
    config.fault_config.crash.at_attempt = 1;

    const FleetResult result = RunFleet(config);
    const std::string tag = std::string(CrashKindName(c.kind)) + " victim=" +
                            std::to_string(c.victim) + " at=" + std::to_string(at_event) +
                            " threads=" + std::to_string(c.threads);
    EXPECT_EQ(result.recovery.worker_crashes, 1u) << tag;
    EXPECT_EQ(result.recovery.worker_restarts, 1u) << tag;
    EXPECT_EQ(result.recovery.systems_failed, 0u) << tag;
    EXPECT_EQ(result.recovery.segments_sealed, 5u) << tag;
    if (at_event > 1) {
      // The crash left a readable partial behind (bit-flip damage can land
      // in the one frame written when at_event == 1, so only assert here).
      EXPECT_GT(result.recovery.partial_records_salvageable, 0u) << tag;
    }
    EXPECT_TRUE(SerializedBytes(result.trace, "sweep_" + std::to_string(index)) == ref.bytes)
        << tag << ": crashed-and-restarted trace differs from uninterrupted run";
    ExpectSameIntegrity(ref.result.integrity, result.integrity,
                        /*expect_salvage_zero=*/true);
    EXPECT_TRUE(result.integrity.AllAccounted()) << tag;
    std::filesystem::remove_all(config.durability.spool_dir);
    ++index;
  }
}

TEST(FleetRecovery, SecondInvocationResumesFromSealedSegments) {
  const Reference& ref = UninterruptedReference();
  FleetConfig config = BaseConfig();
  config.threads = 2;
  config.durability.spool_dir = FreshDir("resume");

  const FleetResult first = RunFleet(config);
  EXPECT_EQ(first.recovery.systems_simulated, 5u);
  EXPECT_EQ(first.recovery.segments_sealed, 5u);
  EXPECT_TRUE(SerializedBytes(first.trace, "resume_first") == ref.bytes)
      << "durable run differs from non-durable reference";

  // Same config, same spool dir: nothing is re-simulated, and the output is
  // still byte-identical -- replaying sealed segments through a fresh
  // collection server reproduces the identical merged trace and counters.
  const FleetResult second = RunFleet(config);
  EXPECT_EQ(second.recovery.systems_resumed, 5u);
  EXPECT_EQ(second.recovery.systems_simulated, 0u);
  EXPECT_EQ(second.recovery.records_salvaged,
            ref.result.integrity.Totals().records_collected);
  EXPECT_EQ(second.recovery.records_lost_to_corruption, 0u);
  EXPECT_TRUE(SerializedBytes(second.trace, "resume_second") == ref.bytes)
      << "resumed trace differs from uninterrupted run";
  ExpectSameIntegrity(ref.result.integrity, second.integrity,
                      /*expect_salvage_zero=*/false);
  for (const SystemIntegrity& s : second.integrity.systems) {
    EXPECT_EQ(s.records_salvaged, s.records_collected);
  }
  EXPECT_TRUE(second.integrity.AllAccounted());

  // A config change must invalidate the checkpoint (fingerprint mismatch):
  // everything is re-simulated, nothing resumed.
  FleetConfig changed = config;
  changed.seed = 8;
  const FleetResult third = RunFleet(changed);
  EXPECT_EQ(third.recovery.systems_resumed, 0u);
  EXPECT_EQ(third.recovery.systems_simulated, 5u);
  std::filesystem::remove_all(config.durability.spool_dir);
}

TEST(FleetRecovery, ExhaustedRestartsDropSystemThenLaterRunRepairsIt) {
  const Reference& ref = UninterruptedReference();
  FleetConfig config = BaseConfig();
  config.durability.spool_dir = FreshDir("exhaust");
  config.durability.max_restarts = 1;
  config.fault_config.crash.kind = CrashKind::kWorkerCrash;
  config.fault_config.crash.system_id = 3;
  config.fault_config.crash.at_event = 50;
  config.fault_config.crash.at_attempt = 0;  // Every attempt crashes.

  const FleetResult crashed = RunFleet(config);
  EXPECT_EQ(crashed.recovery.worker_crashes, 2u);  // Initial + one restart.
  EXPECT_EQ(crashed.recovery.worker_restarts, 1u);
  EXPECT_EQ(crashed.recovery.systems_failed, 1u);
  EXPECT_EQ(crashed.recovery.failed_system_ids, std::vector<uint32_t>{3});
  EXPECT_EQ(crashed.recovery.segments_sealed, 4u);
  ASSERT_EQ(crashed.integrity.systems.size(), 4u);
  for (const SystemIntegrity& s : crashed.integrity.systems) {
    EXPECT_NE(s.system_id, 3u);
  }
  EXPECT_TRUE(crashed.integrity.AllAccounted());
  EXPECT_LT(crashed.trace.records.size(), ref.result.trace.records.size());

  // Next invocation, crash cleared (the flaky machine was fixed): the four
  // sealed systems resume, system 3 is simulated live, and the final trace
  // is byte-identical to a run that never crashed at all.
  FleetConfig repaired = config;
  repaired.fault_config.crash = CrashPlan{};
  const FleetResult result = RunFleet(repaired);
  EXPECT_EQ(result.recovery.systems_resumed, 4u);
  EXPECT_EQ(result.recovery.systems_simulated, 1u);
  EXPECT_EQ(result.recovery.segments_sealed, 5u);
  EXPECT_TRUE(SerializedBytes(result.trace, "exhaust_repaired") == ref.bytes)
      << "repaired run differs from uninterrupted run";
  EXPECT_TRUE(result.integrity.AllAccounted());
  std::filesystem::remove_all(config.durability.spool_dir);
}

TEST(FleetRecovery, SalvageModeReplaysPrefixAndChargesCorruption) {
  const Reference& ref = UninterruptedReference();
  FleetConfig config = BaseConfig();
  config.durability.spool_dir = FreshDir("salvage");
  const FleetResult first = RunFleet(config);
  ASSERT_EQ(first.recovery.segments_sealed, 5u);

  // Bit rot after the fact: damage the middle of system 2's sealed segment.
  const std::string victim_path = config.durability.spool_dir + "/sys_2.ntspool";
  {
    std::FILE* f = std::fopen(victim_path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    ASSERT_GT(size, 1000);
    std::fseek(f, size / 2, SEEK_SET);
    const int byte = std::fgetc(f);
    std::fseek(f, size / 2, SEEK_SET);
    std::fputc(byte ^ 0x10, f);
    std::fclose(f);
  }

  // Without salvage, the damaged segment is simply re-simulated: full
  // recovery, nothing lost.
  const FleetResult strict = RunFleet(config);
  EXPECT_EQ(strict.recovery.systems_resumed, 4u);
  EXPECT_EQ(strict.recovery.systems_simulated, 1u);
  EXPECT_TRUE(SerializedBytes(strict.trace, "salvage_strict") == ref.bytes);

  // Re-damage (the strict run resealed it) and salvage: the valid prefix is
  // replayed, the checkpoint manifest supplies the live collected count, and
  // the shortfall is charged to records_lost_to_corruption -- the integrity
  // identity stays exact, partial recovery is never reported as complete.
  {
    std::FILE* f = std::fopen(victim_path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, size / 2, SEEK_SET);
    const int byte = std::fgetc(f);
    std::fseek(f, size / 2, SEEK_SET);
    std::fputc(byte ^ 0x10, f);
    std::fclose(f);
  }
  FleetConfig salvage = config;
  salvage.durability.salvage = true;
  const FleetResult result = RunFleet(salvage);
  EXPECT_EQ(result.recovery.systems_resumed, 4u);
  EXPECT_EQ(result.recovery.systems_salvaged, 1u);
  EXPECT_EQ(result.recovery.systems_simulated, 0u);
  EXPECT_GT(result.recovery.records_salvaged, 0u);
  EXPECT_GT(result.recovery.records_lost_to_corruption, 0u);
  EXPECT_TRUE(result.integrity.AllAccounted())
      << "salvage must keep the integrity identity exact";
  const uint64_t live_collected = CollectedOf(ref.result, 2);
  uint64_t salvaged = 0, lost = 0;
  for (const SystemIntegrity& s : result.integrity.systems) {
    if (s.system_id == 2) {
      salvaged = s.records_salvaged;
      lost = s.records_lost_to_corruption;
      EXPECT_EQ(s.records_collected, s.records_salvaged);
    }
  }
  EXPECT_EQ(salvaged + lost, live_collected)
      << "salvaged prefix + corruption loss must equal the live run's collection";
  EXPECT_LT(result.trace.records.size(), ref.result.trace.records.size());
  std::filesystem::remove_all(config.durability.spool_dir);
}

TEST(FleetRecovery, WatchdogCancelsHungWorkerAndRestartRecovers) {
  const Reference& ref = UninterruptedReference();
  FleetConfig config = BaseConfig();
  config.threads = 2;
  config.durability.spool_dir = FreshDir("hang");
  config.durability.watchdog_deadline_s = 0.2;
  config.fault_config.crash.kind = CrashKind::kHang;
  config.fault_config.crash.system_id = 4;
  config.fault_config.crash.at_event = 100;
  config.fault_config.crash.at_attempt = 1;

  const FleetResult result = RunFleet(config);
  EXPECT_GE(result.recovery.watchdog_cancellations, 1u);
  EXPECT_EQ(result.recovery.worker_crashes, 1u);
  EXPECT_EQ(result.recovery.worker_restarts, 1u);
  EXPECT_TRUE(SerializedBytes(result.trace, "hang") == ref.bytes)
      << "hung-and-restarted trace differs from uninterrupted run";
  std::filesystem::remove_all(config.durability.spool_dir);
}

TEST(FleetRecovery, SpoolDirectoryLayout) {
  FleetConfig config = BaseConfig();
  config.durability.spool_dir = FreshDir("layout");
  const FleetResult result = RunFleet(config);
  ASSERT_EQ(result.recovery.segments_sealed, 5u);
  for (uint32_t id = 1; id <= 5; ++id) {
    const SpoolReadResult r =
        SpoolReader::Read(config.durability.spool_dir + "/sys_" + std::to_string(id) +
                          ".ntspool");
    EXPECT_TRUE(r.sealed) << "sys " << id;
    EXPECT_EQ(r.system_id, id);
    EXPECT_EQ(r.records_recovered, CollectedOf(result, id)) << "sys " << id;
    EXPECT_FALSE(r.completion.empty()) << "sys " << id;
  }
  const SpoolReadResult manifest =
      SpoolReader::Read(config.durability.spool_dir + "/manifest.ntspool");
  ASSERT_TRUE(manifest.header_valid);
  ASSERT_EQ(manifest.manifest.size(), 5u);
  for (const SpoolManifestEntry& e : manifest.manifest) {
    EXPECT_EQ(e.records_collected, CollectedOf(result, e.system_id));
    EXPECT_EQ(e.segment_file, "sys_" + std::to_string(e.system_id) + ".ntspool");
  }
  std::filesystem::remove_all(config.durability.spool_dir);
}

}  // namespace
}  // namespace ntrace
