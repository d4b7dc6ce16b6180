// Replay fidelity contract (DESIGN.md §13): feeding a recorded collection
// back through TraceReplayer under the recording configuration regenerates
// the collection byte-for-byte -- records, names, cache statistics, FastIO
// counters and the curated I/O metrics alike -- for clean and
// fault-injected recordings, row and columnar inputs, at every worker
// count. This is what qualifies the replayer as a what-if engine: a policy
// sweep only means something if the zero-delta point is exactly zero.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/replay/trace_replayer.h"
#include "src/trace/extent_store.h"
#include "src/workload/fleet.h"
#include "tests/test_util.h"

namespace ntrace {
namespace {

FleetConfig SmallConfig() {
  FleetConfig config;
  config.walk_up = 1;
  config.pool = 1;
  config.personal = 1;
  config.administrative = 1;
  config.scientific = 1;
  config.days = 1;
  config.seed = 7;
  config.activity_scale = 0.3;
  config.content_scale = 0.05;
  return config;
}

// Goldens of the SmallConfig recording. The exact replays below reproduce
// this recording at every worker count, so a change that moves any of these
// moved the simulation, not only the replayer.
constexpr size_t kGoldenRecords = 114790;
constexpr size_t kGoldenNames = 10381;
constexpr uint32_t kGoldenFingerprint = 0x43de2edd;

void ExpectGoldenRecording(const FleetResult& fleet) {
  EXPECT_EQ(fleet.trace.records.size(), kGoldenRecords);
  EXPECT_EQ(fleet.trace.names.size(), kGoldenNames);
  EXPECT_EQ(TraceFingerprint(fleet.trace), kGoldenFingerprint);
}

// Fault injection that keeps the collection complete: every shipment fault
// loses only the ack (the payload arrives, the retry is a duplicate the
// server dedupes) and the retry queue is deep enough that shedding never
// fires. Records a fault schedule can drop out of the collection entirely
// (shed, abandoned) are unreplayable by construction -- the replayer can
// only reproduce what was recorded -- so the fidelity contract covers the
// zero-loss fault envelope and the test asserts that precondition.
FleetConfig FaultyConfig() {
  FleetConfig config = SmallConfig();
  // This seed's bursts never wrap the agent's three-buffer ring (no overflow
  // drops) and its section-mapped workload stays clear of the soft-fault
  // blind spot (DESIGN.md §13), so the faulted recording is exactly
  // reproducible while still exercising the link: six shipment failures.
  config.seed = 29;
  config.fault_config.shipment.probability = 0.10;
  config.fault_config.shipment.ack_loss_fraction = 1.0;
  config.fault_config.disk_read.probability = 0.02;
  config.fault_config.disk_write.probability = 0.02;
  config.shipment_policy.retry_queue_limit = 1000;
  config.shipment_policy.shed_watermark = 1000;
  return config;
}

// Counters that must advance identically during recording and replay: the
// per-path dispatch counts of the I/O manager and the cache/VM activity of
// the memory manager (the §9 and figure-13 inputs).
const char* const kPinnedCounters[] = {
    "ntrace_ntio_irp_dispatch_total",
    "ntrace_ntio_fastio_read_accepted_total",
    "ntrace_ntio_fastio_read_rejected_total",
    "ntrace_ntio_fastio_write_accepted_total",
    "ntrace_ntio_fastio_write_rejected_total",
    "ntrace_ntio_app_read_irp_total",
    "ntrace_ntio_app_write_irp_total",
    "ntrace_mm_copy_read_total",
    "ntrace_mm_copy_read_hit_total",
    "ntrace_mm_copy_write_total",
    "ntrace_mm_cache_fault_irp_total",
    "ntrace_mm_cache_fault_bytes_total",
    "ntrace_mm_readahead_irp_total",
    "ntrace_mm_readahead_bytes_total",
    "ntrace_mm_lazy_write_irp_total",
    "ntrace_mm_lazy_write_bytes_total",
    "ntrace_mm_flush_op_total",
    "ntrace_mm_flush_bytes_total",
    "ntrace_mm_paging_retry_total",
    "ntrace_mm_paging_read_error_total",
    "ntrace_mm_paging_write_error_total",
};

void ExpectExactReplay(const FleetResult& fleet, const FleetConfig& config, int threads) {
  TraceReplayer replayer(config);
  const FleetReplayResult replay = replayer.Replay(fleet.trace, ReplayOptions{}, threads);

  const FidelityReport report = CheckFidelity(fleet.trace, replay.trace);
  EXPECT_TRUE(report.identical) << report.detail;
  EXPECT_TRUE(report.names_identical) << report.detail;
  EXPECT_EQ(replay.divergence.total(), 0u)
      << "late=" << replay.divergence.late_ops << " id=" << replay.divergence.id_mismatches
      << " status=" << replay.divergence.status_mismatches
      << " missing_fo=" << replay.divergence.missing_file_objects
      << " missing_names=" << replay.divergence.missing_names
      << " renames=" << replay.divergence.synthesized_renames
      << " patterns=" << replay.divergence.pattern_fallbacks
      << " unsupported=" << replay.divergence.unsupported_ops
      << " saturated=" << replay.divergence.saturated_reserved
      << " unfired=" << replay.divergence.unfired_bursts;
  EXPECT_EQ(TraceFingerprint(fleet.trace), TraceFingerprint(replay.trace));

  // The replay-side cache manager must have done exactly the recorded work.
  const CacheStats recorded = fleet.TotalCache();
  EXPECT_EQ(recorded.copy_reads, replay.cache.copy_reads);
  EXPECT_EQ(recorded.copy_read_hits, replay.cache.copy_read_hits);
  EXPECT_EQ(recorded.copy_read_bytes, replay.cache.copy_read_bytes);
  EXPECT_EQ(recorded.fault_irps, replay.cache.fault_irps);
  EXPECT_EQ(recorded.fault_bytes, replay.cache.fault_bytes);
  EXPECT_EQ(recorded.readahead_irps, replay.cache.readahead_irps);
  EXPECT_EQ(recorded.readahead_bytes, replay.cache.readahead_bytes);
  EXPECT_EQ(recorded.copy_writes, replay.cache.copy_writes);
  EXPECT_EQ(recorded.copy_write_bytes, replay.cache.copy_write_bytes);
  EXPECT_EQ(recorded.lazy_write_irps, replay.cache.lazy_write_irps);
  EXPECT_EQ(recorded.lazy_write_bytes, replay.cache.lazy_write_bytes);
  EXPECT_EQ(recorded.lazy_scans, replay.cache.lazy_scans);
  EXPECT_EQ(recorded.flush_ops, replay.cache.flush_ops);
  EXPECT_EQ(recorded.flush_bytes, replay.cache.flush_bytes);

  EXPECT_EQ(fleet.TotalFastIoReadAttempts(), replay.fastio_read_attempts);
  EXPECT_EQ(fleet.TotalFastIoReadHits(), replay.fastio_read_hits);
  EXPECT_EQ(fleet.TotalFastIoWriteAttempts(), replay.fastio_write_attempts);
  EXPECT_EQ(fleet.TotalFastIoWriteHits(), replay.fastio_write_hits);

  for (const char* name : kPinnedCounters) {
    EXPECT_EQ(fleet.metrics.CounterValue(name), replay.metrics.CounterValue(name)) << name;
  }

  // Per-system: the replay rebuilt each machine, not a statistical twin.
  ASSERT_EQ(fleet.systems.size(), replay.systems.size());
  for (size_t i = 0; i < fleet.systems.size(); ++i) {
    EXPECT_EQ(fleet.systems[i].system_id, replay.systems[i].system_id);
    EXPECT_EQ(fleet.systems[i].cache.copy_reads, replay.systems[i].cache.copy_reads) << i;
    EXPECT_EQ(fleet.systems[i].cache.copy_read_hits, replay.systems[i].cache.copy_read_hits) << i;
    EXPECT_EQ(fleet.systems[i].irp_count, replay.systems[i].irp_count) << i;
  }
}

TEST(ReplayFidelity, CleanRecordingSingleThread) {
  const FleetResult fleet = RunFleet(SmallConfig());
  ASSERT_FALSE(fleet.trace.records.empty());
  ExpectGoldenRecording(fleet);
  ExpectExactReplay(fleet, SmallConfig(), 1);
}

TEST(ReplayFidelity, CleanRecordingTwoThreads) {
  const FleetResult fleet = RunFleet(SmallConfig());
  ExpectGoldenRecording(fleet);
  ExpectExactReplay(fleet, SmallConfig(), 2);
}

TEST(ReplayFidelity, CleanRecordingEightThreads) {
  const FleetResult fleet = RunFleet(SmallConfig());
  ExpectGoldenRecording(fleet);
  ExpectExactReplay(fleet, SmallConfig(), 8);
}

TEST(ReplayFidelity, FaultedRecordingReplaysExactly) {
  const FleetResult fleet = RunFleet(FaultyConfig());
  // Precondition: the fault schedule exercised the link but lost nothing --
  // a collection with holes is not byte-reproducible by any replayer.
  const SystemIntegrity totals = fleet.integrity.Totals();
  ASSERT_GT(totals.shipment_failures, 0u);
  ASSERT_EQ(totals.records_lost, 0u);
  ASSERT_EQ(totals.records_shed, 0u);
  ASSERT_EQ(totals.records_overflow_dropped, 0u);
  ExpectExactReplay(fleet, FaultyConfig(), 1);
  ExpectExactReplay(fleet, FaultyConfig(), 8);
}

TEST(ReplayFidelity, ColumnarInputReplaysExactly) {
  const FleetResult fleet = RunFleet(SmallConfig());
  const std::string path = ScratchPath("replay_fidelity_columnar.ntx");
  const ColumnarTraceSet columnar = WriteColumnarStore(fleet.trace, path);
  TraceReplayer replayer(SmallConfig());
  const FleetReplayResult replay = replayer.Replay(columnar, ReplayOptions{}, 2);
  const FidelityReport report = CheckFidelity(fleet.trace, replay.trace);
  EXPECT_TRUE(report.exact()) << report.detail;
  EXPECT_EQ(replay.divergence.total(), 0u);
  std::remove(path.c_str());
}

TEST(ReplayFidelity, ReplayOutputSerializesIdentically) {
  const FleetResult fleet = RunFleet(SmallConfig());
  TraceReplayer replayer(SmallConfig());
  const FleetReplayResult replay = replayer.Replay(fleet.trace, ReplayOptions{}, 1);
  const std::string original = ScratchPath("replay_fidelity_original.ntx");
  const std::string regenerated = ScratchPath("replay_fidelity_regen.ntx");
  ASSERT_TRUE(fleet.trace.SaveTo(original));
  ASSERT_TRUE(replay.trace.SaveTo(regenerated));
  const TraceSet a = ColumnarTraceSet::FromFile(original).ToRows();
  const TraceSet b = ColumnarTraceSet::FromFile(regenerated).ToRows();
  EXPECT_EQ(TraceFingerprint(a), TraceFingerprint(b));
  EXPECT_EQ(a.process_names, b.process_names);
  std::remove(original.c_str());
  std::remove(regenerated.c_str());
}

}  // namespace
}  // namespace ntrace
