// Degraded-mode replay of salvaged traces (DESIGN.md §16): gap tolerance
// must (a) change nothing on a clean input -- byte-identical replay with
// the flag on is a regression gate -- and (b) absorb every kind of loss a
// salvaged input carries with *exact* accounting: synthetic end-of-run
// closes equal the session brackets the cut swallowed, orphaned operations
// re-open their sessions instead of counting missing-object divergence,
// and the counters agree at every worker count.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/ntio/status.h"
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

// What SynthesizeCloses must produce for this input: per system, the ids
// holding a successful create record but no close record -- the session
// brackets a cut (or the end of collection) left open. Also reports how
// many systems have at least one such id (the per-system tail gap count).
struct CloseExpectation {
  uint64_t synthesized_closes = 0;
  uint64_t tail_gap_systems = 0;
};

CloseExpectation ExpectedCloses(const TraceSet& trace) {
  std::set<std::pair<uint32_t, uint64_t>> created;
  std::set<std::pair<uint32_t, uint64_t>> closed;
  for (const TraceRecord& r : trace.records) {
    if (r.IsCacheInduced()) {
      continue;
    }
    if (r.Event() == TraceEvent::kIrpCreate && NtSuccess(r.Status())) {
      created.insert({r.system_id, r.file_object});
    } else if (r.Event() == TraceEvent::kIrpClose) {
      closed.insert({r.system_id, r.file_object});
    }
  }
  CloseExpectation out;
  std::set<uint32_t> gap_systems;
  for (const auto& id : created) {
    if (closed.count(id) == 0) {
      ++out.synthesized_closes;
      gap_systems.insert(id.first);
    }
  }
  out.tail_gap_systems = gap_systems.size();
  return out;
}

TraceSet TruncateRows(const TraceSet& full, size_t keep) {
  TraceSet t;
  t.records.assign(full.records.begin(),
                   full.records.begin() + static_cast<ptrdiff_t>(keep));
  t.names = full.names;
  t.process_names = full.process_names;
  return t;
}

// A clean input must replay byte-for-byte whether or not gap tolerance is
// armed -- the degraded machinery may only fire on actual gap evidence.
TEST(DegradedReplay, CleanTraceWithGapToleranceIsByteIdentical) {
  const FleetResult fleet = RunFleet(SmallConfig());
  ASSERT_FALSE(fleet.trace.records.empty());
  const TraceReplayer replayer(SmallConfig());
  ReplayOptions opts;
  opts.tolerate_gaps = true;
  for (int threads : {1, 8}) {
    const FleetReplayResult replay = replayer.Replay(fleet.trace, opts, threads);
    const FidelityReport report = CheckFidelity(fleet.trace, replay.trace);
    EXPECT_TRUE(report.exact()) << report.detail;
    EXPECT_EQ(replay.divergence.total(), 0u);
    EXPECT_FALSE(replay.degraded.degraded);
    EXPECT_EQ(replay.degraded.synthesized_ops(), 0u);
    EXPECT_EQ(replay.degraded.gaps_detected, 0u);
    EXPECT_EQ(replay.degraded.reanchors, 0u);
    EXPECT_EQ(replay.degraded.fabricated_names, 0u);
  }
}

// Tail truncation at any point: the replay must terminate with exactly one
// synthetic close per session bracket the cut swallowed, one tail gap per
// affected system, zero divergence -- and identical counters at every
// worker count.
TEST(DegradedReplay, TruncatedTraceSynthesizesExactSessionCloses) {
  const FleetResult fleet = RunFleet(SmallConfig());
  const size_t total = fleet.trace.records.size();
  const TraceReplayer replayer(SmallConfig());
  for (double frac : {0.25, 0.5, 0.85}) {
    const size_t keep = static_cast<size_t>(static_cast<double>(total) * frac);
    ASSERT_GT(keep, 0u);
    const TraceSet cut = TruncateRows(fleet.trace, keep);
    const CloseExpectation expected = ExpectedCloses(cut);
    ASSERT_GT(expected.synthesized_closes, 0u) << "frac=" << frac;

    ReplayOptions opts;
    opts.tolerate_gaps = true;
    opts.salvage.records_lost_known = total - keep;
    for (int threads : {1, 2, 8}) {
      const FleetReplayResult replay = replayer.Replay(cut, opts, threads);
      EXPECT_TRUE(replay.degraded.degraded);
      EXPECT_EQ(replay.degraded.records_lost_known, total - keep);
      EXPECT_EQ(replay.degraded.synthesized_closes, expected.synthesized_closes)
          << "frac=" << frac << " threads=" << threads;
      EXPECT_EQ(replay.degraded.gaps_detected, expected.tail_gap_systems);
      // A prefix has no orphaned operations: creates precede their ops in
      // per-system stream order, so nothing needs a synthetic re-open.
      EXPECT_EQ(replay.degraded.synthesized_creates, 0u);
      EXPECT_EQ(replay.degraded.orphan_ops_dropped, 0u);
      EXPECT_EQ(replay.degraded.fabricated_names, 0u);
      EXPECT_EQ(replay.divergence.total(), 0u)
          << "frac=" << frac << " threads=" << threads
          << " missing_fo=" << replay.divergence.missing_file_objects
          << " status=" << replay.divergence.status_mismatches
          << " late=" << replay.divergence.late_ops;
    }
  }
}

// A mid-stream hole in one system's records orphans every id created
// inside it: gap tolerance re-opens those sessions (synthetic creates) and
// absorbs the drift instead of counting missing-object divergence; the
// strict mode on the same input shows the counters it would have burned.
TEST(DegradedReplay, MidStreamGapRecoversOrphanedSessions) {
  const FleetResult fleet = RunFleet(SmallConfig());
  // Cut the middle third of system 2's records out of the merged stream.
  std::vector<size_t> sys2;
  for (size_t i = 0; i < fleet.trace.records.size(); ++i) {
    if (fleet.trace.records[i].system_id == 2) {
      sys2.push_back(i);
    }
  }
  ASSERT_GT(sys2.size(), 30u);
  const size_t cut_begin = sys2[sys2.size() / 3];
  const size_t cut_end = sys2[2 * sys2.size() / 3];
  TraceSet gapped;
  gapped.names = fleet.trace.names;
  gapped.process_names = fleet.trace.process_names;
  uint64_t removed = 0;
  for (size_t i = 0; i < fleet.trace.records.size(); ++i) {
    const TraceRecord& r = fleet.trace.records[i];
    if (r.system_id == 2 && i >= cut_begin && i < cut_end) {
      ++removed;
      continue;
    }
    gapped.records.push_back(r);
  }
  ASSERT_GT(removed, 0u);

  const TraceReplayer replayer(SmallConfig());
  ReplayOptions opts;
  opts.tolerate_gaps = true;
  opts.salvage.records_lost_known = removed;
  opts.gap_reanchor_ticks = 0;  // Re-anchor on any drift: no op may be late.
  const FleetReplayResult replay = replayer.Replay(gapped, opts, 2);
  EXPECT_TRUE(replay.degraded.degraded);
  EXPECT_GT(replay.degraded.synthesized_creates, 0u);
  EXPECT_GE(replay.degraded.gaps_detected, 1u);
  EXPECT_EQ(replay.divergence.missing_file_objects, 0u);
  EXPECT_EQ(replay.divergence.missing_names, 0u);
  EXPECT_EQ(replay.divergence.late_ops, 0u);

  // Strict mode: the same holes surface as missing-object divergence and
  // nothing is synthesized.
  const FleetReplayResult strict = replayer.Replay(gapped, ReplayOptions{}, 2);
  EXPECT_GT(strict.divergence.missing_file_objects, 0u);
  EXPECT_EQ(strict.degraded.synthesized_ops(), 0u);
  EXPECT_FALSE(strict.degraded.degraded);
}

// The shape a torn spool segment leaves in a merged stream: a contiguous
// chunk, records [45 %, 55 %) of every system's interleaved records, gone.
// The gap-tolerant replay absorbs every gap with the loss accounted, and
// its counts are goldens: a refactor of the replayer or the simulator must
// not move them.
TEST(DegradedReplay, MidStreamChunkLossReplaysToGoldenCounts) {
  const FleetResult fleet = RunFleet(SmallConfig());
  const std::vector<TraceRecord>& records = fleet.trace.records;
  ASSERT_EQ(records.size(), 114790u);
  TraceSet salvaged;
  salvaged.names = fleet.trace.names;
  salvaged.process_names = fleet.trace.process_names;
  salvaged.records.assign(records.begin(), records.begin() + records.size() * 45 / 100);
  salvaged.records.insert(salvaged.records.end(), records.begin() + records.size() * 55 / 100,
                          records.end());
  ASSERT_EQ(salvaged.records.size(), 103311u);

  ReplayOptions opts;
  opts.tolerate_gaps = true;
  opts.salvage.records_lost_known = 11479;
  const TraceReplayer replayer(SmallConfig());
  for (int threads : {1, 8}) {
    const FleetReplayResult replay = replayer.Replay(salvaged, opts, threads);
    EXPECT_TRUE(replay.degraded.degraded);
    EXPECT_EQ(replay.degraded.records_lost_known, 11479u);
    EXPECT_EQ(replay.degraded.synthesized_ops(), 45u) << "threads=" << threads;
    EXPECT_EQ(replay.degraded.gaps_detected, 27u) << "threads=" << threads;
    EXPECT_EQ(replay.divergence.missing_file_objects, 0u);
    EXPECT_EQ(replay.divergence.missing_names, 0u);
  }
}

// The real producer of salvaged traces: a fleet whose victim system
// crashes on every attempt and is restored from its damaged spool prefix.
// Whatever the crash kind tears, the degraded replay accounts the lost
// brackets exactly, at every worker count.
TEST(DegradedReplay, CrashSalvagedFleetReplaysWithExactAccounting) {
  for (CrashKind kind : {CrashKind::kWorkerCrash, CrashKind::kTornWrite, CrashKind::kBitFlip}) {
    FleetConfig config = SmallConfig();
    config.durability.spool_dir = ScratchPath("degraded_spool_") + std::string(CrashKindName(kind));
    config.durability.salvage = true;
    config.durability.max_restarts = 1;
    config.fault_config.crash.kind = kind;
    config.fault_config.crash.system_id = 2;
    config.fault_config.crash.at_event = 400;
    config.fault_config.crash.at_attempt = 0;  // Every attempt: prefix only.
    const FleetResult fleet = RunFleet(config);
    ASSERT_TRUE(fleet.integrity.AllAccounted());

    ReplayOptions opts;
    opts.tolerate_gaps = true;
    opts.salvage = SalvageInfoFromIntegrity(fleet.integrity);
    ASSERT_TRUE(opts.salvage.lossy()) << CrashKindName(kind);
    const CloseExpectation expected = ExpectedCloses(fleet.trace);

    const TraceReplayer replayer(config);
    for (int threads : {1, 2, 8}) {
      const FleetReplayResult replay = replayer.Replay(fleet.trace, opts, threads);
      EXPECT_TRUE(replay.degraded.degraded);
      EXPECT_EQ(replay.degraded.records_lost_known, opts.salvage.records_lost_known);
      EXPECT_EQ(replay.degraded.synthesized_closes, expected.synthesized_closes)
          << CrashKindName(kind) << " threads=" << threads;
      EXPECT_EQ(replay.divergence.missing_file_objects, 0u);
      EXPECT_EQ(replay.divergence.missing_names, 0u);
    }
  }
}

// Byte-level store damage: a merged columnar store truncated at any byte
// offset replays to completion with monotonically more of the stream the
// later the cut, and the untouched store replays byte-identically with the
// salvage accounting auto-derived from its read stats.
TEST(DegradedReplay, StoreTruncationSweepReplaysMonotonically) {
  const FleetResult fleet = RunFleet(SmallConfig());
  const std::string store_path = ScratchPath("degraded_store.ntx");
  {
    ExtentStoreWriter writer;
    ASSERT_TRUE(writer.Open(store_path, 1024, /*config_fingerprint=*/0));
    ASSERT_TRUE(writer.AppendRecords(fleet.trace.records.data(), fleet.trace.records.size()));
    for (const NameRecord& n : fleet.trace.names) {
      writer.AddName(n);
    }
    for (const auto& [pid, name] : fleet.trace.process_names) {
      writer.AddProcessName(pid, name);
    }
    ASSERT_TRUE(writer.Seal());
  }
  const std::vector<uint8_t> bytes = ReadFileBytes(store_path);
  ASSERT_GT(bytes.size(), static_cast<size_t>(kExtentStoreHeaderSize) + 1);

  const TraceReplayer replayer(SmallConfig());
  const std::string cut_path = ScratchPath("degraded_store_cut.ntx");
  uint64_t prev_records = 0;
  for (double frac : {0.25, 0.55, 0.8, 1.0}) {
    const size_t len =
        kExtentStoreHeaderSize +
        static_cast<size_t>(frac * static_cast<double>(bytes.size() - kExtentStoreHeaderSize));
    WriteFileBytes(cut_path, std::vector<uint8_t>(bytes.begin(), bytes.begin() + len));
    const ColumnarTraceSet store = ColumnarTraceSet::FromFile(cut_path);
    EXPECT_GE(store.record_count(), prev_records) << "frac=" << frac;
    prev_records = store.record_count();

    ReplayOptions opts;
    opts.tolerate_gaps = true;  // Salvage info auto-derived from read stats.
    const FleetReplayResult replay = replayer.Replay(store, opts, 2);
    EXPECT_EQ(replay.divergence.missing_file_objects, 0u) << "frac=" << frac;
    EXPECT_EQ(replay.divergence.missing_names, 0u) << "frac=" << frac;

    if (frac < 1.0) {
      EXPECT_TRUE(replay.degraded.degraded) << "frac=" << frac;
      // A byte-level cut loses the name table, so some creates replay on
      // fabricated paths to a different status and their sessions never
      // open: the close count is exact up to status-mismatched creates
      // (and exactly equal when names survive -- pinned by the row-level
      // tests above, where divergence is zero).
      const CloseExpectation expected = ExpectedCloses(store.ToRows());
      EXPECT_GT(replay.degraded.synthesized_closes, 0u) << "frac=" << frac;
      const uint64_t got = replay.degraded.synthesized_closes;
      const uint64_t want = expected.synthesized_closes;
      const uint64_t diff = got > want ? got - want : want - got;
      EXPECT_LE(diff, replay.divergence.status_mismatches) << "frac=" << frac;
    } else {
      const FidelityReport report = CheckFidelity(fleet.trace, replay.trace);
      EXPECT_TRUE(report.exact()) << report.detail;
      EXPECT_EQ(replay.divergence.total(), 0u);
      EXPECT_FALSE(replay.degraded.degraded);
      EXPECT_EQ(replay.degraded.synthesized_ops(), 0u);
    }
  }
  std::remove(store_path.c_str());
  std::remove(cut_path.c_str());
}

}  // namespace
}  // namespace ntrace
