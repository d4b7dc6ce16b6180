// Unit tests: src/analysis -- pattern classification, run extraction, and
// each analyzer on hand-crafted inputs with known answers.

#include <gtest/gtest.h>

#include <cmath>

#include "src/analysis/access_patterns.h"
#include "src/analysis/burstiness.h"
#include "src/analysis/fastio.h"
#include "src/analysis/lifetimes.h"
#include "src/analysis/operations.h"
#include "src/analysis/patterns.h"
#include "src/analysis/process_profile.h"
#include "src/analysis/report.h"
#include "src/analysis/sessions.h"
#include "src/analysis/snapshot_analysis.h"
#include "src/analysis/user_activity.h"
#include "tests/test_util.h"

namespace ntrace {
namespace {

Instance MakeSession(std::vector<RwOp> ops, uint64_t file_size) {
  Instance s;
  s.max_file_size = file_size;
  for (const RwOp& op : ops) {
    if (op.write) {
      ++s.fastio_writes;
      s.bytes_written += op.length;
    } else {
      ++s.fastio_reads;
      s.bytes_read += op.length;
    }
  }
  s.ops = std::move(ops);
  return s;
}

// --- Pattern classification ----------------------------------------------------

TEST(Patterns, WholeFileSequential) {
  const Instance s = MakeSession({{0, 4096, false, true, 0, 1},
                                  {4096, 4096, false, true, 2, 3},
                                  {8192, 2000, false, true, 4, 5}},
                                 10192);
  EXPECT_EQ(ClassifyPattern(s), TransferPattern::kWholeFile);
  EXPECT_EQ(ClassifyUsage(s), UsageMode::kReadOnly);
}

TEST(Patterns, PartialSequential) {
  // Sequential but starts past 0.
  const Instance a = MakeSession({{4096, 4096, false, true, 0, 1},
                                  {8192, 4096, false, true, 2, 3}},
                                 100000);
  EXPECT_EQ(ClassifyPattern(a), TransferPattern::kOtherSequential);
  // Sequential from 0 but transfers less than the file.
  const Instance b = MakeSession({{0, 4096, false, true, 0, 1}}, 100000);
  EXPECT_EQ(ClassifyPattern(b), TransferPattern::kOtherSequential);
}

TEST(Patterns, RandomAccess) {
  const Instance s = MakeSession({{0, 4096, false, true, 0, 1},
                                  {65536, 4096, false, true, 2, 3},
                                  {4096, 4096, false, true, 4, 5}},
                                 100000);
  EXPECT_EQ(ClassifyPattern(s), TransferPattern::kRandom);
}

TEST(Patterns, FuzzyMaskToleratesSmallGaps) {
  // 20-byte gap that stays within the same 128-byte bucket: random under
  // exact matching, sequential under the cache manager's 7-bit mask
  // (section 9.1; 1000 and 1020 both mask to 960).
  const Instance s = MakeSession({{0, 1000, false, true, 0, 1},
                                  {1020, 1000, false, true, 2, 3}},
                                 100000);
  EXPECT_EQ(ClassifyPattern(s, 0), TransferPattern::kRandom);
  EXPECT_EQ(ClassifyPattern(s, 0x7F), TransferPattern::kOtherSequential);
}

TEST(Patterns, UsageModes) {
  EXPECT_EQ(ClassifyUsage(MakeSession({{0, 10, true, true, 0, 1}}, 10)),
            UsageMode::kWriteOnly);
  EXPECT_EQ(ClassifyUsage(MakeSession({{0, 10, false, true, 0, 1},
                                       {0, 10, true, true, 2, 3}},
                                      10)),
            UsageMode::kReadWrite);
}

TEST(Runs, SplitsByDirectionAndDiscontinuity) {
  const Instance s = MakeSession({{0, 100, false, true, 0, 1},     // Read run 1.
                                  {100, 100, false, true, 2, 3},   // ... continues.
                                  {200, 50, true, true, 4, 5},     // Write run (direction flip).
                                  {1000, 100, false, true, 6, 7},  // Read run 2 (jump).
                                  {1100, 100, false, true, 8, 9}},
                                 4096);
  const std::vector<SequentialRun> runs = ExtractRuns(s);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].bytes, 200u);
  EXPECT_FALSE(runs[0].write);
  EXPECT_EQ(runs[1].bytes, 50u);
  EXPECT_TRUE(runs[1].write);
  EXPECT_EQ(runs[2].bytes, 200u);
  EXPECT_EQ(runs[2].ops, 2u);
}

TEST(Runs, EmptySession) {
  const Instance s = MakeSession({}, 0);
  EXPECT_TRUE(ExtractRuns(s).empty());
}

// --- Table 3 builder ---------------------------------------------------------------

TEST(AccessPatternsTable, PercentagesWithinMode) {
  std::vector<Instance> rows;
  // Two whole-file RO sessions, one random RO session, one WO session.
  auto add = [&rows](Instance s, uint32_t system) {
    s.system_id = system;
    rows.push_back(std::move(s));
  };
  add(MakeSession({{0, 100, false, true, 0, 1}}, 100), 1);
  add(MakeSession({{0, 200, false, true, 0, 1}}, 200), 1);
  add(MakeSession({{500, 10, false, true, 0, 1}, {0, 10, false, true, 2, 3}}, 1000), 2);
  add(MakeSession({{0, 50, true, true, 0, 1}}, 50), 2);

  const AccessPatternTable result =
      AccessPatternAnalyzer::BuildTable(InstanceTable::FromRows(std::move(rows)));
  EXPECT_EQ(result.data_sessions, 4u);
  const auto& ro_whole = result.cells[0][0];
  EXPECT_NEAR(ro_whole.accesses_pct, 100.0 * 2 / 3, 1e-9);
  const auto& wo_whole = result.cells[1][0];
  EXPECT_NEAR(wo_whole.accesses_pct, 100.0, 1e-9);
  // Usage totals split 75/25.
  EXPECT_NEAR(result.usage_totals[0].accesses_pct, 75.0, 1e-9);
  EXPECT_NEAR(result.usage_totals[1].accesses_pct, 25.0, 1e-9);
}

// --- User activity ------------------------------------------------------------------

TEST(UserActivity, CountsActiveUsersAndThroughput) {
  TraceSet trace;
  auto add_read = [&trace](uint32_t system, double t_seconds, uint32_t bytes) {
    TraceRecord r;
    r.event = static_cast<uint16_t>(TraceEvent::kIrpRead);
    r.system_id = system;
    r.returned = bytes;
    r.complete_ticks = SimDuration::FromSecondsF(t_seconds).ticks();
    trace.records.push_back(r);
  };
  // System 1 busy in interval 0; system 2 in both intervals.
  add_read(1, 1.0, 100 * 1024);
  add_read(2, 2.0, 200 * 1024);
  add_read(2, 12.0, 50 * 1024);
  const UserActivityResult result =
      UserActivityAnalyzer::Analyze(trace, SystemIndex::Build(trace), 1, 1024);
  EXPECT_EQ(result.ten_seconds.max_active_users, 2);
  EXPECT_GT(result.ten_seconds.avg_user_throughput_kbs, 0);
  // 10s interval 0 carries 300 KB total -> system-wide 30 KB/s.
  EXPECT_NEAR(result.ten_seconds.peak_system_wide_kbs, 30.0, 0.5);
}

TEST(UserActivity, ThresholdSuppressesBackgroundNoise) {
  TraceSet trace;
  TraceRecord r;
  r.event = static_cast<uint16_t>(TraceEvent::kIrpRead);
  r.system_id = 1;
  r.returned = 100;  // Tiny background op.
  r.complete_ticks = SimDuration::Seconds(1).ticks();
  trace.records.push_back(r);
  const UserActivityResult result =
      UserActivityAnalyzer::Analyze(trace, SystemIndex::Build(trace), 1, 2048);
  EXPECT_EQ(result.ten_seconds.max_active_users, 0);
}

TEST(UserActivity, CacheInducedPagingExcluded) {
  TraceSet trace;
  TraceRecord r;
  r.event = static_cast<uint16_t>(TraceEvent::kIrpRead);
  r.system_id = 1;
  r.returned = 1 << 20;
  r.irp_flags = kIrpPagingIo | kIrpCacheFault;
  r.complete_ticks = SimDuration::Seconds(1).ticks();
  trace.records.push_back(r);
  const UserActivityResult result =
      UserActivityAnalyzer::Analyze(trace, SystemIndex::Build(trace), 1, 1024);
  EXPECT_EQ(result.ten_seconds.max_active_users, 0);
}

// --- End-to-end analyzers on a real single system -------------------------------------

TEST(AnalyzersEndToEnd, SessionsLifetimesOperations) {
  TestSystem sys;
  // A few sessions with known shapes.
  FileObject* a = sys.OpenRw("C:\\life.txt");  // Created...
  sys.io->WriteNext(*a, 1000);
  sys.io->WriteNext(*a, 1000);  // Second write rides FastIO.
  sys.io->CloseHandle(*a);
  sys.engine.RunUntil(sys.engine.Now() + SimDuration::Seconds(2));
  // ... then explicitly deleted 2 seconds later.
  FileObject* d = sys.OpenRw("C:\\life.txt");
  sys.io->SetDispositionDelete(*d, true);
  sys.io->CloseHandle(*d);

  // An overwrite death.
  FileObject* b = sys.OpenRw("C:\\ow.txt");
  sys.io->WriteNext(*b, 500);
  sys.io->CloseHandle(*b);
  CreateRequest req;
  req.path = "C:\\ow.txt";
  req.disposition = CreateDisposition::kOverwriteIf;
  req.desired_access = kAccessWriteData;
  req.process_id = sys.pid;
  FileObject* ow = sys.io->Create(req).file;
  sys.io->WriteNext(*ow, 200);
  sys.io->CloseHandle(*ow);

  TraceSet& trace = sys.FinishTrace();
  const InstanceTable table = InstanceTable::Build(trace);
  const LifetimeResult lifetimes = LifetimeAnalyzer::Analyze(table);
  ASSERT_EQ(lifetimes.deaths.size(), 2u);
  int overwrites = 0;
  int deletes = 0;
  for (const NewFileDeath& death : lifetimes.deaths) {
    if (death.method == DeletionMethod::kOverwrite) {
      ++overwrites;
    }
    if (death.method == DeletionMethod::kExplicitDelete) {
      ++deletes;
      EXPECT_NEAR(death.lifetime_ms, 2000.0, 300.0);
    }
  }
  EXPECT_EQ(overwrites, 1);
  EXPECT_EQ(deletes, 1);

  const SessionResult sessions = SessionAnalyzer::Analyze(SystemIndex::Build(trace), table);
  EXPECT_FALSE(sessions.session_all_ms.empty());
  EXPECT_FALSE(sessions.open_interarrival_io_ms.empty() &&
               sessions.open_interarrival_control_ms.empty());

  const OperationResult ops = OperationAnalyzer::Analyze(trace, table);
  EXPECT_GT(ops.writes, 0u);
  EXPECT_EQ(ops.write_failures, 0u);

  const FastIoResultAnalysis fastio = FastIoAnalyzer::Analyze(trace);
  EXPECT_GT(fastio.fastio_write_share, 0.0);
}

// A file is a path on one system. Two machines that share a path share no
// file: a create on one and a delete on the other is no death, one
// read-only open on each is no re-open, and a process image that opens the
// path on both machines has touched two files.
TEST(AnalyzersEndToEnd, OnePathOnTwoSystemsIsTwoFiles) {
  const auto at = [](int64_t ms) { return SimDuration::Millis(ms).ticks(); };
  const auto session = [&](uint32_t system, uint32_t pid, const char* path, int64_t open_ms) {
    Instance s;
    s.file_object = system * 1000 + open_ms;
    s.system_id = system;
    s.process_id = pid;
    s.path = path;
    s.open_start = at(open_ms);
    s.open_complete = at(open_ms) + 10;
    s.cleanup_time = at(open_ms + 5);
    s.close_time = s.cleanup_time + 10;
    return s;
  };
  std::vector<Instance> rows;
  Instance created = session(1, 10, "C:\\shared.tmp", 1000);
  created.create_action = CreateAction::kCreated;
  created.fastio_writes = 1;
  created.bytes_written = 100;
  rows.push_back(created);
  Instance deleted = session(2, 20, "C:\\shared.tmp", 2000);
  deleted.set_delete_disposition = true;
  rows.push_back(deleted);
  for (const uint32_t system : {1u, 2u}) {
    Instance read = session(system, system * 10, "C:\\shared.ini", 3000 + 10 * system);
    read.fastio_reads = 1;
    read.bytes_read = 100;
    rows.push_back(read);
  }
  const InstanceTable table = InstanceTable::FromRows(std::move(rows));

  const LifetimeResult lifetimes = LifetimeAnalyzer::Analyze(table);
  EXPECT_EQ(lifetimes.new_files, 1u);
  EXPECT_TRUE(lifetimes.deaths.empty());

  TraceSet trace;
  trace.process_names = {{10, "app.exe"}, {20, "app.exe"}};
  const SessionResult sessions = SessionAnalyzer::Analyze(SystemIndex::Build(trace), table);
  EXPECT_EQ(sessions.readonly_reopen_fraction, 0.0);

  const std::vector<ProcessProfile> profiles = ProcessProfileAnalyzer::ByProcess(trace, table);
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].opens, 4u);
  EXPECT_EQ(profiles[0].distinct_files, 4u);
}

// A trace without a single open has no inter-arrival or session CDF: the
// figures read NaN, not 0, so no row built on them in its paper band (the
// bands `reproduce` gives figures 11-12 and table 1) can read as agreement.
TEST(AnalyzersEndToEnd, NoOpensGiveNoAgreeingSessionRows) {
  TraceSet trace;
  TraceRecord read;
  read.event = static_cast<uint16_t>(TraceEvent::kIrpRead);
  read.system_id = 1;
  read.file_object = 7;
  read.length = 4096;
  read.start_ticks = 3 * SimDuration::kTicksPerSecond;
  read.complete_ticks = read.start_ticks + 100;
  trace.records.push_back(read);
  const InstanceTable table = InstanceTable::Build(trace);
  const SessionResult s = SessionAnalyzer::Analyze(SystemIndex::Build(trace), table);
  EXPECT_TRUE(std::isnan(s.interarrival_p40_ms));
  EXPECT_TRUE(std::isnan(s.interarrival_p90_ms));
  EXPECT_TRUE(std::isnan(s.session_p40_ms));
  EXPECT_TRUE(std::isnan(s.session_p90_ms));
  EXPECT_TRUE(std::isnan(s.seconds_with_opens_fraction));
  EXPECT_TRUE(std::isnan(s.data_open_p75_ms));

  ComparisonReport report("Figures 11-12 / section 8.1");
  report.AddRow("40% of opens arrive within", "1ms", "n/a", s.interarrival_p40_ms,
                Band::AtMost(1));
  report.AddRow("90% of opens arrive within", "30ms", "n/a", s.interarrival_p90_ms,
                Band::AtMost(30));
  report.AddRow("40% of sessions close within", "1ms", "n/a", s.session_p40_ms, Band::AtMost(1));
  report.AddRow("90% of sessions close within", "1s (1000ms)", "n/a", s.session_p90_ms,
                Band::AtMost(1000));
  report.AddRow("1-second intervals containing opens", "<=24%", "n/a",
                100 * s.seconds_with_opens_fraction, Band::AtMost(24));
  report.AddRow("75% of data opens shorter than", "10ms", "n/a", s.data_open_p75_ms,
                Band::AtMost(10));
  for (const ComparisonRow& row : report.rows()) {
    EXPECT_EQ(row.verdict, Verdict::kDeviation) << row.metric;
  }
}

// --- Snapshot analysis ------------------------------------------------------------------

TEST(SnapshotAnalysis, PathsRebuiltFromPreOrder) {
  Volume volume("C:", 1 << 30);
  volume.CreatePath("winnt\\profiles\\u\\temporary internet files\\a.gif", false, kAttrNormal,
                    SimTime());
  volume.CreatePath("winnt\\system32\\big.dll", false, kAttrNormal, SimTime());
  const Snapshot snap = SnapshotWalker::Walk(volume, 1, SimTime());
  const std::vector<std::string> paths = SnapshotAnalyzer::RecordPaths(snap);
  bool found = false;
  for (const std::string& p : paths) {
    if (p == "winnt\\profiles\\u\\temporary internet files\\a.gif") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SnapshotAnalysis, ChurnDetectsAddsModifiesRemoves) {
  Volume volume("C:", 1 << 30);
  FileNode* keep = volume.CreatePath("keep.txt", false, kAttrNormal, SimTime());
  FileNode* doomed = volume.CreatePath("doomed.txt", false, kAttrNormal, SimTime());
  volume.NodeResized(keep, 100);
  volume.NodeResized(doomed, 100);
  SnapshotSeries series;
  series.snapshots.push_back(SnapshotWalker::Walk(volume, 1, SimTime()));

  volume.NodeResized(keep, 200);  // Modified.
  keep->last_write_time = SimTime() + SimDuration::Hours(1);
  volume.RemoveNode(doomed);      // Removed.
  volume.CreatePath("winnt\\profiles\\u\\temporary internet files\\new.gif", false,
                    kAttrNormal, SimTime());  // Added, in the WWW cache.
  series.snapshots.push_back(SnapshotWalker::Walk(volume, 1, SimTime() + SimDuration::Days(1)));

  const ChurnSummary churn = SnapshotAnalyzer::AnalyzeChurn(series);
  EXPECT_EQ(churn.total_added, 1u);
  EXPECT_EQ(churn.total_modified, 1u);
  EXPECT_EQ(churn.total_removed, 1u);
  EXPECT_GT(churn.profile_change_share, 0.0);
  EXPECT_GT(churn.web_cache_change_share, 0.0);
}

TEST(SnapshotAnalysis, ContentSummaryShares) {
  Volume volume("C:", 1 << 20);
  FileNode* dll = volume.CreatePath("winnt\\big.dll", false, kAttrNormal, SimTime());
  volume.NodeResized(dll, 900 * 1024);
  FileNode* txt = volume.CreatePath("winnt\\profiles\\u\\note.txt", false, kAttrNormal,
                                    SimTime());
  volume.NodeResized(txt, 100 * 1024);
  const Snapshot snap = SnapshotWalker::Walk(volume, 1, SimTime());
  const ContentSummary summary = SnapshotAnalyzer::SummarizeContent(snap);
  EXPECT_EQ(summary.files, 2u);
  EXPECT_NEAR(summary.bytes_share[static_cast<size_t>(FileCategory::kExecutable)], 0.9, 0.01);
  EXPECT_NEAR(summary.profile_file_share, 0.5, 1e-9);
  EXPECT_NEAR(summary.fullness, 1000.0 * 1024 / (1 << 20), 0.01);
}

// --- Burstiness ----------------------------------------------------------------------

TEST(Burstiness, PoissonSynthesisSmoothsTraceDoesNot) {
  // Craft an extremely bursty arrival set: dense bursts separated by long
  // silences.
  TraceSet trace;
  int64_t t = 0;
  for (int burst = 0; burst < 30; ++burst) {
    for (int i = 0; i < 200; ++i) {
      TraceRecord r;
      r.event = static_cast<uint16_t>(TraceEvent::kIrpCreate);
      r.system_id = 1;
      r.start_ticks = t;
      r.complete_ticks = t;
      trace.records.push_back(r);
      t += SimDuration::Millis(1).ticks();
    }
    t += SimDuration::Seconds(300).ticks();
  }
  const SystemIndex index = SystemIndex::Build(trace);
  const ArrivalViews views = BurstinessAnalyzer::BuildArrivalViews(trace, index, 1);
  EXPECT_GT(views.trace_cv[2], 2.0 * views.poisson_cv[2]);
  const std::vector<double> gaps = BurstinessAnalyzer::OpenInterarrivalsMs(trace, index, 1);
  EXPECT_EQ(gaps.size(), 30u * 200 - 1);
}

}  // namespace
}  // namespace ntrace
