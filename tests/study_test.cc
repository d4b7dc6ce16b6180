// Tests: src/study -- the public facade, plus cross-cutting paper-shape
// assertions on a small but complete study run.

#include <gtest/gtest.h>

#include "src/study/study.h"
#include "tests/test_util.h"

namespace ntrace {
namespace {

StudyConfig SmallStudy() {
  StudyConfig config;
  config.fleet.walk_up = 1;
  config.fleet.pool = 1;
  config.fleet.personal = 1;
  config.fleet.administrative = 1;
  config.fleet.scientific = 1;
  config.fleet.days = 1;
  config.fleet.seed = 404;
  config.fleet.activity_scale = 0.3;
  config.fleet.content_scale = 0.06;
  return config;
}

class StudyTest : public ::testing::Test {
 protected:
  static Study& study() {
    static Study* instance = [] {
      auto* s = new Study(SmallStudy());
      s->Run();
      return s;
    }();
    return *instance;
  }
};

TEST_F(StudyTest, AccessorsAreConsistent) {
  EXPECT_TRUE(study().has_run());
  EXPECT_GT(study().trace().records.size(), 1000u);
  EXPECT_LT(study().app_trace().records.size(), study().trace().records.size());
  EXPECT_GT(study().instances().rows().size(), 100u);
  EXPECT_EQ(study().systems().size(), 5u);
}

TEST_F(StudyTest, MemoizationReturnsSameObject) {
  const UserActivityResult* a = &study().UserActivity();
  const UserActivityResult* b = &study().UserActivity();
  EXPECT_EQ(a, b);
}

TEST_F(StudyTest, Table2ShapeHolds) {
  const UserActivityResult& activity = study().UserActivity();
  EXPECT_GT(activity.ten_minutes.max_active_users, 0);
  EXPECT_GT(activity.ten_minutes.avg_user_throughput_kbs, 0.5);
  // Short intervals concentrate bursts: the 10-second peak dominates.
  EXPECT_GT(activity.ten_seconds.peak_user_throughput_kbs,
            activity.ten_minutes.peak_user_throughput_kbs);
}

TEST_F(StudyTest, Table3ShapeHolds) {
  const AccessPatternTable& patterns = study().AccessPatterns();
  EXPECT_GT(patterns.data_sessions, 100u);
  // Read-only dominates accesses; whole-file dominates read-only.
  EXPECT_GT(patterns.usage_totals[0].accesses_pct, 50.0);
  EXPECT_GT(patterns.cells[0][0].accesses_pct, patterns.cells[0][2].accesses_pct);
}

TEST_F(StudyTest, SessionShapeHolds) {
  const SessionResult& sessions = study().Sessions();
  // Most sessions are brief; 40% close within a few ms (paper: 1 ms).
  EXPECT_LT(sessions.session_p40_ms, 50.0);
  // Control sessions are shorter than data sessions at the median.
  EXPECT_LT(sessions.session_control_ms.Percentile(0.5),
            sessions.session_data_ms.Percentile(0.5));
  // Two-stage close: read gaps in microseconds, write gaps near seconds.
  if (!sessions.close_gap_read_us.empty() && !sessions.close_gap_write_us.empty()) {
    EXPECT_LT(sessions.close_gap_read_us.Percentile(0.5), 100.0);
    EXPECT_GT(sessions.close_gap_write_us.Percentile(0.5), 10000.0);
  }
}

TEST_F(StudyTest, ControlDominanceAndErrorsPresent) {
  const OperationResult& ops = study().Operations();
  EXPECT_GT(ops.control_only_open_fraction, 0.4);
  EXPECT_GT(ops.open_failure_fraction, 0.01);
  EXPECT_GT(ops.open_notfound_share, 0.3);
  EXPECT_EQ(ops.write_failures, 0u);
  EXPECT_GT(ops.non_interactive_access_fraction, 0.35);
  EXPECT_GT(ops.volume_mounted_checks, 100u);
}

TEST_F(StudyTest, CacheAndFastIoShapeHolds) {
  const CacheAnalysisResult& cache = study().Cache();
  EXPECT_GT(cache.cached_read_fraction, 0.3);
  EXPECT_GT(cache.single_prefetch_fraction, 0.6);
  const FastIoResultAnalysis& fastio = study().FastIo();
  EXPECT_GT(fastio.fastio_write_share, 0.5);
  // FastIO is the faster mechanism.
  EXPECT_LT(fastio.fastio_read_latency_us.Percentile(0.5),
            fastio.irp_read_latency_us.Percentile(0.5));
}

TEST_F(StudyTest, HeavyTailsEverywhere) {
  const std::vector<TailDiagnostics> sweep = study().TailSweep();
  ASSERT_GE(sweep.size(), 4u);
  for (const TailDiagnostics& d : sweep) {
    // Skip sparse samples and poor power-law fits (at this tiny test scale
    // the request-size tail has too few large draws to fit).
    if (d.samples < 100 || d.llcd.fit_r2 < 0.8) {
      continue;
    }
    const double alpha = d.llcd.alpha_hat > 0 ? d.llcd.alpha_hat : d.hill_alpha;
    EXPECT_GT(alpha, 0.0) << d.quantity;
    EXPECT_LT(alpha, 2.5) << d.quantity;  // Heavy (paper: 1.2-1.7).
  }
}

TEST_F(StudyTest, SnapshotsSupportSection5) {
  const std::vector<ContentSummary> contents = study().ContentSummaries();
  ASSERT_FALSE(contents.empty());
  for (const ContentSummary& c : contents) {
    EXPECT_GT(c.files, 100u);
    EXPECT_GT(c.fullness, 0.2);
    EXPECT_LT(c.fullness, 0.95);
  }
}

// A columnar fleet leaves FleetResult::trace without records, so every row
// analysis would silently compute over nothing: Run() must refuse it.
TEST(StudyDeathTest, RunRejectsColumnarFleet) {
  StudyConfig config = SmallStudy();
  config.fleet.columnar_dir = ScratchPath("study_columnar");
  Study study(config);
  EXPECT_DEATH(study.Run(), "columnar_dir");
}

}  // namespace
}  // namespace ntrace
