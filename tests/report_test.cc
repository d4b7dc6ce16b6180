// Tests: the report helpers behind the bench binaries, plus a few
// remaining corner cases across modules.

#include <gtest/gtest.h>

#include "src/analysis/report.h"
#include "src/workload/simulated_system.h"
#include "tests/test_util.h"

namespace ntrace {
namespace {

TEST(ReportHelpers, LogProbePointsSpanRange) {
  const std::vector<double> points = LogProbePoints(1.0, 1000.0, 1);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_DOUBLE_EQ(points[0], 1.0);
  EXPECT_NEAR(points[1], 10.0, 1e-9);
  EXPECT_NEAR(points[3], 1000.0, 1e-6);
  const std::vector<double> dense = LogProbePoints(1.0, 100.0, 2);
  EXPECT_EQ(dense.size(), 5u);  // 1, ~3.16, 10, ~31.6, 100.
}

TEST(ReportHelpers, ComparisonReportRendersAllRows) {
  // Smoke: the report prints without crashing and carries its rows.
  ComparisonReport report("unit test");
  report.AddRow("a", "1", "2", "note");
  report.AddPercent("b", 50, 0.5);
  report.AddValue("c", "x", 3.14159);
  testing::internal::CaptureStdout();
  report.Print();
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("unit test"), std::string::npos);
  EXPECT_NE(out.find("50.0%"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
}

TEST(ReportHelpers, CdfSeriesHandlesEmpty) {
  WeightedCdf empty;
  empty.Finalize();
  testing::internal::CaptureStdout();
  PrintCdfSeries("empty", empty, {1.0, 10.0}, "ms");
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("no samples"), std::string::npos);
}

TEST(ReportHelpers, LlcdPrintHandlesEmpty) {
  LlcdSeries empty;
  testing::internal::CaptureStdout();
  PrintLlcd("empty", empty);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("no tail"), std::string::npos);
}

TEST(AdministrativeCategory, RunsDatabaseWorkload) {
  CollectionServer server;
  SystemOptions options;
  options.system_id = 9;
  options.category = UsageCategory::kAdministrative;
  options.seed = 31;
  options.days = 1;
  options.activity_scale = 0.25;
  options.content_scale = 0.05;
  SimulatedSystem system(options, server);
  const SystemRunStats stats = system.Run();
  EXPECT_GT(stats.trace_records, 500u);

  TraceSet& trace = server.Finish();
  for (const auto& [pid, info] : system.processes().all()) {
    trace.process_names.emplace(pid, info.image_name);
  }
  bool db_process = false;
  uint64_t lock_ops = 0;
  uint64_t flushes = 0;
  for (const TraceRecord& r : trace.records) {
    const std::string* name = trace.ProcessNameOf(r.process_id);
    if (name != nullptr && *name == "dbengine.exe") {
      db_process = true;
    }
    if (r.Event() == TraceEvent::kIrpLockControl) {
      ++lock_ops;
    }
    if (r.Event() == TraceEvent::kIrpFlushBuffers) {
      ++flushes;
    }
  }
  EXPECT_TRUE(db_process);
  EXPECT_GT(lock_ops, 0u);   // Record locking around transactions.
  EXPECT_GT(flushes, 0u);    // Flush-after-write clients (section 9.2).
}

TEST(UsageCategoryNames, AllNamed) {
  EXPECT_EQ(UsageCategoryName(UsageCategory::kWalkUp), "walk-up");
  EXPECT_EQ(UsageCategoryName(UsageCategory::kPool), "pool");
  EXPECT_EQ(UsageCategoryName(UsageCategory::kPersonal), "personal");
  EXPECT_EQ(UsageCategoryName(UsageCategory::kAdministrative), "administrative");
  EXPECT_EQ(UsageCategoryName(UsageCategory::kScientific), "scientific");
}

TEST(EngineEdge, ManyInterleavedPeriodics) {
  Engine engine;
  int a = 0;
  int b = 0;
  engine.SchedulePeriodic(SimDuration::Seconds(1), SimDuration::Seconds(2), [&] { ++a; });
  engine.SchedulePeriodic(SimDuration::Seconds(2), SimDuration::Seconds(3), [&] { ++b; });
  engine.RunUntil(SimTime() + SimDuration::Seconds(13));
  EXPECT_EQ(a, 7);  // t = 1,3,5,7,9,11,13.
  EXPECT_EQ(b, 4);  // t = 2,5,8,11.
}

}  // namespace
}  // namespace ntrace
