// Tests: the report helpers behind the reproduction driver, plus a few
// remaining corner cases across modules.

#include <gtest/gtest.h>

#include <cmath>

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

// The verdict rule: ✓ inside the band, "shape" when only the stated shape
// predicate holds, † otherwise.
TEST(ReportVerdicts, PercentWithinTenPointsMatches) {
  ComparisonReport report("verdicts");
  report.AddPercent("hit rate", 60, 0.695);  // 69.5 % against 50..70.
  report.AddPercent("miss", 60, 0.705);      // 70.5 %: outside.
  ASSERT_EQ(report.rows().size(), 2u);
  EXPECT_EQ(report.rows()[0].verdict, Verdict::kMatch);
  EXPECT_EQ(report.rows()[1].verdict, Verdict::kDeviation);
  const Band band = Band::Percent(60);
  EXPECT_DOUBLE_EQ(band.lo, 50);
  EXPECT_DOUBLE_EQ(band.hi, 70);
}

TEST(ReportVerdicts, SmallPercentOutsideItsFactorTwoBandIsShapeWhenThePredicateHolds) {
  // 4 % is below 10 %, so its band is a factor of 2: 2..8.
  const Band band = Band::Percent(4);
  EXPECT_DOUBLE_EQ(band.lo, 2);
  EXPECT_DOUBLE_EQ(band.hi, 8);
  ComparisonReport report("verdicts");
  report.AddPercent("flush users", 4, 0.01, "", std::nullopt, Shape{"present", true});
  report.AddPercent("flush users", 4, 0.01, "", std::nullopt, Shape{"present", false});
  report.AddPercent("flush users", 4, 0.03, "", std::nullopt, Shape{"present", false});
  EXPECT_EQ(report.rows()[0].verdict, Verdict::kShape);
  EXPECT_EQ(report.rows()[1].verdict, Verdict::kDeviation);
  EXPECT_EQ(report.rows()[2].verdict, Verdict::kMatch);  // In band: the predicate is moot.
}

TEST(ReportVerdicts, RowMatchingNeitherIsDeviation) {
  ComparisonReport report("verdicts");
  // "Comparable": a ratio in [0.5, 2]; 10.6 is not, and no shape is stated.
  report.AddRow("medians comparable", "no significant difference", "0.13ms vs 1.37ms", 10.6,
                Band::Comparable());
  // "Much greater": a ratio >= 3.
  report.AddRow("fastio well below irp", "orders of magnitude", "21.4us vs 22.5us", 1.05,
                Band::MuchGreater());
  EXPECT_EQ(report.rows()[0].verdict, Verdict::kDeviation);
  EXPECT_EQ(report.rows()[1].verdict, Verdict::kDeviation);
  EXPECT_STREQ(VerdictSymbol(Verdict::kDeviation), "†");
  EXPECT_STREQ(VerdictSymbol(Verdict::kMatch), "✓");
  EXPECT_STREQ(VerdictSymbol(Verdict::kShape), "shape");
  // A row without a band makes no claim.
  report.AddRow("lazy scans", "-", "64821");
  EXPECT_EQ(report.rows()[2].verdict, Verdict::kInfo);
  EXPECT_FALSE(report.rows()[2].band.has_value());
}

TEST(ReportVerdicts, StatedRangeOverridesThePercentRule) {
  // 52.5 % is inside 44 +- 10 points, but the paper states 36-52 %.
  ComparisonReport report("verdicts");
  report.AddPercent("re-opened", 44, 0.525, "paper range 36-52%", Band::Range(36, 52));
  report.AddPercent("re-opened", 44, 0.525);
  EXPECT_EQ(report.rows()[0].verdict, Verdict::kDeviation);
  EXPECT_EQ(report.rows()[1].verdict, Verdict::kMatch);
  // Stated bounds: inclusive, or open for "exceeds" / "below".
  EXPECT_TRUE(Band::AtMost(10).Contains(10));
  EXPECT_FALSE(Band::Below(10).Contains(10));
  EXPECT_FALSE(Band::Above(0).Contains(0));
  EXPECT_TRUE(Band::AtLeast(3).Contains(3));
  EXPECT_FALSE(Band::Below(2).Contains(std::nan("")));
  EXPECT_EQ(Band::Range(36, 52).ToString(), "36..52");
  EXPECT_EQ(Band::Above(0).ToString(), "> 0");
  EXPECT_EQ(Band::AtMost(26624).ToString(), "<= 26624");
  // The magnitude rule: a factor of 2 either way.
  EXPECT_EQ(Band::Magnitude(0.7).ToString(), "0.35..1.4");
}

TEST(ReportVerdicts, JsonRowCarriesEveryFieldAndEscapesQuotes) {
  ComparisonReport report("Section \"9\"");
  report.AddRow("the \"hit\" rate", "60%", "82.0%", 82.01234567, Band::Percent(60), "note",
                Shape{"majority", true});
  const std::string json = ComparisonRowJson(report.title(), report.rows()[0]);
  EXPECT_EQ(json,
            "{\"section\": \"Section \\\"9\\\"\", \"metric\": \"the \\\"hit\\\" rate\", "
            "\"paper\": \"60%\", \"measured\": 82.0123, \"text\": \"82.0%\", "
            "\"band\": {\"lo\": 50, \"hi\": 70, \"open\": false, \"text\": \"50..70\"}, "
            "\"shape\": {\"claim\": \"majority\", \"holds\": true}, \"verdict\": \"shape\", "
            "\"note\": \"note\"}");
  // Unbounded ends and missing numbers are null.
  report.AddRow("info", "-", "n/a");
  report.AddRow("exceeds", "> 1", "yes", 1.5, Band::Above(1));
  const std::string info = ComparisonRowJson("s", report.rows()[1]);
  EXPECT_NE(info.find("\"measured\": null"), std::string::npos);
  EXPECT_NE(info.find("\"band\": null"), std::string::npos);
  EXPECT_NE(info.find("\"verdict\": null"), std::string::npos);
  const std::string open = ComparisonRowJson("s", report.rows()[2]);
  EXPECT_NE(open.find("\"band\": {\"lo\": 1, \"hi\": null, \"open\": true, \"text\": \"> 1\"}"),
            std::string::npos);
  EXPECT_NE(open.find("\"verdict\": \"✓\""), std::string::npos);
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
