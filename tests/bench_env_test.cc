// Strict parsing of the NTRACE_* bench knobs (bench/bench_common.h). A
// typo'd knob must warn and fall back to the default -- never be silently
// truncated (atoi-style "5x" -> 5, "abc" -> 0) into a run whose recorded
// numbers look legitimate.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "bench/bench_common.h"

// The alloc-hook storage bench_common.h declares; tests use the stock
// allocator, so the counter just needs to exist.
namespace ntrace {
std::atomic<size_t> g_bench_alloc_count{0};
}

namespace ntrace {
namespace {

constexpr char kVar[] = "NTRACE_TEST_ENV_KNOB";

class BenchEnvTest : public testing::Test {
 protected:
  void TearDown() override { unsetenv(kVar); }
  void Set(const char* value) { setenv(kVar, value, /*overwrite=*/1); }
};

TEST_F(BenchEnvTest, DoubleParsesCleanValues) {
  Set("0.25");
  EXPECT_DOUBLE_EQ(EnvDouble(kVar, 1.0), 0.25);
  Set("3");
  EXPECT_DOUBLE_EQ(EnvDouble(kVar, 1.0), 3.0);
  Set("-1.5e2");
  EXPECT_DOUBLE_EQ(EnvDouble(kVar, 1.0), -150.0);
}

TEST_F(BenchEnvTest, DoubleRejectsTrailingGarbage) {
  Set("0..5");
  EXPECT_DOUBLE_EQ(EnvDouble(kVar, 1.0), 1.0);
  Set("0.5x");
  EXPECT_DOUBLE_EQ(EnvDouble(kVar, 1.0), 1.0);
  Set("fast");
  EXPECT_DOUBLE_EQ(EnvDouble(kVar, 1.0), 1.0);
}

TEST_F(BenchEnvTest, DoubleUnsetAndEmptyFallBackSilently) {
  unsetenv(kVar);
  EXPECT_DOUBLE_EQ(EnvDouble(kVar, 2.0), 2.0);
  Set("");
  EXPECT_DOUBLE_EQ(EnvDouble(kVar, 2.0), 2.0);
}

TEST_F(BenchEnvTest, U64KeepsFullPrecision) {
  // 2^53 + 1: round-trips through strtoull exactly; a double would eat it.
  Set("9007199254740993");
  EXPECT_EQ(EnvU64(kVar, 0), 9007199254740993ULL);
}

TEST_F(BenchEnvTest, U64RejectsGarbageAndNegatives) {
  Set("1999x");
  EXPECT_EQ(EnvU64(kVar, 7), 7u);
  Set("-3");
  EXPECT_EQ(EnvU64(kVar, 7), 7u);
  Set("12 34");
  EXPECT_EQ(EnvU64(kVar, 7), 7u);
}

TEST_F(BenchEnvTest, U64TakesTheHexFormOnlyWhenAskedTo) {
  Set("0xC4A0C4A0");  // The chaos campaign's seed form.
  EXPECT_EQ(EnvU64(kVar, 7, /*base=*/0), 0xC4A0C4A0u);
  EXPECT_EQ(EnvU64(kVar, 7), 7u);
  Set("1999");
  EXPECT_EQ(EnvU64(kVar, 7, /*base=*/0), 1999u);
  Set("0x");
  EXPECT_EQ(EnvU64(kVar, 7, /*base=*/0), 7u);
  Set("0xC4A0C4A0z");
  EXPECT_EQ(EnvU64(kVar, 7, /*base=*/0), 7u);
}

TEST_F(BenchEnvTest, IntParsesAndBoundsChecks) {
  Set("5");
  EXPECT_EQ(EnvInt(kVar, 3, 1, 1000), 5);
  Set("0");  // Below the minimum.
  EXPECT_EQ(EnvInt(kVar, 3, 1, 1000), 3);
  Set("1001");  // Above the maximum.
  EXPECT_EQ(EnvInt(kVar, 3, 1, 1000), 3);
  Set("5x");  // atoi would have said 5.
  EXPECT_EQ(EnvInt(kVar, 3, 1, 1000), 3);
  Set("abc");  // atoi would have said 0.
  EXPECT_EQ(EnvInt(kVar, 3, 1, 1000), 3);
  Set("2OO");  // Letter O, not zero: strtoull would have said 2.
  EXPECT_EQ(EnvInt(kVar, 3, 1, 1000), 3);
}

// NTRACE_DAYS is a whole number of days: a fraction is not truncated and a
// non-positive count does not run a study of no days.
TEST_F(BenchEnvTest, DaysRejectsFractionsAndNonPositiveCounts) {
  for (const char* bad : {"1.9", "-1", "0"}) {
    setenv("NTRACE_DAYS", bad, /*overwrite=*/1);
    testing::internal::CaptureStderr();
    const int days = StandardConfig().fleet.days;
    const std::string warning = testing::internal::GetCapturedStderr();
    EXPECT_EQ(days, 1) << bad;
    EXPECT_NE(warning.find("NTRACE_DAYS"), std::string::npos) << bad;
  }
  setenv("NTRACE_DAYS", "28", /*overwrite=*/1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(StandardConfig().fleet.days, 28);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  unsetenv("NTRACE_DAYS");
}

}  // namespace
}  // namespace ntrace
