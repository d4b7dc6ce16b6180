// Unit tests: src/base (time, rng, format, parallel).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "src/base/format.h"
#include "src/base/parallel.h"
#include "src/base/rng.h"
#include "src/base/time.h"

namespace ntrace {
namespace {

// --- SimDuration / SimTime ----------------------------------------------------

TEST(SimDuration, UnitConversions) {
  EXPECT_EQ(SimDuration::Micros(1).ticks(), 10);
  EXPECT_EQ(SimDuration::Millis(1).ticks(), 10'000);
  EXPECT_EQ(SimDuration::Seconds(1).ticks(), 10'000'000);
  EXPECT_EQ(SimDuration::Minutes(1).ticks(), 600'000'000);
  EXPECT_EQ(SimDuration::Hours(1).ticks(), 36'000'000'000LL);
  EXPECT_EQ(SimDuration::Days(1).ticks(), 864'000'000'000LL);
}

TEST(SimDuration, FractionalConstructors) {
  EXPECT_EQ(SimDuration::FromSecondsF(0.5).ticks(), 5'000'000);
  EXPECT_EQ(SimDuration::FromMillisF(1.5).ticks(), 15'000);
  EXPECT_EQ(SimDuration::FromMicrosF(2.5).ticks(), 25);
}

TEST(SimDuration, RoundTripFloating) {
  const SimDuration d = SimDuration::Millis(1234);
  EXPECT_DOUBLE_EQ(d.ToMillisF(), 1234.0);
  EXPECT_DOUBLE_EQ(d.ToSecondsF(), 1.234);
  EXPECT_DOUBLE_EQ(d.ToMicrosF(), 1'234'000.0);
}

TEST(SimDuration, Arithmetic) {
  const SimDuration a = SimDuration::Seconds(3);
  const SimDuration b = SimDuration::Seconds(1);
  EXPECT_EQ((a + b).ticks(), SimDuration::Seconds(4).ticks());
  EXPECT_EQ((a - b).ticks(), SimDuration::Seconds(2).ticks());
  EXPECT_EQ((b * 5).ticks(), SimDuration::Seconds(5).ticks());
  EXPECT_EQ((a / 3).ticks(), SimDuration::Seconds(1).ticks());
  EXPECT_LT(b, a);
  EXPECT_TRUE(SimDuration().IsZero());
}

TEST(SimTime, ArithmeticAndOrdering) {
  const SimTime t0;
  const SimTime t1 = t0 + SimDuration::Seconds(10);
  EXPECT_EQ((t1 - t0).ticks(), SimDuration::Seconds(10).ticks());
  EXPECT_LT(t0, t1);
  EXPECT_EQ((t1 - SimDuration::Seconds(10)), t0);
}

TEST(SimDuration, ToStringPicksUnits) {
  EXPECT_EQ(SimDuration::Micros(5).ToString(), "5.0us");
  EXPECT_EQ(SimDuration::Millis(3).ToString(), "3.00ms");
  EXPECT_EQ(SimDuration::Seconds(2).ToString(), "2.00s");
  EXPECT_EQ(SimDuration::Minutes(5).ToString(), "5.0min");
}

TEST(SimTime, ToStringEncodesDayAndTime) {
  const SimTime t = SimTime() + SimDuration::Days(2) + SimDuration::Hours(4) +
                    SimDuration::Minutes(30);
  EXPECT_EQ(t.ToString(), "d2 04:30:00.000");
}

// --- Rng -----------------------------------------------------------------------

TEST(Rng, DeterministicUnderSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntDegenerate) {
  Rng rng(7);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesP) {
  Rng rng(7);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GaussianMoments) {
  Rng rng(7);
  double sum = 0;
  double sum2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(9);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

// --- Format ---------------------------------------------------------------------

TEST(Format, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(26.0 * 1024), "26.0KB");
  EXPECT_EQ(FormatBytes(4.0 * 1024 * 1024), "4.0MB");
  EXPECT_EQ(FormatBytes(2.5 * 1024 * 1024 * 1024), "2.50GB");
}

TEST(Format, FormatPct) {
  EXPECT_EQ(FormatPct(0.5), "50.0%");
  EXPECT_EQ(FormatPct(0.123, 2), "12.30%");
}

TEST(Format, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("NOTEPAD.EXE", "notepad.exe"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
}

TEST(Format, PathExtension) {
  EXPECT_EQ(PathExtension("C:\\winnt\\notepad.EXE"), ".exe");
  EXPECT_EQ(PathExtension("C:\\noext"), "");
  EXPECT_EQ(PathExtension("C:\\dir.d\\noext"), "");
  EXPECT_EQ(PathExtension("C:\\a\\.hidden"), "");
  EXPECT_EQ(PathExtension("file.tar.gz"), ".gz");
}

TEST(Format, SplitAndJoinPath) {
  const auto parts = SplitPath("winnt\\system32\\kernel32.dll");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "winnt");
  EXPECT_EQ(parts[2], "kernel32.dll");
  EXPECT_EQ(JoinPath(parts), "winnt\\system32\\kernel32.dll");
  EXPECT_TRUE(SplitPath("").empty());
  EXPECT_TRUE(SplitPath("\\\\").empty());
  EXPECT_EQ(SplitPath("\\leading\\slash").size(), 2u);
}

TEST(Format, CountPathComponentsMatchesSplitPath) {
  for (const char* path : {"", "\\", "a", "a\\b", "\\\\a\\\\\\b\\"}) {
    EXPECT_EQ(CountPathComponents(path), SplitPath(path).size()) << path;
  }
}

TEST(Format, RenderTableAligns) {
  const std::string out = RenderTable({"a", "bb"}, {{"1", "2"}, {"333", "4"}});
  EXPECT_NE(out.find("a    bb"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
}

// --- ParallelFor / WorkerCount ------------------------------------------------

TEST(ParallelFor, RunsEveryItemExactlyOnceOnAValidWorker) {
  for (int workers : {1, 3, 8}) {
    for (int items : {5, 200}) {  // 5 < 8: some workers find nothing to claim.
      std::vector<std::atomic<int>> calls(static_cast<size_t>(items));
      std::atomic<int> bad_worker{0};
      ParallelFor(items, workers, [&](int item, int worker) {
        calls[static_cast<size_t>(item)].fetch_add(1);
        if (worker < 0 || worker >= workers) {
          bad_worker.fetch_add(1);
        }
      });
      for (int i = 0; i < items; ++i) {
        EXPECT_EQ(calls[static_cast<size_t>(i)].load(), 1)
            << "item " << i << " of " << items << ", workers=" << workers;
      }
      EXPECT_EQ(bad_worker.load(), 0) << items << " items, workers=" << workers;
    }
  }
}

TEST(ParallelFor, ZeroItemsNeverCallsFn) {
  std::atomic<int> calls{0};
  ParallelFor(0, 4, [&](int, int) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(WorkerCount, ClampsToItemsAndResolvesHardwareConcurrency) {
  EXPECT_EQ(WorkerCount(8, 3), 3);
  EXPECT_EQ(WorkerCount(2, 13), 2);
  EXPECT_EQ(WorkerCount(1, 13), 1);
  EXPECT_EQ(WorkerCount(8, 0), 1);
  EXPECT_EQ(WorkerCount(0, 0), 1);
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  EXPECT_EQ(WorkerCount(0, 1 << 20), hw);
  EXPECT_EQ(WorkerCount(-3, 1 << 20), hw);
  EXPECT_EQ(WorkerCount(0, 1), 1);
}

}  // namespace
}  // namespace ntrace
