// Unit and property tests: src/stats (distributions, descriptive
// statistics, heavy-tail diagnostics).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/stats/descriptive.h"
#include "src/stats/distributions.h"
#include "src/stats/tails.h"
#include "tests/test_util.h"

namespace ntrace {
namespace {

// --- Distributions ---------------------------------------------------------------

TEST(Distributions, ParetoSupportAndCcdf) {
  Rng rng(1);
  ParetoDistribution pareto(2.0, 1.5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(pareto.Sample(rng), 2.0);
  }
  EXPECT_DOUBLE_EQ(pareto.Ccdf(2.0), 1.0);
  EXPECT_NEAR(pareto.Ccdf(4.0), std::pow(0.5, 1.5), 1e-12);
  EXPECT_NEAR(pareto.Quantile(0.5), 2.0 / std::pow(0.5, 1.0 / 1.5), 1e-9);
}

TEST(Distributions, ParetoMean) {
  EXPECT_NEAR(ParetoDistribution(1.0, 2.0).Mean(), 2.0, 1e-12);
  EXPECT_TRUE(std::isinf(ParetoDistribution(1.0, 0.9).Mean()));
}

TEST(Distributions, ParetoEmpiricalMeanMatchesAnalytic) {
  Rng rng(2);
  ParetoDistribution pareto(1.0, 3.0);  // Finite variance: mean converges.
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += pareto.Sample(rng);
  }
  EXPECT_NEAR(sum / n, pareto.Mean(), 0.02);
}

TEST(Distributions, BoundedParetoStaysInRange) {
  Rng rng(3);
  BoundedParetoDistribution bp(1.0, 100.0, 1.2);
  for (int i = 0; i < 20000; ++i) {
    const double v = bp.Sample(rng);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 100.0);
  }
}

TEST(Distributions, BoundedParetoEmpiricalMean) {
  Rng rng(4);
  BoundedParetoDistribution bp(1.0, 1000.0, 1.5);
  double sum = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    sum += bp.Sample(rng);
  }
  EXPECT_NEAR(sum / n, bp.Mean(), bp.Mean() * 0.03);
}

TEST(Distributions, ExponentialMean) {
  Rng rng(5);
  ExponentialDistribution exp_dist(0.5);
  EXPECT_DOUBLE_EQ(exp_dist.Mean(), 2.0);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += exp_dist.Sample(rng);
  }
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Distributions, LogNormalMean) {
  Rng rng(6);
  LogNormalDistribution lognormal(1.0, 0.5);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += lognormal.Sample(rng);
  }
  EXPECT_NEAR(sum / n, lognormal.Mean(), lognormal.Mean() * 0.02);
}

TEST(Distributions, PoissonProcessRate) {
  Rng rng(11);
  PoissonProcess process(10.0);  // 10 events/second.
  std::vector<double> arrivals;
  double t = 0.0;
  for (int i = 0; i < 20000; ++i) {
    t += process.NextGapSeconds(rng);
    arrivals.push_back(t);
  }
  ASSERT_EQ(arrivals.size(), 20000u);
  // Mean gap = 0.1 s => 20000 arrivals span ~2000 s.
  EXPECT_NEAR(arrivals.back(), 2000.0, 60.0);
  // Arrival times are strictly increasing.
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GT(arrivals[i], arrivals[i - 1]);
  }
}

// --- StreamingStats ----------------------------------------------------------------

TEST(StreamingStats, BasicMoments) {
  StreamingStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStats, WeightedMean) {
  StreamingStats s;
  s.Add(10.0, 1.0);
  s.Add(20.0, 3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 17.5);
}

TEST(StreamingStats, MergeEqualsCombined) {
  StreamingStats a;
  StreamingStats b;
  StreamingStats combined;
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble() * 100;
    (i % 2 == 0 ? a : b).Add(v);
    combined.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(StreamingStats, MergeWithEmpty) {
  StreamingStats a;
  a.Add(5.0);
  StreamingStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

// --- WeightedCdf --------------------------------------------------------------------

TEST(WeightedCdf, FractionsAndPercentiles) {
  WeightedCdf cdf;
  cdf.Add(1.0);
  cdf.Add(2.0);
  cdf.Add(3.0);
  cdf.Add(4.0);
  cdf.Finalize();
  EXPECT_DOUBLE_EQ(cdf.Fraction(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.Fraction(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.Fraction(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Percentile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(cdf.Percentile(1.0), 4.0);
}

TEST(WeightedCdf, WeightsShiftMass) {
  WeightedCdf cdf;
  cdf.Add(1.0, 1.0);
  cdf.Add(100.0, 9.0);
  cdf.Finalize();
  EXPECT_DOUBLE_EQ(cdf.Fraction(1.0), 0.1);
  EXPECT_DOUBLE_EQ(cdf.Percentile(0.5), 100.0);
}

TEST(WeightedCdf, MonotoneNondecreasing) {
  Rng rng(13);
  WeightedCdf cdf;
  for (int i = 0; i < 1000; ++i) {
    cdf.Add(rng.NextDouble() * 1000, rng.NextDouble() + 0.01);
  }
  cdf.Finalize();
  double prev = -1;
  for (double x = 0; x <= 1000; x += 25) {
    const double f = cdf.Fraction(x);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

// The reference for radix/coalesce parity: stable sort by value, then the
// same equal-value (bitwise) coalescing Finalize applies. Insertion order
// within a tie group fixes the weight-summing order, which both paths share
// (the radix sort is stable), so the result must be bit-identical.
std::vector<std::pair<double, double>> ReferenceFinalize(
    std::vector<std::pair<double, double>> samples) {
  std::stable_sort(samples.begin(), samples.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<double, double>> out;
  for (const auto& s : samples) {
    if (!out.empty() && out.back().first == s.first) {
      out.back().second += s.second;
    } else {
      out.push_back(s);
    }
  }
  return out;
}

void ExpectFinalizeMatchesReference(const std::vector<std::pair<double, double>>& samples) {
  WeightedCdf cdf;
  for (const auto& [v, w] : samples) {
    cdf.Add(v, w);
  }
  cdf.Finalize();
  const auto want = ReferenceFinalize(samples);
  ASSERT_EQ(cdf.samples().size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    // Bitwise equality: the radix order and the coalescing sums must both
    // match the reference exactly, not within a tolerance.
    EXPECT_EQ(std::memcmp(&cdf.samples()[i], &want[i], sizeof(want[i])), 0) << "i=" << i;
  }
}

TEST(SortSamplesByValue, MatchesStableSortOnRandomData) {
  Rng rng(0xAB12CD34);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 5000));
    std::vector<std::pair<double, double>> samples;
    samples.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      samples.emplace_back((rng.NextDouble() - 0.5) * 1e9, rng.NextDouble());
    }
    auto radix = samples;
    SortSamplesByValue(&radix);
    std::stable_sort(samples.begin(), samples.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    ASSERT_EQ(radix.size(), samples.size());
    if (!samples.empty()) {
      EXPECT_EQ(std::memcmp(radix.data(), samples.data(), samples.size() * sizeof(samples[0])),
                0)
          << "trial=" << trial;
    }
  }
}

TEST(SortSamplesByValue, AdversarialTiesNegativesAndNarrowRanges) {
  Rng rng(0xFEE1DEAD);
  // Heavy ties (weights distinguish the pairs, so stability shows), mixed
  // signs, denormal-adjacent magnitudes, and values whose keys differ in
  // only one byte (most radix passes skip as uniform).
  std::vector<std::pair<double, double>> samples;
  for (int i = 0; i < 4000; ++i) {
    const int kind = static_cast<int>(rng.UniformInt(0, 4));
    double v = 0;
    switch (kind) {
      case 0:
        v = static_cast<double>(rng.UniformInt(-3, 3));  // Dense ties, both signs.
        break;
      case 1:
        v = 1e-308 * rng.NextDouble();  // Tiny magnitudes.
        break;
      case 2:
        v = -1e308 * rng.NextDouble();  // Huge negatives.
        break;
      case 3:
        v = 1024.0 + static_cast<double>(rng.UniformInt(0, 255));  // One varying key byte.
        break;
      default:
        v = rng.NextDouble();
        break;
    }
    samples.emplace_back(v, static_cast<double>(i));  // Unique weights expose order.
  }
  auto radix = samples;
  SortSamplesByValue(&radix);
  std::stable_sort(samples.begin(), samples.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(std::memcmp(radix.data(), samples.data(), samples.size() * sizeof(samples[0])), 0);
}

TEST(WeightedCdf, FinalizeCoalescesAndMatchesReference) {
  Rng rng(0x5CA1AB1E);
  std::vector<std::pair<double, double>> samples;
  for (int i = 0; i < 3000; ++i) {
    // Integer-valued doubles with many repeats: the scan's actual sample
    // shape (sizes, byte counts), where coalescing sums stay exact.
    samples.emplace_back(static_cast<double>(rng.UniformInt(0, 200)) * 512.0, 1.0);
  }
  ExpectFinalizeMatchesReference(samples);

  // Queries are unchanged by coalescing: count() keeps the append count.
  WeightedCdf cdf;
  for (const auto& [v, w] : samples) {
    cdf.Add(v, w);
  }
  cdf.Finalize();
  EXPECT_EQ(cdf.count(), samples.size());
  EXPECT_LT(cdf.size(), samples.size());  // 201 distinct values at most.
  EXPECT_DOUBLE_EQ(cdf.total_weight(), static_cast<double>(samples.size()));
}

TEST(WeightedCdf, SpillModeFinalizeIsByteIdentical) {
  Rng rng(0xD0D0CACA);
  const std::string path = ScratchPath("cdf_spill_test");
  // Several full chunks plus a resident tail; values repeat across chunks
  // so the external merge actually coalesces across run boundaries.
  std::vector<std::pair<double, double>> samples;
  for (int i = 0; i < 10000; ++i) {
    samples.emplace_back(static_cast<double>(rng.UniformInt(0, 500)),
                         static_cast<double>(rng.UniformInt(1, 8)));
  }

  WeightedCdf resident;
  WeightedCdf spilled;
  spilled.SpillTo(path, 1024);  // Chunk floor: ~9 spilled runs + tail.
  for (const auto& [v, w] : samples) {
    resident.Add(v, w);
    spilled.Add(v, w);
  }
  resident.Finalize();
  spilled.Finalize();

  ASSERT_EQ(spilled.samples().size(), resident.samples().size());
  EXPECT_EQ(std::memcmp(spilled.samples().data(), resident.samples().data(),
                        resident.samples().size() * sizeof(resident.samples()[0])),
            0);
  EXPECT_EQ(spilled.count(), resident.count());
  EXPECT_DOUBLE_EQ(spilled.total_weight(), resident.total_weight());
  for (double p : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(spilled.Percentile(p), resident.Percentile(p));
  }
  // Finalize removed the spill file.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) {
    std::fclose(f);
  }
}

// --- IntervalSeries -----------------------------------------------------------------

TEST(IntervalSeries, CountsEvents) {
  IntervalSeries series(10.0);
  series.AddEvent(0.5);
  series.AddEvent(5.0);
  series.AddEvent(15.0);
  series.AddEvent(99.0);
  EXPECT_EQ(series.NumIntervals(), 10u);
  EXPECT_DOUBLE_EQ(series.CountAt(0), 2.0);
  EXPECT_DOUBLE_EQ(series.CountAt(1), 1.0);
  EXPECT_DOUBLE_EQ(series.CountAt(5), 0.0);
  EXPECT_DOUBLE_EQ(series.CountAt(9), 1.0);
  EXPECT_EQ(series.Dense().size(), 10u);
}

// --- Correlation / least squares -----------------------------------------------------

TEST(Correlation, PerfectAndAbsent) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  const std::vector<double> anti = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, anti), -1.0, 1e-12);
  const std::vector<double> flat = {3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, flat), 0.0);
}

TEST(LeastSquaresFit, RecoversLine) {
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.0 * i);
  }
  const LinearFit fit = LeastSquares(x, y);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

// --- Tail diagnostics ------------------------------------------------------------------

class HillRecoveryTest : public ::testing::TestWithParam<double> {};

TEST_P(HillRecoveryTest, RecoversTrueAlpha) {
  const double alpha = GetParam();
  Rng rng(17);
  ParetoDistribution pareto(1.0, alpha);
  std::vector<double> sample;
  for (int i = 0; i < 100000; ++i) {
    sample.push_back(pareto.Sample(rng));
  }
  const double estimate = HillEstimator::EstimateWithTailFraction(sample, 0.05);
  EXPECT_NEAR(estimate, alpha, alpha * 0.1);
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, HillRecoveryTest,
                         ::testing::Values(0.8, 1.0, 1.2, 1.5, 1.7, 2.0, 2.5));

TEST(HillEstimator, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(HillEstimator::Estimate({}, 1), 0.0);
  EXPECT_DOUBLE_EQ(HillEstimator::Estimate({1.0}, 1), 0.0);
  EXPECT_DOUBLE_EQ(HillEstimator::Estimate({1.0, 2.0, 3.0}, 5), 0.0);
}

TEST(HillEstimator, HillPlotStabilizes) {
  Rng rng(18);
  ParetoDistribution pareto(1.0, 1.4);
  std::vector<double> sample;
  for (int i = 0; i < 50000; ++i) {
    sample.push_back(pareto.Sample(rng));
  }
  const auto plot = HillEstimator::HillPlot(sample, 500, 5000, 500);
  ASSERT_GT(plot.size(), 5u);
  for (const auto& [k, alpha_hat] : plot) {
    EXPECT_NEAR(alpha_hat, 1.4, 0.25) << "k=" << k;
  }
}

TEST(Llcd, ParetoTailSlopeRecovered) {
  Rng rng(19);
  ParetoDistribution pareto(1.0, 1.3);
  std::vector<double> sample;
  for (int i = 0; i < 100000; ++i) {
    sample.push_back(pareto.Sample(rng));
  }
  const LlcdSeries llcd = BuildLlcd(sample, 0.1);
  EXPECT_NEAR(llcd.alpha_hat, 1.3, 0.15);
  EXPECT_GT(llcd.fit_r2, 0.98);
}

TEST(Llcd, ExponentialNotPowerLaw) {
  Rng rng(20);
  ExponentialDistribution exp_dist(1.0);
  std::vector<double> sample;
  for (int i = 0; i < 100000; ++i) {
    sample.push_back(exp_dist.Sample(rng));
  }
  const LlcdSeries llcd = BuildLlcd(sample, 0.1);
  // Exponential tail decays super-polynomially: fitted "alpha" large.
  EXPECT_GT(llcd.alpha_hat, 2.5);
}

TEST(Qq, NormalSampleMatchesNormal) {
  Rng rng(21);
  std::vector<double> sample;
  for (int i = 0; i < 50000; ++i) {
    sample.push_back(5.0 + 2.0 * rng.NextGaussian());
  }
  const QqSeries qn = QqAgainstNormal(sample);
  EXPECT_LT(qn.deviation, 0.001);
}

TEST(Qq, ParetoSampleMatchesParetoNotNormal) {
  Rng rng(22);
  ParetoDistribution pareto(1.0, 1.2);
  std::vector<double> sample;
  for (int i = 0; i < 50000; ++i) {
    sample.push_back(pareto.Sample(rng));
  }
  const QqSeries qp = QqAgainstPareto(sample);
  const QqSeries qn = QqAgainstNormal(sample);
  EXPECT_LT(qp.deviation, qn.deviation);
}

TEST(NormalQuantileFn, KnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.95996, 1e-4);
  EXPECT_NEAR(NormalQuantile(0.025), -1.95996, 1e-4);
  EXPECT_NEAR(NormalQuantile(0.9999), 3.719, 1e-2);
}

}  // namespace
}  // namespace ntrace
