// Heavy-tail diagnostics: the Hill estimator, log-log complementary
// distribution (LLCD) plots, and QQ plots against Normal and Pareto
// references.
//
// These reproduce the section-7 analysis: the paper reports Hill-estimator
// values for the tail index alpha between 1.2 and 1.7 across traced
// quantities, an LLCD-slope estimate of alpha = 1.2 for open inter-arrivals
// (figure 10), and QQ plots showing departure from Normal but an
// "almost perfect match" against Pareto (figure 9).

#ifndef SRC_STATS_TAILS_H_
#define SRC_STATS_TAILS_H_

#include <cstddef>
#include <vector>

namespace ntrace {

// Hill estimator for the tail index alpha of a heavy-tailed sample.
//
// For the k largest order statistics x_(1) >= ... >= x_(k) >= x_(k+1):
//   H_k = (1/k) * sum_{i=1..k} ln(x_(i) / x_(k+1));  alpha_hat = 1 / H_k.
// alpha < 2 indicates infinite variance; alpha < 1 infinite mean.
class HillEstimator {
 public:
  // Estimate alpha using the top `k` order statistics. `sample` need not be
  // sorted. Returns 0 when the estimate is undefined (k out of range, or
  // non-positive values in the tail).
  static double Estimate(std::vector<double> sample, size_t k);

  // Estimate alpha using a fraction (default 5%) of the sample as the tail.
  static double EstimateWithTailFraction(const std::vector<double>& sample,
                                         double tail_fraction = 0.05);

  // The Hill "plot": alpha_hat as a function of k over a range, used to pick
  // a stable region. Returns pairs (k, alpha_hat).
  static std::vector<std::pair<size_t, double>> HillPlot(std::vector<double> sample, size_t k_min,
                                                         size_t k_max, size_t step);
};

// A point series for an LLCD plot: (log10 x, log10 P[X > x]).
struct LlcdSeries {
  std::vector<double> log_x;
  std::vector<double> log_ccdf;
  // Least-squares slope fitted over the points with log_ccdf below
  // `tail_start_log_p` (i.e. the upper tail). alpha_hat = -slope.
  double fitted_slope = 0.0;
  double alpha_hat = 0.0;
  double fit_r2 = 0.0;
};

// Build the LLCD series for the sample. Points are decimated to at most
// `max_points` for plotting. The slope is fitted over the upper tail: the
// points whose empirical CCDF is <= tail_fraction.
LlcdSeries BuildLlcd(std::vector<double> sample, double tail_fraction = 0.1,
                     size_t max_points = 512);

// A QQ plot pairs sample quantiles with reference-distribution quantiles.
struct QqSeries {
  std::vector<double> sample_q;       // Observed values (sorted quantiles).
  std::vector<double> theoretical_q;  // Matching reference quantiles.
  // Sum of squared deviations from the 45-degree line after scaling both
  // axes to [0,1]; smaller means a better distributional match.
  double deviation = 0.0;
};

// QQ plot against a Normal with mean/stddev estimated from the sample.
QqSeries QqAgainstNormal(std::vector<double> sample, size_t max_points = 256);

// QQ plot against a Pareto whose xm/alpha are estimated from the sample
// (xm = sample minimum clamped positive, alpha from the Hill estimator).
QqSeries QqAgainstPareto(std::vector<double> sample, size_t max_points = 256);

// The same diagnostics over a sample already sorted ascending, every value
// positive: a caller that runs several sorts the sample once and feeds it to
// each (BurstinessAnalyzer::Diagnose). Each returns what its unsorted twin
// returns for that sample.
//
// HillEstimator::EstimateWithTailFraction, reading the top of the sample.
double HillAlphaSorted(const std::vector<double>& ascending, double tail_fraction);
LlcdSeries BuildLlcdSorted(const std::vector<double>& ascending, double tail_fraction = 0.1,
                           size_t max_points = 512);
// `mean` and `sd` as QqAgainstNormal computes them, over the sample in its
// original order (StreamingStats is order-sensitive).
QqSeries QqAgainstNormalSorted(const std::vector<double>& ascending, double mean, double sd,
                               size_t max_points = 256);
QqSeries QqAgainstParetoSorted(const std::vector<double>& ascending, size_t max_points = 256);

// Inverse standard normal CDF (Acklam's rational approximation).
double NormalQuantile(double p);

}  // namespace ntrace

#endif  // SRC_STATS_TAILS_H_
