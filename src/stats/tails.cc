#include "src/stats/tails.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/stats/descriptive.h"

namespace ntrace {
namespace {

// alpha_hat from the top k order statistics of an ascending sample.
double HillAlphaTop(const std::vector<double>& ascending, size_t k) {
  const size_t n = ascending.size();
  if (k == 0 || k + 1 > n) {
    return 0.0;
  }
  const double xk1 = ascending[n - 1 - k];  // x_(k+1).
  if (xk1 <= 0.0) {
    return 0.0;
  }
  double acc = 0.0;
  for (size_t i = 0; i < k; ++i) {
    const double x = ascending[n - 1 - i];  // x_(i+1), largest first.
    if (x <= 0.0) {
      return 0.0;
    }
    acc += std::log(x / xk1);
  }
  const double h = acc / static_cast<double>(k);
  return h > 0.0 ? 1.0 / h : 0.0;
}

}  // namespace

double HillEstimator::Estimate(std::vector<double> sample, size_t k) {
  if (sample.size() < 2 || k == 0 || k >= sample.size()) {
    return 0.0;
  }
  std::sort(sample.begin(), sample.end());
  return HillAlphaTop(sample, k);
}

double HillEstimator::EstimateWithTailFraction(const std::vector<double>& sample,
                                               double tail_fraction) {
  std::vector<double> ascending = sample;
  std::sort(ascending.begin(), ascending.end());
  return HillAlphaSorted(ascending, tail_fraction);
}

double HillAlphaSorted(const std::vector<double>& ascending, double tail_fraction) {
  const size_t k = std::max<size_t>(
      static_cast<size_t>(static_cast<double>(ascending.size()) * tail_fraction), 1);
  if (ascending.size() < 2 || k >= ascending.size()) {
    return 0.0;
  }
  return HillAlphaTop(ascending, k);
}

std::vector<std::pair<size_t, double>> HillEstimator::HillPlot(std::vector<double> sample,
                                                               size_t k_min, size_t k_max,
                                                               size_t step) {
  std::vector<std::pair<size_t, double>> out;
  if (sample.size() < 2 || step == 0) {
    return out;
  }
  std::sort(sample.begin(), sample.end());
  k_max = std::min(k_max, sample.size() - 1);
  for (size_t k = k_min; k <= k_max; k += step) {
    out.emplace_back(k, HillAlphaTop(sample, k));
  }
  return out;
}

LlcdSeries BuildLlcd(std::vector<double> sample, double tail_fraction, size_t max_points) {
  // Keep only positive values; LLCD needs logs on both axes.
  sample.erase(std::remove_if(sample.begin(), sample.end(), [](double v) { return v <= 0.0; }),
               sample.end());
  std::sort(sample.begin(), sample.end());
  return BuildLlcdSorted(sample, tail_fraction, max_points);
}

LlcdSeries BuildLlcdSorted(const std::vector<double>& sample, double tail_fraction,
                           size_t max_points) {
  LlcdSeries series;
  if (sample.size() < 4) {
    return series;
  }
  const size_t n = sample.size();
  // Decimate to at most max_points, always including the extreme tail.
  const size_t stride = std::max<size_t>(1, n / max_points);
  std::vector<double> tail_x;
  std::vector<double> tail_y;
  for (size_t i = 0; i < n; i += stride) {
    // Empirical CCDF at sample[i]: fraction strictly greater.
    const double ccdf = static_cast<double>(n - 1 - i) / static_cast<double>(n);
    if (ccdf <= 0.0) {
      continue;
    }
    const double lx = std::log10(sample[i]);
    const double ly = std::log10(ccdf);
    series.log_x.push_back(lx);
    series.log_ccdf.push_back(ly);
    if (ccdf <= tail_fraction) {
      tail_x.push_back(lx);
      tail_y.push_back(ly);
    }
  }
  if (tail_x.size() >= 2) {
    const LinearFit fit = LeastSquares(tail_x, tail_y);
    series.fitted_slope = fit.slope;
    series.alpha_hat = -fit.slope;
    series.fit_r2 = fit.r2;
  }
  return series;
}

namespace {

// Shared QQ machinery: pair the quantiles of an ascending sample at evenly
// spaced probabilities with reference quantiles produced by
// `ref_quantile(p)`.
template <typename F>
QqSeries BuildQq(const std::vector<double>& sample, size_t max_points, F ref_quantile) {
  QqSeries qq;
  if (sample.size() < 4) {
    return qq;
  }
  const size_t n = sample.size();
  const size_t points = std::min(max_points, n);
  qq.sample_q.reserve(points);
  qq.theoretical_q.reserve(points);
  for (size_t j = 0; j < points; ++j) {
    // Midpoint plotting positions, avoiding p = 0 and p = 1.
    const double p = (static_cast<double>(j) + 0.5) / static_cast<double>(points);
    const size_t idx = std::min(n - 1, static_cast<size_t>(p * static_cast<double>(n)));
    qq.sample_q.push_back(sample[idx]);
    qq.theoretical_q.push_back(ref_quantile(p));
  }
  // Deviation: normalized sum of squared distances from the identity line.
  const double lo = std::min(qq.sample_q.front(), qq.theoretical_q.front());
  const double hi = std::max(qq.sample_q.back(), qq.theoretical_q.back());
  const double span = hi - lo;
  if (span > 0.0) {
    double acc = 0.0;
    for (size_t j = 0; j < points; ++j) {
      const double d = (qq.sample_q[j] - qq.theoretical_q[j]) / span;
      acc += d * d;
    }
    qq.deviation = acc / static_cast<double>(points);
  }
  return qq;
}

// The Pareto reference: xm the smallest positive value, alpha the Hill
// estimate over the top tenth (1 when undefined).
QqSeries ParetoQq(const std::vector<double>& ascending, double xm, double alpha,
                  size_t max_points) {
  if (xm <= 0.0) {
    return {};
  }
  if (alpha <= 0.0) {
    alpha = 1.0;
  }
  return BuildQq(ascending, max_points,
                 [xm, alpha](double p) { return xm / std::pow(1.0 - p, 1.0 / alpha); });
}

}  // namespace

QqSeries QqAgainstNormal(std::vector<double> sample, size_t max_points) {
  StreamingStats s;
  for (double v : sample) {
    s.Add(v);
  }
  std::sort(sample.begin(), sample.end());
  return QqAgainstNormalSorted(sample, s.mean(), s.stddev(), max_points);
}

QqSeries QqAgainstNormalSorted(const std::vector<double>& ascending, double mean, double sd,
                               size_t max_points) {
  return BuildQq(ascending, max_points,
                 [mean, sd](double p) { return mean + sd * NormalQuantile(p); });
}

QqSeries QqAgainstPareto(std::vector<double> sample, size_t max_points) {
  // Estimate xm as the smallest positive sample and alpha via Hill.
  double xm = 0.0;
  for (double v : sample) {
    if (v > 0.0 && (xm == 0.0 || v < xm)) {
      xm = v;
    }
  }
  if (xm <= 0.0) {
    return {};
  }
  const double alpha = HillEstimator::EstimateWithTailFraction(sample, 0.1);
  std::sort(sample.begin(), sample.end());
  return ParetoQq(sample, xm, alpha, max_points);
}

QqSeries QqAgainstParetoSorted(const std::vector<double>& ascending, size_t max_points) {
  const double xm = ascending.empty() ? 0.0 : ascending.front();
  return ParetoQq(ascending, xm, HillAlphaSorted(ascending, 0.1), max_points);
}

double NormalQuantile(double p) {
  assert(p > 0.0 && p < 1.0);
  // Acklam's rational approximation; |relative error| < 1.15e-9.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
                             3.754408661907416e+00};
  const double plow = 0.02425;
  const double phigh = 1.0 - plow;
  double q;
  double r;
  if (p < plow) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= phigh) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

}  // namespace ntrace
