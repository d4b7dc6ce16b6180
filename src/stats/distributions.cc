#include "src/stats/distributions.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace ntrace {

ParetoDistribution::ParetoDistribution(double xm, double alpha) : xm_(xm), alpha_(alpha) {
  assert(xm > 0.0 && alpha > 0.0);
}

double ParetoDistribution::Sample(Rng& rng) const {
  // Inverse transform: X = xm / U^(1/alpha).
  double u;
  do {
    u = rng.NextDouble();
  } while (u <= 1e-300);
  return xm_ / std::pow(u, 1.0 / alpha_);
}

double ParetoDistribution::Mean() const {
  if (alpha_ <= 1.0) {
    return std::numeric_limits<double>::infinity();
  }
  return alpha_ * xm_ / (alpha_ - 1.0);
}

double ParetoDistribution::Ccdf(double x) const {
  if (x <= xm_) {
    return 1.0;
  }
  return std::pow(xm_ / x, alpha_);
}

double ParetoDistribution::Quantile(double p) const {
  assert(p >= 0.0 && p < 1.0);
  return xm_ / std::pow(1.0 - p, 1.0 / alpha_);
}

BoundedParetoDistribution::BoundedParetoDistribution(double xm, double cap, double alpha)
    : xm_(xm), cap_(cap), alpha_(alpha) {
  assert(xm > 0.0 && cap > xm && alpha > 0.0);
}

double BoundedParetoDistribution::Sample(Rng& rng) const {
  // Inverse transform of the truncated CCDF.
  const double u = rng.NextDouble();
  const double la = std::pow(xm_, alpha_);
  const double ha = std::pow(cap_, alpha_);
  const double x = std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha_);
  return std::clamp(x, xm_, cap_);
}

double BoundedParetoDistribution::Mean() const {
  if (alpha_ == 1.0) {
    return xm_ * cap_ / (cap_ - xm_) * std::log(cap_ / xm_);
  }
  const double la = std::pow(xm_, alpha_);
  const double num = la * alpha_ / (alpha_ - 1.0) *
                     (1.0 / std::pow(xm_, alpha_ - 1.0) - 1.0 / std::pow(cap_, alpha_ - 1.0));
  const double denom = 1.0 - std::pow(xm_ / cap_, alpha_);
  return num / denom;
}

LogNormalDistribution::LogNormalDistribution(double mu, double sigma) : mu_(mu), sigma_(sigma) {
  assert(sigma >= 0.0);
}

double LogNormalDistribution::Sample(Rng& rng) const {
  return std::exp(mu_ + sigma_ * rng.NextGaussian());
}

double LogNormalDistribution::Mean() const { return std::exp(mu_ + sigma_ * sigma_ / 2.0); }

ExponentialDistribution::ExponentialDistribution(double lambda) : lambda_(lambda) {
  assert(lambda > 0.0);
}

double ExponentialDistribution::Sample(Rng& rng) const {
  double u;
  do {
    u = rng.NextDouble();
  } while (u <= 1e-300);
  return -std::log(u) / lambda_;
}

double ExponentialDistribution::Mean() const { return 1.0 / lambda_; }

PoissonProcess::PoissonProcess(double rate_per_second) : gap_(rate_per_second) {}

double PoissonProcess::NextGapSeconds(Rng& rng) const { return gap_.Sample(rng); }

}  // namespace ntrace
