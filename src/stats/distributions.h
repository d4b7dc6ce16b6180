// Random-variate distributions used for workload synthesis.
//
// The paper's central statistical claim (section 7) is that essentially every
// traced quantity -- inter-arrival times, session lengths, request sizes,
// file sizes -- is heavy-tailed: P[X > x] ~ x^-alpha with 1.2 <= alpha <= 1.7.
// The workload layer therefore needs first-class Pareto / bounded-Pareto /
// lognormal sources next to the usual exponential/Poisson baselines (the
// baselines are what figure 8 synthesizes for comparison).

#ifndef SRC_STATS_DISTRIBUTIONS_H_
#define SRC_STATS_DISTRIBUTIONS_H_

#include <cstdint>

#include "src/base/rng.h"

namespace ntrace {

// Interface for a positive real-valued random variate source.
class Distribution {
 public:
  virtual ~Distribution() = default;
  virtual double Sample(Rng& rng) const = 0;
  // Analytic mean; returns infinity when the distribution has none.
  virtual double Mean() const = 0;
};

// Pareto with scale x_m > 0 and shape alpha > 0:
//   P[X > x] = (x_m / x)^alpha  for x >= x_m.
// alpha <= 2 gives infinite variance; alpha <= 1 gives infinite mean.
class ParetoDistribution final : public Distribution {
 public:
  ParetoDistribution(double xm, double alpha);
  double Sample(Rng& rng) const override;
  double Mean() const override;
  double alpha() const { return alpha_; }
  double xm() const { return xm_; }
  // Complementary CDF, P[X > x].
  double Ccdf(double x) const;
  // Quantile function (inverse CDF), p in [0, 1).
  double Quantile(double p) const;

 private:
  double xm_;
  double alpha_;
};

// Pareto truncated to [xm, cap]: heavy-tailed body with a physical upper
// bound (e.g. a file cannot exceed the volume size).
class BoundedParetoDistribution final : public Distribution {
 public:
  BoundedParetoDistribution(double xm, double cap, double alpha);
  double Sample(Rng& rng) const override;
  double Mean() const override;

 private:
  double xm_;
  double cap_;
  double alpha_;
};

// Lognormal: ln X ~ N(mu, sigma^2). Used for body-of-distribution effects
// (e.g. small-office-file sizes) under a Pareto tail.
class LogNormalDistribution final : public Distribution {
 public:
  LogNormalDistribution(double mu, double sigma);
  double Sample(Rng& rng) const override;
  double Mean() const override;

 private:
  double mu_;
  double sigma_;
};

// Exponential with rate lambda (mean 1/lambda). The memoryless baseline the
// paper's figure 8 contrasts against.
class ExponentialDistribution final : public Distribution {
 public:
  explicit ExponentialDistribution(double lambda);
  double Sample(Rng& rng) const override;
  double Mean() const override;

 private:
  double lambda_;
};

// Homogeneous Poisson arrival process with the given rate (events/second):
// exponential gaps. Used to synthesize the figure-8 comparison sample.
class PoissonProcess {
 public:
  explicit PoissonProcess(double rate_per_second);
  // Seconds until the next arrival.
  double NextGapSeconds(Rng& rng) const;

 private:
  ExponentialDistribution gap_;
};

}  // namespace ntrace

#endif  // SRC_STATS_DISTRIBUTIONS_H_
