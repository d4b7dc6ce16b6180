#include "src/analysis/burstiness.h"

#include <algorithm>
#include <map>

#include "src/base/rng.h"
#include "src/stats/distributions.h"

namespace ntrace {
namespace {

uint32_t BusiestSystem(const TraceSet& trace) {
  std::map<uint32_t, uint64_t> counts;
  for (const TraceRecord& r : trace.records) {
    if (r.Event() == TraceEvent::kIrpCreate) {
      ++counts[r.system_id];
    }
  }
  uint32_t best = 0;
  uint64_t best_count = 0;
  for (const auto& [id, n] : counts) {
    if (n > best_count) {
      best = id;
      best_count = n;
    }
  }
  return best;
}

double Cv(const std::vector<double>& v) {
  StreamingStats s;
  for (double x : v) {
    s.Add(x);
  }
  return s.mean() > 0 ? s.stddev() / s.mean() : 0;
}

std::vector<double> Bucketize(const std::vector<double>& arrivals_s, double interval) {
  IntervalSeries series(interval);
  for (double t : arrivals_s) {
    series.AddEvent(t);
  }
  return series.Dense();
}

}  // namespace

std::vector<double> BurstinessAnalyzer::OpenInterarrivalsMs(const TraceSet& trace,
                                                            uint32_t system_id) {
  if (system_id == 0) {
    system_id = BusiestSystem(trace);
  }
  std::vector<double> gaps;
  int64_t last = -1;
  for (const TraceRecord& r : trace.records) {
    if (r.Event() != TraceEvent::kIrpCreate || r.system_id != system_id) {
      continue;
    }
    if (last >= 0 && r.start_ticks > last) {
      gaps.push_back(SimDuration(r.start_ticks - last).ToMillisF());
    }
    last = r.start_ticks;
  }
  return gaps;
}

ArrivalViews BurstinessAnalyzer::BuildArrivalViews(const TraceSet& trace, uint32_t system_id,
                                                   uint64_t seed) {
  if (system_id == 0) {
    system_id = BusiestSystem(trace);
  }
  std::vector<double> arrivals;
  for (const TraceRecord& r : trace.records) {
    if (r.Event() == TraceEvent::kIrpCreate && r.system_id == system_id) {
      arrivals.push_back(SimTime(r.start_ticks).ToSecondsF());
    }
  }
  ArrivalViews views;
  if (arrivals.size() < 2) {
    return views;
  }
  const double span = arrivals.back() - arrivals.front();
  const double base = arrivals.front();
  for (double& t : arrivals) {
    t -= base;
  }
  views.trace_1s = Bucketize(arrivals, 1.0);
  views.trace_10s = Bucketize(arrivals, 10.0);
  views.trace_100s = Bucketize(arrivals, 100.0);

  // Poisson synthesis with the same mean rate over the same span.
  const double rate = static_cast<double>(arrivals.size()) / std::max(span, 1.0);
  Rng rng(seed);
  PoissonProcess process(rate);
  std::vector<double> poisson;
  double t = 0.0;
  while (t < span) {
    t += process.NextGapSeconds(rng);
    if (t < span) {
      poisson.push_back(t);
    }
  }
  views.poisson_1s = Bucketize(poisson, 1.0);
  views.poisson_10s = Bucketize(poisson, 10.0);
  views.poisson_100s = Bucketize(poisson, 100.0);

  views.trace_cv[0] = Cv(views.trace_1s);
  views.trace_cv[1] = Cv(views.trace_10s);
  views.trace_cv[2] = Cv(views.trace_100s);
  views.poisson_cv[0] = Cv(views.poisson_1s);
  views.poisson_cv[1] = Cv(views.poisson_10s);
  views.poisson_cv[2] = Cv(views.poisson_100s);
  return views;
}

TailDiagnostics BurstinessAnalyzer::Diagnose(std::string quantity, std::vector<double> sample) {
  TailDiagnostics diag;
  diag.quantity = std::move(quantity);
  sample.erase(std::remove_if(sample.begin(), sample.end(), [](double v) { return v <= 0.0; }),
               sample.end());
  diag.samples = sample.size();
  if (sample.size() < 16) {
    return diag;
  }
  diag.hill_alpha = HillEstimator::EstimateWithTailFraction(sample, 0.05);
  diag.llcd = BuildLlcd(sample, 0.1);
  diag.qq_normal = QqAgainstNormal(sample);
  diag.qq_pareto = QqAgainstPareto(sample);
  return diag;
}

std::vector<TailDiagnostics> BurstinessAnalyzer::SweepAll(const TraceSet& trace,
                                                          const InstanceTable& instances) {
  std::vector<double> interarrivals = OpenInterarrivalsMs(trace);
  std::vector<double> holding_ms;
  std::vector<double> session_bytes;
  std::vector<double> file_sizes;
  for (const Instance& s : instances.rows()) {
    if (s.open_failed || s.cleanup_time == 0) {
      continue;
    }
    holding_ms.push_back(SimDuration(s.cleanup_time - s.open_complete).ToMillisF());
    if (s.HasData()) {
      session_bytes.push_back(static_cast<double>(s.bytes_read + s.bytes_written));
      file_sizes.push_back(static_cast<double>(s.max_file_size));
    }
  }
  std::vector<double> request_sizes;
  for (const TraceRecord& r : trace.records) {
    if (IsDataTransfer(r.Event()) && !r.IsPagingIo() && r.returned > 0) {
      request_sizes.push_back(static_cast<double>(r.returned));
    }
  }

  std::vector<TailDiagnostics> out;
  out.push_back(Diagnose("open inter-arrival time (ms)", std::move(interarrivals)));
  out.push_back(Diagnose("session holding time (ms)", std::move(holding_ms)));
  out.push_back(Diagnose("bytes per open-close session", std::move(session_bytes)));
  out.push_back(Diagnose("accessed file size (bytes)", std::move(file_sizes)));
  out.push_back(Diagnose("read/write request size (bytes)", std::move(request_sizes)));
  return out;
}

}  // namespace ntrace
