#include "src/analysis/burstiness.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/base/rng.h"
#include "src/stats/distributions.h"

namespace ntrace {
namespace {

// The start times of one system's opens, in trace order (0 = the busiest
// system).
std::vector<int64_t> OpenStarts(const TraceSet& trace, const SystemIndex& index,
                                uint32_t system_id) {
  int slot = -1;
  uint64_t best_count = 0;
  for (int s = 0; s < index.systems(); ++s) {
    if (system_id == 0 ? index.creates(s) > best_count : index.id(s) == system_id) {
      slot = s;
      best_count = index.creates(s);
    }
  }
  std::vector<int64_t> starts;
  if (slot < 0) {
    return starts;
  }
  starts.reserve(index.creates(slot));
  for (const uint32_t i : index.records(slot)) {
    if (trace.records[i].Event() == TraceEvent::kIrpCreate) {
      starts.push_back(trace.records[i].start_ticks);
    }
  }
  return starts;
}

// One system's section-7 samples from its instance rows.
struct RowSamples {
  std::vector<double> holding_ms;
  std::vector<double> session_bytes;
  std::vector<double> file_sizes;
};

RowSamples FoldRows(std::span<const Instance> rows) {
  RowSamples p;
  for (const Instance& s : rows) {
    if (s.open_failed || s.cleanup_time == 0) {
      continue;
    }
    p.holding_ms.push_back(SimDuration(s.cleanup_time - s.open_complete).ToMillisF());
    if (s.HasData()) {
      p.session_bytes.push_back(static_cast<double>(s.bytes_read + s.bytes_written));
      p.file_sizes.push_back(static_cast<double>(s.max_file_size));
    }
  }
  return p;
}

// One system's application request sizes, from its records.
std::vector<double> FoldRequestSizes(const TraceSet& trace, std::span<const uint32_t> records) {
  std::vector<double> sizes;
  for (const uint32_t i : records) {
    const TraceRecord& r = trace.records[i];
    if (IsDataTransfer(r.Event()) && !r.IsPagingIo() && r.returned > 0) {
      sizes.push_back(static_cast<double>(r.returned));
    }
  }
  return sizes;
}

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
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
                                                            const SystemIndex& index,
                                                            uint32_t system_id) {
  std::vector<double> gaps;
  int64_t last = -1;
  for (const int64_t start : OpenStarts(trace, index, system_id)) {
    if (last >= 0 && start > last) {
      gaps.push_back(SimDuration(start - last).ToMillisF());
    }
    last = start;
  }
  return gaps;
}

ArrivalViews BurstinessAnalyzer::BuildArrivalViews(const TraceSet& trace, const SystemIndex& index,
                                                   uint32_t system_id, uint64_t seed) {
  std::vector<double> arrivals;
  for (const int64_t start : OpenStarts(trace, index, system_id)) {
    arrivals.push_back(SimTime(start).ToSecondsF());
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
  // One sort feeds all four diagnostics. The Normal reference's moments
  // come from a pass in the sample's own order first, as QqAgainstNormal
  // takes them: StreamingStats is order-sensitive.
  StreamingStats moments;
  for (double v : sample) {
    moments.Add(v);
  }
  std::sort(sample.begin(), sample.end());
  diag.hill_alpha = HillAlphaSorted(sample, 0.05);
  diag.llcd = BuildLlcdSorted(sample, 0.1);
  diag.qq_normal = QqAgainstNormalSorted(sample, moments.mean(), moments.stddev());
  diag.qq_pareto = QqAgainstParetoSorted(sample);
  return diag;
}

std::vector<TailDiagnostics> BurstinessAnalyzer::SweepAll(const TraceSet& trace,
                                                          const SystemIndex& index,
                                                          const InstanceTable& instances,
                                                          int workers) {
  RowSamples all;
  for (const RowSamples& p : instances.FoldSystems(workers, FoldRows)) {
    Append(&all.holding_ms, p.holding_ms);
    Append(&all.session_bytes, p.session_bytes);
    Append(&all.file_sizes, p.file_sizes);
  }
  std::vector<double> request_sizes;
  const auto fold_request_sizes = [&trace](std::span<const uint32_t> records) {
    return FoldRequestSizes(trace, records);
  };
  for (const std::vector<double>& sizes : index.FoldSystems(workers, fold_request_sizes)) {
    Append(&request_sizes, sizes);
  }

  std::pair<const char*, std::vector<double>> samples[] = {
      {"open inter-arrival time (ms)", OpenInterarrivalsMs(trace, index)},
      {"session holding time (ms)", std::move(all.holding_ms)},
      {"bytes per open-close session", std::move(all.session_bytes)},
      {"accessed file size (bytes)", std::move(all.file_sizes)},
      {"read/write request size (bytes)", std::move(request_sizes)},
  };
  const int n = static_cast<int>(std::size(samples));
  const auto size = [&samples](int i) { return samples[i].second.size(); };
  return ParallelFold(n, workers, size, [&samples](int i) {
    return Diagnose(samples[i].first, std::move(samples[i].second));
  });
}

}  // namespace ntrace
