// Figures 8-10 and the section 7 distribution analysis: arrival-rate views
// at three time scales against a fitted Poisson synthesis, QQ plots against
// Normal and Pareto, the LLCD tail plot with its least-squares alpha, and
// Hill estimates for the traced quantities.

#ifndef SRC_ANALYSIS_BURSTINESS_H_
#define SRC_ANALYSIS_BURSTINESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/stats/descriptive.h"
#include "src/stats/tails.h"
#include "src/trace/trace_set.h"
#include "src/tracedb/instance_table.h"
#include "src/tracedb/system_index.h"

namespace ntrace {

struct ArrivalViews {
  // Figure 8: per-interval open counts at 1 s / 10 s / 100 s, for the trace
  // sample and for a Poisson process with the same mean rate.
  std::vector<double> trace_1s;
  std::vector<double> trace_10s;
  std::vector<double> trace_100s;
  std::vector<double> poisson_1s;
  std::vector<double> poisson_10s;
  std::vector<double> poisson_100s;
  // Coefficient of variation per view; Poisson smooths with scale, heavy
  // tails do not (the figure-8 visual in one number).
  double trace_cv[3] = {0, 0, 0};
  double poisson_cv[3] = {0, 0, 0};
};

struct TailDiagnostics {
  std::string quantity;
  double hill_alpha = 0;       // Paper range: 1.2-1.7.
  LlcdSeries llcd;             // Figure 10.
  QqSeries qq_normal;          // Figure 9 left.
  QqSeries qq_pareto;          // Figure 9 right.
  size_t samples = 0;
};

class BurstinessAnalyzer {
 public:
  // Open-arrival inter-arrival sample (milliseconds) of one system (0 = the
  // busiest system, the most creates with ties to the lowest id, as the
  // paper picks one trace file), read from its slice of `index`, the
  // trace's.
  static std::vector<double> OpenInterarrivalsMs(const TraceSet& trace, const SystemIndex& index,
                                                 uint32_t system_id = 0);

  static ArrivalViews BuildArrivalViews(const TraceSet& trace, const SystemIndex& index,
                                        uint32_t system_id = 0, uint64_t seed = 99);

  // Full tail diagnostics for a positive sample.
  static TailDiagnostics Diagnose(std::string quantity, std::vector<double> sample);

  // The section-7 sweep: Hill estimates for session inter-arrival times,
  // session holding times, read/write request sizes, per-session byte
  // counts and file sizes. `index` and `instances` must be built over
  // `trace`. The samples are per-system folds at WorkerCount(workers,
  // systems), concatenated in system-id order; the five diagnoses are five
  // pool tasks.
  static std::vector<TailDiagnostics> SweepAll(const TraceSet& trace, const SystemIndex& index,
                                               const InstanceTable& instances, int workers = 1);
};

}  // namespace ntrace

#endif  // SRC_ANALYSIS_BURSTINESS_H_
