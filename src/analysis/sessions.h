// Figures 5, 11, 12 and the section 8.1 open/close characteristics:
// open-request inter-arrivals, file open times, session lifetimes, file
// reuse, and the two-stage cleanup/close latency split.

#ifndef SRC_ANALYSIS_SESSIONS_H_
#define SRC_ANALYSIS_SESSIONS_H_

#include <cstdint>
#include <limits>

#include "src/stats/descriptive.h"
#include "src/tracedb/instance_table.h"
#include "src/tracedb/system_index.h"

namespace ntrace {

// A figure with nothing to measure (an empty CDF, a trace with no opens) is
// NaN, never 0: a paper band never contains NaN, so such a row cannot read
// as agreement.
struct SessionResult {
  static constexpr double kNone = std::numeric_limits<double>::quiet_NaN();

  // Figure 5: open durations of data sessions (milliseconds), overall and
  // split by volume locality.
  WeightedCdf open_time_all_ms;
  WeightedCdf open_time_local_ms;
  WeightedCdf open_time_network_ms;
  double data_open_p75_ms = kNone;  // Paper: ~10 ms (vs 250 ms in Sprite).

  // Figure 11: open-request inter-arrival (milliseconds), by purpose.
  WeightedCdf open_interarrival_io_ms;
  WeightedCdf open_interarrival_control_ms;
  double interarrival_p40_ms = kNone;  // Paper: 40% within 1 ms.
  double interarrival_p90_ms = kNone;  // Paper: 90% within 30 ms.

  // Figure 12: session lifetime (ms) by usage type.
  WeightedCdf session_all_ms;
  WeightedCdf session_control_ms;
  WeightedCdf session_data_ms;
  double session_p40_ms = kNone;  // Paper: 40% close within 1 ms.
  double session_p90_ms = kNone;  // Paper: 90% within 1 s.

  // Section 8.1: cleanup -> close gap (microseconds).
  WeightedCdf close_gap_read_us;   // Read-cached: 4-50 us.
  WeightedCdf close_gap_write_us;  // Write-cached: 1-4 s.

  // Reuse: fraction of read-only-opened files re-opened in the trace, and
  // of write-only files re-opened for reading (section 8.1).
  double readonly_reopen_fraction = 0;
  double writeonly_reopened_for_read_fraction = 0;

  // Fraction of 1-second intervals of the trace that contain any open
  // request ("only up to 24% ... have open requests recorded").
  double seconds_with_opens_fraction = kNone;
};

class SessionAnalyzer {
 public:
  // A per-system fold over the instance table (DESIGN.md §7): each
  // system's rows give its sessions, re-opens and open inter-arrivals, at
  // WorkerCount(workers, systems), and the partials' samples combine in
  // system-id order. `index` is the trace's; its span sizes the
  // open-seconds fraction.
  static SessionResult Analyze(const SystemIndex& index, const InstanceTable& instances,
                               int workers = 1);
};

}  // namespace ntrace

#endif  // SRC_ANALYSIS_SESSIONS_H_
