// Table 2: user activity over 10-minute and 10-second intervals.
//
// "The tracing period is divided into 10-minute and 10-second intervals,
// and the number of active users and the throughput per user is averaged
// across those intervals ... A user and thus a system are considered to be
// active during an interval if there was any file system activity during
// that interval that could be attributed to the user" -- with the constant
// service-induced background activity used as the activity threshold
// (section 6.1). Throughput counts transferred bytes including the
// VM-originated executable paging the tracer deliberately recorded, but not
// the cache-manager-induced duplicates (section 3.3).

#ifndef SRC_ANALYSIS_USER_ACTIVITY_H_
#define SRC_ANALYSIS_USER_ACTIVITY_H_

#include <cstdint>

#include "src/stats/descriptive.h"
#include "src/trace/trace_set.h"
#include "src/tracedb/system_index.h"

namespace ntrace {

struct UserActivityRow {
  double interval_seconds = 0;
  int max_active_users = 0;
  double avg_active_users = 0;
  double avg_active_users_sd = 0;
  // KB/s per active user within an interval.
  double avg_user_throughput_kbs = 0;
  double avg_user_throughput_sd = 0;
  double peak_user_throughput_kbs = 0;
  double peak_system_wide_kbs = 0;
};

struct UserActivityResult {
  UserActivityRow ten_minutes;
  UserActivityRow ten_seconds;
};

class UserActivityAnalyzer {
 public:
  // `background_threshold_bytes` is the per-interval byte floor attributed
  // to services; intervals at or below it do not make a user "active". A
  // per-system fold (DESIGN.md §7) over `index`, the trace's, at
  // WorkerCount(workers, systems): each system's records give its bytes
  // per interval, combined in system-id order.
  static UserActivityResult Analyze(const TraceSet& trace, const SystemIndex& index,
                                    int workers = 1, uint64_t background_threshold_bytes = 2048);
};

}  // namespace ntrace

#endif  // SRC_ANALYSIS_USER_ACTIVITY_H_
