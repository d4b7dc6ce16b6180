#include "src/analysis/user_activity.h"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

namespace ntrace {
namespace {

constexpr double kIntervals[2] = {600.0, 10.0};  // Ten minutes, ten seconds.

// One system's transferred bytes per interval, in interval order, for each
// of kIntervals.
using IntervalBytes = std::vector<std::pair<int64_t, uint64_t>>;
using ActivityPartial = std::array<IntervalBytes, 2>;

ActivityPartial FoldSystem(const TraceSet& trace, std::span<const uint32_t> records) {
  ActivityPartial p;
  for (const uint32_t i : records) {
    const TraceRecord& r = trace.records[i];
    if (!IsDataTransfer(r.Event()) || r.IsCacheInduced()) {
      continue;
    }
    for (size_t k = 0; k < 2; ++k) {
      const int64_t interval = static_cast<int64_t>(r.CompleteTime().ToSecondsF() / kIntervals[k]);
      if (p[k].empty() || p[k].back().first != interval) {
        p[k].emplace_back(interval, 0);
      }
      p[k].back().second += r.returned;
    }
  }
  // A trace sorted by completion is in interval order already.
  for (IntervalBytes& bytes : p) {
    if (!std::is_sorted(bytes.begin(), bytes.end())) {
      std::stable_sort(bytes.begin(), bytes.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      IntervalBytes merged;
      for (const auto& [interval, b] : bytes) {
        if (merged.empty() || merged.back().first != interval) {
          merged.emplace_back(interval, 0);
        }
        merged.back().second += b;
      }
      bytes = std::move(merged);
    }
  }
  return p;
}

UserActivityRow Combine(const std::vector<ActivityPartial>& partials, size_t k,
                        uint64_t threshold_bytes) {
  const double interval_seconds = kIntervals[k];
  UserActivityRow row;
  row.interval_seconds = interval_seconds;
  if (std::all_of(partials.begin(), partials.end(),
                  [k](const ActivityPartial& p) { return p[k].empty(); })) {
    return row;
  }

  // Per-(user, interval) throughput in system-id order, then per interval.
  StreamingStats user_throughput;
  double peak_user = 0;
  std::vector<std::pair<int64_t, double>> active;  // (interval, KB/s).
  for (const ActivityPartial& p : partials) {
    for (const auto& [interval, b] : p[k]) {
      if (b <= threshold_bytes) {
        continue;  // Background service noise, not user activity.
      }
      const double kbs = static_cast<double>(b) / 1024.0 / interval_seconds;
      user_throughput.Add(kbs);
      peak_user = std::max(peak_user, kbs);
      active.emplace_back(interval, kbs);
    }
  }
  std::stable_sort(active.begin(), active.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  // Active-user counts and system-wide throughput per interval; the sums
  // add the systems in id order.
  StreamingStats active_stats;
  for (size_t i = 0; i < active.size();) {
    const int64_t interval = active[i].first;
    int n = 0;
    double system_wide = 0;
    for (; i < active.size() && active[i].first == interval; ++i) {
      ++n;
      system_wide += active[i].second;
    }
    if (interval >= 0) {
      active_stats.Add(n);
      row.max_active_users = std::max(row.max_active_users, n);
    }
    row.peak_system_wide_kbs = std::max(row.peak_system_wide_kbs, system_wide);
  }
  row.avg_active_users = active_stats.mean();
  row.avg_active_users_sd = active_stats.stddev();
  row.avg_user_throughput_kbs = user_throughput.mean();
  row.avg_user_throughput_sd = user_throughput.stddev();
  row.peak_user_throughput_kbs = peak_user;
  return row;
}

}  // namespace

UserActivityResult UserActivityAnalyzer::Analyze(const TraceSet& trace, const SystemIndex& index,
                                                 int workers, uint64_t background_threshold_bytes) {
  const auto fold = [&trace](std::span<const uint32_t> records) {
    return FoldSystem(trace, records);
  };
  const std::vector<ActivityPartial> partials = index.FoldSystems(workers, fold);
  UserActivityResult result;
  result.ten_minutes = Combine(partials, 0, background_threshold_bytes * 60);
  result.ten_seconds = Combine(partials, 1, background_threshold_bytes);
  return result;
}

}  // namespace ntrace
