#include "src/analysis/sessions.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "src/base/format.h"

namespace ntrace {
namespace {

bool IsNetworkPath(const std::string& path) {
  return path.size() >= 2 && path[0] == '\\' && path[1] == '\\';
}

}  // namespace

SessionResult SessionAnalyzer::Analyze(const TraceSet& trace, const InstanceTable& instances) {
  SessionResult result;

  // --- Figures 5 and 12, close gaps, reuse -----------------------------------
  std::unordered_map<FileKey, int, FileKeyHash> readonly_opens;
  std::unordered_map<FileKey, int, FileKeyHash> writeonly_opens;
  // Per file, the time-ordered (open_complete, had_reads, write_only) list
  // used for the "write-only file later re-opened for reading" statistic.
  struct PathOpen {
    int64_t at;
    bool had_reads;
    bool write_only;
  };
  std::unordered_map<FileKey, std::vector<PathOpen>, FileKeyHash> path_opens;

  for (const Instance& s : instances.rows()) {
    if (s.open_failed || s.cleanup_time == 0) {
      continue;
    }
    const double session_ms = SimDuration(s.cleanup_time - s.open_complete).ToMillisF();
    result.session_all_ms.Add(session_ms);
    if (s.HasData()) {
      result.session_data_ms.Add(session_ms);
      result.open_time_all_ms.Add(session_ms);
      (IsNetworkPath(s.path) ? result.open_time_network_ms : result.open_time_local_ms)
          .Add(session_ms);
    } else {
      result.session_control_ms.Add(session_ms);
    }
    if (s.close_time > s.cleanup_time) {
      const double gap_us = SimDuration(s.close_time - s.cleanup_time).ToMicrosF();
      (s.writes() > 0 ? result.close_gap_write_us : result.close_gap_read_us).Add(gap_us);
    }
    if (s.ReadOnly()) {
      ++readonly_opens[s.file()];
    } else if (s.WriteOnly()) {
      ++writeonly_opens[s.file()];
    }
    if (s.HasData()) {
      path_opens[s.file()].push_back(PathOpen{s.open_complete, s.reads() > 0, s.WriteOnly()});
    }
  }

  result.open_time_all_ms.Finalize();
  result.open_time_local_ms.Finalize();
  result.open_time_network_ms.Finalize();
  result.session_all_ms.Finalize();
  result.session_control_ms.Finalize();
  result.session_data_ms.Finalize();
  result.close_gap_read_us.Finalize();
  result.close_gap_write_us.Finalize();

  if (!result.open_time_all_ms.empty()) {
    result.data_open_p75_ms = result.open_time_all_ms.Percentile(0.75);
  }
  if (!result.session_all_ms.empty()) {
    result.session_p40_ms = result.session_all_ms.Percentile(0.40);
    result.session_p90_ms = result.session_all_ms.Percentile(0.90);
  }

  {
    int reopened = 0;
    for (const auto& [_, n] : readonly_opens) {
      if (n > 1) {
        ++reopened;
      }
    }
    result.readonly_reopen_fraction =
        readonly_opens.empty() ? 0 : static_cast<double>(reopened) / readonly_opens.size();
    int later_read = 0;
    for (const auto& [file, opens] : writeonly_opens) {
      (void)opens;
      auto it = path_opens.find(file);
      if (it == path_opens.end()) {
        continue;
      }
      // Was any write-only open of this path followed by a reading open?
      bool found = false;
      for (size_t i = 0; i < it->second.size() && !found; ++i) {
        if (!it->second[i].write_only) {
          continue;
        }
        for (size_t j = i + 1; j < it->second.size(); ++j) {
          if (it->second[j].had_reads && it->second[j].at >= it->second[i].at) {
            found = true;
            break;
          }
        }
      }
      if (found) {
        ++later_read;
      }
    }
    result.writeonly_reopened_for_read_fraction =
        writeonly_opens.empty() ? 0
                                : static_cast<double>(later_read) / writeonly_opens.size();
  }

  // --- Figure 11: open inter-arrivals (per system, data vs control) ----------
  // Classify each instance once, then walk create records in time order.
  std::unordered_map<uint64_t, bool> is_data_open;
  for (const Instance& s : instances.rows()) {
    is_data_open[s.file_object] = s.HasData();
  }
  std::map<uint32_t, int64_t> last_open_by_system;
  std::set<std::pair<uint32_t, int64_t>> seconds_with_open;
  int64_t max_second = 0;
  for (const TraceRecord& r : trace.records) {
    max_second = std::max(max_second, r.complete_ticks / SimDuration::kTicksPerSecond);
    if (r.Event() != TraceEvent::kIrpCreate) {
      continue;
    }
    seconds_with_open.insert({r.system_id, r.start_ticks / SimDuration::kTicksPerSecond});
    auto it = last_open_by_system.find(r.system_id);
    if (it != last_open_by_system.end()) {
      const double gap_ms = SimDuration(r.start_ticks - it->second).ToMillisF();
      auto data_it = is_data_open.find(r.file_object);
      const bool data = data_it != is_data_open.end() && data_it->second;
      (data ? result.open_interarrival_io_ms : result.open_interarrival_control_ms)
          .Add(gap_ms);
    }
    last_open_by_system[r.system_id] = r.start_ticks;
  }
  result.open_interarrival_io_ms.Finalize();
  result.open_interarrival_control_ms.Finalize();

  // Combined percentiles over both classes.
  {
    WeightedCdf combined;
    for (const auto& [v, w] : result.open_interarrival_io_ms.samples()) {
      combined.Add(v, w);
    }
    for (const auto& [v, w] : result.open_interarrival_control_ms.samples()) {
      combined.Add(v, w);
    }
    combined.Finalize();
    if (!combined.empty()) {
      result.interarrival_p40_ms = combined.Percentile(0.40);
      result.interarrival_p90_ms = combined.Percentile(0.90);
    }
  }

  if (max_second > 0 && !last_open_by_system.empty()) {
    const double total_system_seconds =
        static_cast<double>(max_second) * static_cast<double>(last_open_by_system.size());
    result.seconds_with_opens_fraction =
        static_cast<double>(seconds_with_open.size()) / total_system_seconds;
  }
  return result;
}

}  // namespace ntrace
