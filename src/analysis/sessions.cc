#include "src/analysis/sessions.h"

#include <algorithm>
#include <iterator>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ntrace {
namespace {

bool IsNetworkPath(const std::string& path) {
  return path.size() >= 2 && path[0] == '\\' && path[1] == '\\';
}

// One system's samples, in its rows' create order, and its re-open counts.
struct SessionPartial {
  std::vector<double> session_all_ms;
  std::vector<double> session_data_ms;  // Also figure 5's all-opens curve.
  std::vector<double> session_control_ms;
  std::vector<double> open_time_local_ms;
  std::vector<double> open_time_network_ms;
  std::vector<double> close_gap_read_us;
  std::vector<double> close_gap_write_us;
  std::vector<double> interarrival_io_ms;
  std::vector<double> interarrival_control_ms;
  uint64_t readonly_files = 0;
  uint64_t readonly_reopened = 0;
  uint64_t writeonly_files = 0;
  uint64_t writeonly_reread = 0;
  uint64_t seconds_with_opens = 0;
};

SessionPartial FoldSystem(std::span<const Instance> rows) {
  SessionPartial p;
  // Per file, the create-ordered data opens: the read-only open count and
  // (open_complete, had_reads, write_only) for the "write-only file later
  // re-opened for reading" statistic. A fold sees one system, so a path is
  // a file.
  struct PathOpen {
    int64_t at;
    bool had_reads;
    bool write_only;
  };
  struct FileOpens {
    int readonly_opens = 0;
    bool writeonly = false;
    std::vector<PathOpen> opens;
  };
  std::unordered_map<std::string_view, FileOpens> files;

  for (const Instance& s : rows) {
    if (s.open_failed || s.cleanup_time == 0) {
      continue;
    }
    const double session_ms = SimDuration(s.cleanup_time - s.open_complete).ToMillisF();
    p.session_all_ms.push_back(session_ms);
    if (s.HasData()) {
      p.session_data_ms.push_back(session_ms);
      (IsNetworkPath(s.path) ? p.open_time_network_ms : p.open_time_local_ms).push_back(session_ms);
    } else {
      p.session_control_ms.push_back(session_ms);
    }
    if (s.close_time > s.cleanup_time) {
      const double gap_us = SimDuration(s.close_time - s.cleanup_time).ToMicrosF();
      (s.writes() > 0 ? p.close_gap_write_us : p.close_gap_read_us).push_back(gap_us);
    }
    if (s.HasData()) {
      FileOpens& f = files[s.path];
      f.readonly_opens += s.ReadOnly() ? 1 : 0;
      f.writeonly = f.writeonly || s.WriteOnly();
      f.opens.push_back(PathOpen{s.open_complete, s.reads() > 0, s.WriteOnly()});
    }
  }
  for (const auto& [_, f] : files) {
    p.readonly_files += f.readonly_opens > 0 ? 1 : 0;
    p.readonly_reopened += f.readonly_opens > 1 ? 1 : 0;
    if (!f.writeonly) {
      continue;
    }
    ++p.writeonly_files;
    // Was any write-only open of this file followed by a reading open?
    bool found = false;
    for (size_t i = 0; i < f.opens.size() && !found; ++i) {
      if (!f.opens[i].write_only) {
        continue;
      }
      for (size_t j = i + 1; j < f.opens.size(); ++j) {
        if (f.opens[j].had_reads && f.opens[j].at >= f.opens[i].at) {
          found = true;
          break;
        }
      }
    }
    p.writeonly_reread += found ? 1 : 0;
  }

  // Figure 11: the gaps between the system's successive opens (its rows, in
  // create order), by whether the later open moved data.
  std::vector<int64_t> seconds;
  seconds.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    seconds.push_back(rows[i].open_start / SimDuration::kTicksPerSecond);
    if (i > 0) {
      const double gap_ms = SimDuration(rows[i].open_start - rows[i - 1].open_start).ToMillisF();
      (rows[i].HasData() ? p.interarrival_io_ms : p.interarrival_control_ms).push_back(gap_ms);
    }
  }
  std::sort(seconds.begin(), seconds.end());
  p.seconds_with_opens = static_cast<uint64_t>(
      std::distance(seconds.begin(), std::unique(seconds.begin(), seconds.end())));
  return p;
}

}  // namespace

SessionResult SessionAnalyzer::Analyze(const SystemIndex& index, const InstanceTable& instances,
                                       int workers) {
  SessionResult result;
  const std::vector<SessionPartial> partials = instances.FoldSystems(workers, FoldSystem);

  // Each CDF takes its samples from the partials in system-id order, then
  // finalizes: one pool task per CDF.
  using Samples = std::vector<double> SessionPartial::*;
  const std::pair<Samples, WeightedCdf*> cdfs[] = {
      {&SessionPartial::session_all_ms, &result.session_all_ms},
      {&SessionPartial::session_data_ms, &result.session_data_ms},
      {&SessionPartial::session_data_ms, &result.open_time_all_ms},
      {&SessionPartial::session_control_ms, &result.session_control_ms},
      {&SessionPartial::open_time_local_ms, &result.open_time_local_ms},
      {&SessionPartial::open_time_network_ms, &result.open_time_network_ms},
      {&SessionPartial::close_gap_read_us, &result.close_gap_read_us},
      {&SessionPartial::close_gap_write_us, &result.close_gap_write_us},
      {&SessionPartial::interarrival_io_ms, &result.open_interarrival_io_ms},
      {&SessionPartial::interarrival_control_ms, &result.open_interarrival_control_ms},
  };
  const auto samples = [&](int i) {
    size_t n = 0;
    for (const SessionPartial& p : partials) {
      n += (p.*cdfs[i].first).size();
    }
    return n;
  };
  const int n = static_cast<int>(std::size(cdfs));
  ParallelForHeaviestFirst(n, workers, samples, [&](int i) {
    for (const SessionPartial& p : partials) {
      for (const double v : p.*cdfs[i].first) {
        cdfs[i].second->Add(v);
      }
    }
    cdfs[i].second->Finalize();
  });

  uint64_t readonly_files = 0;
  uint64_t readonly_reopened = 0;
  uint64_t writeonly_files = 0;
  uint64_t writeonly_reread = 0;
  uint64_t seconds_with_opens = 0;
  uint64_t systems_with_opens = 0;
  for (const SessionPartial& p : partials) {
    readonly_files += p.readonly_files;
    readonly_reopened += p.readonly_reopened;
    writeonly_files += p.writeonly_files;
    writeonly_reread += p.writeonly_reread;
    seconds_with_opens += p.seconds_with_opens;
    systems_with_opens += p.seconds_with_opens > 0 ? 1 : 0;
  }

  if (!result.open_time_all_ms.empty()) {
    result.data_open_p75_ms = result.open_time_all_ms.Percentile(0.75);
  }
  if (!result.session_all_ms.empty()) {
    result.session_p40_ms = result.session_all_ms.Percentile(0.40);
    result.session_p90_ms = result.session_all_ms.Percentile(0.90);
  }
  result.readonly_reopen_fraction =
      readonly_files == 0 ? 0 : static_cast<double>(readonly_reopened) / readonly_files;
  result.writeonly_reopened_for_read_fraction =
      writeonly_files == 0 ? 0 : static_cast<double>(writeonly_reread) / writeonly_files;

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

  const int64_t max_second = index.last_complete_ticks() / SimDuration::kTicksPerSecond;
  if (max_second > 0 && systems_with_opens > 0) {
    const double total_system_seconds =
        static_cast<double>(max_second) * static_cast<double>(systems_with_opens);
    result.seconds_with_opens_fraction =
        static_cast<double>(seconds_with_opens) / total_system_seconds;
  }
  return result;
}

}  // namespace ntrace
