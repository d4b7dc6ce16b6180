#include "src/analysis/process_profile.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace ntrace {

namespace {

// One system's per-image counts and session lengths (ms, in row order).
struct ProcessTally {
  ProcessProfile profile;
  std::vector<double> sessions_ms;
  std::unordered_set<std::string_view> files;  // A fold sees one system: a path is a file.
};
using ProcessPartial = std::map<std::string, ProcessTally>;

ProcessPartial FoldSystem(const TraceSet& trace, std::span<const Instance> rows) {
  ProcessPartial by_name;
  std::unordered_map<uint32_t, ProcessTally*> by_pid;
  for (const Instance& s : rows) {
    ProcessTally*& tally = by_pid[s.process_id];
    if (tally == nullptr) {
      const std::string* name = trace.ProcessNameOf(s.process_id);
      tally = &by_name[name != nullptr ? *name : std::string("<unknown>")];
    }
    ProcessProfile& profile = tally->profile;
    ++profile.opens;
    if (s.open_failed) {
      ++profile.failed_opens;
      continue;
    }
    tally->files.insert(s.path);
    if (s.HasData()) {
      ++profile.data_sessions;
    } else {
      ++profile.control_only_sessions;
    }
    profile.bytes_read += s.bytes_read;
    profile.bytes_written += s.bytes_written;
    if (s.cleanup_time > 0) {
      tally->sessions_ms.push_back(SimDuration(s.cleanup_time - s.open_complete).ToMillisF());
    }
  }
  for (auto& [_, tally] : by_name) {
    tally.profile.distinct_files = tally.files.size();
    tally.files = {};  // Only the count travels to the combine.
  }
  return by_name;
}

}  // namespace

std::vector<ProcessProfile> ProcessProfileAnalyzer::ByProcess(const TraceSet& trace,
                                                              const InstanceTable& instances,
                                                              int workers) {
  struct Accumulator {
    ProcessProfile profile;
    WeightedCdf sessions_ms;
  };
  std::map<std::string, Accumulator> by_name;
  const auto fold = [&trace](std::span<const Instance> rows) { return FoldSystem(trace, rows); };
  for (const ProcessPartial& partial : instances.FoldSystems(workers, fold)) {
    for (const auto& [name, tally] : partial) {
      Accumulator& acc = by_name[name];
      ProcessProfile& profile = acc.profile;
      profile.opens += tally.profile.opens;
      profile.failed_opens += tally.profile.failed_opens;
      profile.data_sessions += tally.profile.data_sessions;
      profile.control_only_sessions += tally.profile.control_only_sessions;
      profile.bytes_read += tally.profile.bytes_read;
      profile.bytes_written += tally.profile.bytes_written;
      profile.distinct_files += tally.profile.distinct_files;
      for (const double ms : tally.sessions_ms) {
        profile.session_length_ms.Add(ms);
        acc.sessions_ms.Add(ms);
      }
    }
  }

  std::vector<ProcessProfile> out;
  out.reserve(by_name.size());
  for (auto& [name, acc] : by_name) {
    acc.profile.image_name = name;
    const uint64_t ok = acc.profile.opens - acc.profile.failed_opens;
    acc.profile.control_only_fraction =
        ok > 0 ? static_cast<double>(acc.profile.control_only_sessions) / ok : 0;
    acc.sessions_ms.Finalize();
    if (!acc.sessions_ms.empty()) {
      acc.profile.session_p90_ms = acc.sessions_ms.Percentile(0.90);
    }
    out.push_back(std::move(acc.profile));
  }
  std::sort(out.begin(), out.end(), [](const ProcessProfile& a, const ProcessProfile& b) {
    return a.opens > b.opens;
  });
  return out;
}

std::vector<FileTypeProfile> ProcessProfileAnalyzer::ByFileType(
    const InstanceTable& instances) {
  std::map<FileCategory, FileTypeProfile> by_category;
  for (const Instance& s : instances.rows()) {
    if (s.open_failed) {
      continue;
    }
    FileTypeProfile& profile = by_category[s.file_type.category];
    profile.category = s.file_type.category;
    ++profile.opens;
    profile.bytes += s.bytes_read + s.bytes_written;
    profile.file_size.Add(static_cast<double>(s.max_file_size));
    if (s.cleanup_time > 0) {
      profile.session_length_ms.Add(
          SimDuration(s.cleanup_time - s.open_complete).ToMillisF());
    }
  }
  std::vector<FileTypeProfile> out;
  out.reserve(by_category.size());
  for (auto& [_, profile] : by_category) {
    out.push_back(std::move(profile));
  }
  std::sort(out.begin(), out.end(), [](const FileTypeProfile& a, const FileTypeProfile& b) {
    return a.opens > b.opens;
  });
  return out;
}

}  // namespace ntrace
