#include "src/analysis/process_profile.h"

#include <algorithm>
#include <set>
#include <unordered_map>

namespace ntrace {

std::vector<ProcessProfile> ProcessProfileAnalyzer::ByProcess(const TraceSet& trace,
                                                              const InstanceTable& instances) {
  struct Accumulator {
    ProcessProfile profile;
    std::set<FileKey> files;
    WeightedCdf sessions_ms;
  };
  std::map<std::string, Accumulator> by_name;

  for (const Instance& s : instances.rows()) {
    const std::string* name = trace.ProcessNameOf(s.process_id);
    Accumulator& acc = by_name[name != nullptr ? *name : std::string("<unknown>")];
    ++acc.profile.opens;
    if (s.open_failed) {
      ++acc.profile.failed_opens;
      continue;
    }
    acc.files.insert(s.file());
    if (s.HasData()) {
      ++acc.profile.data_sessions;
    } else {
      ++acc.profile.control_only_sessions;
    }
    acc.profile.bytes_read += s.bytes_read;
    acc.profile.bytes_written += s.bytes_written;
    if (s.cleanup_time > 0) {
      const double ms = SimDuration(s.cleanup_time - s.open_complete).ToMillisF();
      acc.profile.session_length_ms.Add(ms);
      acc.sessions_ms.Add(ms);
    }
  }

  std::vector<ProcessProfile> out;
  out.reserve(by_name.size());
  for (auto& [name, acc] : by_name) {
    acc.profile.image_name = name;
    acc.profile.distinct_files = acc.files.size();
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
