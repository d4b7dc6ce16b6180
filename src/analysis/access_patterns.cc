#include "src/analysis/access_patterns.h"

#include <algorithm>
#include <span>

namespace ntrace {
namespace {

struct Tally {
  // [usage][pattern] session and byte counts.
  double sessions[3][3] = {};
  double bytes[3][3] = {};
  double total_sessions = 0;
  double total_bytes = 0;
};

// One system's data sessions.
Tally TallySystem(std::span<const Instance> rows) {
  Tally t;
  for (const Instance& s : rows) {
    if (s.open_failed || !s.HasData()) {
      continue;
    }
    const size_t u = static_cast<size_t>(ClassifyUsage(s));
    const size_t p = static_cast<size_t>(ClassifyPattern(s));
    const double b = static_cast<double>(s.bytes_read + s.bytes_written);
    t.sessions[u][p] += 1;
    t.bytes[u][p] += b;
    t.total_sessions += 1;
    t.total_bytes += b;
  }
  return t;
}

}  // namespace

AccessPatternTable AccessPatternAnalyzer::BuildTable(const InstanceTable& instances) {
  AccessPatternTable table;
  // Per-system tallies for the -/+ range columns, from each system's row
  // range; the overall tally is their sum (counts and integer byte totals,
  // so exact under any grouping).
  Tally overall;
  std::vector<Tally> per_system;
  for (int s = 0; s < instances.systems(); ++s) {
    const Tally t = TallySystem(instances.system_rows(s));
    if (t.total_sessions == 0) {
      continue;  // No data session: no range to contribute.
    }
    for (size_t u = 0; u < 3; ++u) {
      for (size_t p = 0; p < 3; ++p) {
        overall.sessions[u][p] += t.sessions[u][p];
        overall.bytes[u][p] += t.bytes[u][p];
      }
    }
    overall.total_sessions += t.total_sessions;
    overall.total_bytes += t.total_bytes;
    per_system.push_back(t);
  }
  table.data_sessions = static_cast<uint64_t>(overall.total_sessions);

  for (size_t u = 0; u < 3; ++u) {
    // Denominators per usage mode (the paper's percentages are within mode).
    double mode_sessions = 0;
    double mode_bytes = 0;
    for (size_t p = 0; p < 3; ++p) {
      mode_sessions += overall.sessions[u][p];
      mode_bytes += overall.bytes[u][p];
    }
    table.usage_totals[u].accesses_pct =
        overall.total_sessions > 0 ? 100.0 * mode_sessions / overall.total_sessions : 0;
    table.usage_totals[u].bytes_pct =
        overall.total_bytes > 0 ? 100.0 * mode_bytes / overall.total_bytes : 0;

    for (size_t p = 0; p < 3; ++p) {
      PatternCell& cell = table.cells[u][p];
      cell.accesses_pct =
          mode_sessions > 0 ? 100.0 * overall.sessions[u][p] / mode_sessions : 0;
      cell.bytes_pct = mode_bytes > 0 ? 100.0 * overall.bytes[u][p] / mode_bytes : 0;
      cell.accesses_min = 100.0;
      cell.bytes_min = 100.0;
      for (const Tally& t : per_system) {
        double sys_mode_sessions = 0;
        double sys_mode_bytes = 0;
        for (size_t q = 0; q < 3; ++q) {
          sys_mode_sessions += t.sessions[u][q];
          sys_mode_bytes += t.bytes[u][q];
        }
        const double a =
            sys_mode_sessions > 0 ? 100.0 * t.sessions[u][p] / sys_mode_sessions : 0;
        const double b = sys_mode_bytes > 0 ? 100.0 * t.bytes[u][p] / sys_mode_bytes : 0;
        cell.accesses_min = std::min(cell.accesses_min, a);
        cell.accesses_max = std::max(cell.accesses_max, a);
        cell.bytes_min = std::min(cell.bytes_min, b);
        cell.bytes_max = std::max(cell.bytes_max, b);
      }
      if (per_system.empty()) {
        cell.accesses_min = cell.accesses_max = cell.accesses_pct;
        cell.bytes_min = cell.bytes_max = cell.bytes_pct;
      }
    }
  }
  return table;
}

RunLengthResult AccessPatternAnalyzer::AnalyzeRuns(const InstanceTable& instances) {
  RunLengthResult result;
  for (const Instance* s : instances.DataSessions()) {
    for (const SequentialRun& run : ExtractRuns(*s)) {
      const double bytes = static_cast<double>(run.bytes);
      if (run.write) {
        result.write_runs_by_count.Add(bytes, 1.0);
        result.write_runs_by_bytes.Add(bytes, bytes);
      } else {
        result.read_runs_by_count.Add(bytes, 1.0);
        result.read_runs_by_bytes.Add(bytes, bytes);
      }
    }
  }
  result.read_runs_by_count.Finalize();
  result.write_runs_by_count.Finalize();
  result.read_runs_by_bytes.Finalize();
  result.write_runs_by_bytes.Finalize();
  if (!result.read_runs_by_count.empty()) {
    result.read_p80_bytes = result.read_runs_by_count.Percentile(0.80);
  }
  return result;
}

FileSizeResult AccessPatternAnalyzer::AnalyzeFileSizes(const InstanceTable& instances) {
  FileSizeResult result;
  for (const Instance* s : instances.DataSessions()) {
    const size_t u = static_cast<size_t>(ClassifyUsage(*s));
    const double size = static_cast<double>(s->max_file_size);
    const double bytes = static_cast<double>(s->bytes_read + s->bytes_written);
    result.size_by_opens[u].Add(size, 1.0);
    result.size_by_bytes[u].Add(size, bytes);
    result.all_by_opens.Add(size, 1.0);
    result.all_by_bytes.Add(size, bytes);
  }
  for (size_t u = 0; u < 3; ++u) {
    result.size_by_opens[u].Finalize();
    result.size_by_bytes[u].Finalize();
  }
  result.all_by_opens.Finalize();
  result.all_by_bytes.Finalize();
  if (!result.all_by_opens.empty()) {
    result.p80_size_by_opens = result.all_by_opens.Percentile(0.80);
  }
  if (!result.all_by_bytes.empty()) {
    // "The top 20% of files are larger than 4 Mbytes, and access to these
    // files accounts for the majority of the transferred bytes": the large
    // end of the byte-weighted size distribution.
    result.top20_size = result.all_by_bytes.Percentile(0.80);
  }
  return result;
}

}  // namespace ntrace
