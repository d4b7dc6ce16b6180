// Offline trace inspection: load a saved .ntx collection (an NTCOLX01
// extent store) and summarize it -- the "data collection available for
// public inspection" workflow the paper wanted to enable. Pairs with
// quickstart (which writes the file).
//
//   $ ./quickstart run.ntx && ./trace_inspect run.ntx

#include <cstdio>
#include <map>

#include "src/base/format.h"
#include "src/stats/tails.h"
#include "src/trace/extent_store.h"
#include "src/trace/trace_set.h"
#include "src/tracedb/instance_table.h"
#include "src/workload/fleet.h"

int main(int argc, char** argv) {
  using namespace ntrace;

  TraceSet trace;
  std::string source;
  if (argc > 1) {
    source = argv[1];
    const ColumnarTraceSet store = ColumnarTraceSet::FromFile(source);
    if (!store.read_stats().header_valid) {
      std::fprintf(stderr, "cannot load %s\n", source.c_str());
      return 1;
    }
    if (!store.read_stats().sealed) {
      std::printf("note: %s is not sealed; reading its intact prefix\n", source.c_str());
    }
    trace = store.ToRows();
  } else {
    // No file given: synthesize a small one so the example is runnable
    // stand-alone.
    std::printf("no trace file given; simulating a small fleet first...\n");
    FleetConfig config;
    config.walk_up = 1;
    config.personal = 1;
    config.pool = 0;
    config.administrative = 0;
    config.scientific = 0;
    config.activity_scale = 0.4;
    config.content_scale = 0.08;
    FleetResult fleet = RunFleet(config);
    trace = std::move(fleet.trace);
    source = "<synthesized>";
  }

  std::printf("trace %s: %zu records, %zu name records, %zu systems\n", source.c_str(),
              trace.records.size(), trace.names.size(), trace.SystemIds().size());
  if (trace.records.empty()) {
    return 0;
  }

  // Event mix.
  std::map<uint16_t, uint64_t> by_event;
  uint64_t paging = 0;
  uint64_t cache_induced = 0;
  int64_t first_tick = INT64_MAX;
  int64_t last_tick = 0;
  for (const TraceRecord& r : trace.records) {
    ++by_event[r.event];
    if (r.IsPagingIo()) {
      ++paging;
    }
    if (r.IsCacheInduced()) {
      ++cache_induced;
    }
    first_tick = std::min(first_tick, r.start_ticks);
    last_tick = std::max(last_tick, r.complete_ticks);
  }
  std::printf("span: %s .. %s\n", SimTime(first_tick).ToString().c_str(),
              SimTime(last_tick).ToString().c_str());
  std::printf("paging I/O: %llu records (%llu cache-induced duplicates, section 3.3)\n",
              static_cast<unsigned long long>(paging),
              static_cast<unsigned long long>(cache_induced));

  std::printf("\nevent mix:\n");
  for (const auto& [event, count] : by_event) {
    std::printf("  %-28s %10llu\n",
                std::string(TraceEventName(static_cast<TraceEvent>(event))).c_str(),
                static_cast<unsigned long long>(count));
  }

  // Instances and the busiest files.
  const InstanceTable table = InstanceTable::Build(trace);
  std::printf("\n%zu open-close instances\n", table.rows().size());
  std::map<std::string, uint64_t> bytes_by_path;
  for (const Instance& row : table.rows()) {
    bytes_by_path[row.path] += row.bytes_read + row.bytes_written;
  }
  std::vector<std::pair<uint64_t, std::string>> busiest;
  for (const auto& [path, bytes] : bytes_by_path) {
    busiest.emplace_back(bytes, path);
  }
  std::sort(busiest.rbegin(), busiest.rend());
  std::printf("\nbusiest files by transferred bytes:\n");
  for (size_t i = 0; i < std::min<size_t>(busiest.size(), 8); ++i) {
    std::printf("  %10s  %s\n", FormatBytes(static_cast<double>(busiest[i].first)).c_str(),
                busiest[i].second.c_str());
  }

  // A quick tail check on inter-arrivals, as section 7 would.
  std::vector<double> gaps;
  int64_t last_open = -1;
  for (const TraceRecord& r : trace.records) {
    if (r.Event() != TraceEvent::kIrpCreate) {
      continue;
    }
    if (last_open >= 0 && r.start_ticks > last_open) {
      gaps.push_back(SimDuration(r.start_ticks - last_open).ToMillisF());
    }
    last_open = r.start_ticks;
  }
  if (gaps.size() > 100) {
    const double alpha = HillEstimator::EstimateWithTailFraction(gaps, 0.05);
    std::printf("\nopen inter-arrival Hill alpha: %.2f %s\n", alpha,
                alpha > 0 && alpha < 2 ? "(heavy tail: infinite variance)" : "");
  }
  return 0;
}
