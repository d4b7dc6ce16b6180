// Quickstart: run a small file-system usage study end to end.
//
// This is the 30-second tour of the library: configure a fleet, run it,
// pull out a handful of the paper's headline numbers, and save the trace
// (an NTCOLX01 extent store) for offline analysis.
//
//   $ ./quickstart [output.ntx]

#include <cstdio>

#include "src/base/format.h"
#include "src/study/study.h"
#include "src/trace/extent_store.h"

int main(int argc, char** argv) {
  using namespace ntrace;

  // One machine of each usage category, one simulated day, small initial
  // content so this runs in a couple of seconds.
  StudyConfig config;
  config.fleet.walk_up = 1;
  config.fleet.pool = 1;
  config.fleet.personal = 1;
  config.fleet.administrative = 1;
  config.fleet.scientific = 1;
  config.fleet.days = 1;
  config.fleet.seed = 2026;
  config.fleet.activity_scale = 0.5;
  config.fleet.content_scale = 0.1;

  Study study(config);
  std::printf("simulating %d systems for %d day(s)...\n", config.fleet.TotalSystems(),
              config.fleet.days);
  study.Run();

  std::printf("collected %zu trace records over %zu file-object instances\n",
              study.trace().records.size(), study.instances().rows().size());

  // A few of the paper's headline measurements.
  const OperationResult& ops = study.Operations();
  std::printf("\nheadlines (paper value in parentheses):\n");
  std::printf("  opens doing only control/directory work: %s  (74%%)\n",
              FormatPct(ops.control_only_open_fraction).c_str());
  std::printf("  open requests failing:                   %s  (12%%)\n",
              FormatPct(ops.open_failure_fraction).c_str());

  const CacheAnalysisResult& cache = study.Cache();
  std::printf("  reads served from the file cache:        %s  (60%%)\n",
              FormatPct(cache.cached_read_fraction).c_str());

  const FastIoResultAnalysis& fastio = study.FastIo();
  std::printf("  reads via the FastIO path:               %s  (59%%)\n",
              FormatPct(fastio.fastio_read_share).c_str());
  std::printf("  writes via the FastIO path:              %s  (96%%)\n",
              FormatPct(fastio.fastio_write_share).c_str());

  const SessionResult& sessions = study.Sessions();
  std::printf("  75%% of data opens shorter than:          %.2fms  (10ms)\n",
              sessions.data_open_p75_ms);

  // Persist the collection for later runs of the analyzers.
  const char* path = argc > 1 ? argv[1] : "quickstart.ntx";
  if (study.trace().SaveTo(path)) {
    std::printf("\ntrace saved to %s\n", path);
    const ColumnarTraceSet reloaded = ColumnarTraceSet::FromFile(path);
    if (reloaded.read_stats().sealed) {
      std::printf("reload check: %llu records\n",
                  static_cast<unsigned long long>(reloaded.record_count()));
    }
  }
  return 0;
}
