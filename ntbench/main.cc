// ntbench: the ntrace pipeline benchmark.
//
//   ntbench --workload collect|ingest|analyze|whatif --seed N --seconds S
//           --trace 0|1 [--tiny] [--plant drop-record|truncate-store]
//           [--work-dir DIR]
//
// --trace 0 runs the workload and prints its end-to-end metrics; --trace 1
// runs the traced per-layer ledger (traced.cc). Context lines start with
// '#'; the last stdout line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench/bench_common.h"
#include "ntbench/common.h"

// Counts every heap allocation in this binary (alloc_per_record).
NTRACE_DEFINE_ALLOC_HOOK()

namespace {

using ntrace::ntbench::Options;
using ntrace::ntbench::Outcome;

int Usage(const char* why) {
  std::fprintf(stderr,
               "ntbench: %s\nusage: ntbench --workload collect|ingest|analyze|whatif --seed N "
               "--seconds S --trace 0|1 [--tiny] [--plant drop-record|truncate-store] "
               "[--work-dir DIR]\n",
               why);
  return 2;
}

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || std::strchr(text, '-') != nullptr) {
    return false;
  }
  *out = v;
  return true;
}

void PrintResult(Outcome* out) {
  std::string json;
  for (const ntrace::ntbench::Metric& m : out->metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      out->Fail(1, "metric " + m.name + " is not a finite number");
      value = 0;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    json += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              out->correct ? "true" : "false", static_cast<unsigned long long>(out->attempted),
              static_cast<unsigned long long>(out->failed), json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.work_dir = ".bench_build/work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    uint64_t n = 0;
    if (arg == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (value == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    }
    ++i;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed" && ParseU64(value, &n)) {
      options.seed = n;
    } else if (arg == "--seconds" && ParseU64(value, &n) && n >= 1 && n <= 3600) {
      options.seconds = static_cast<double>(n);
    } else if (arg == "--trace" && ParseU64(value, &n) && n <= 1) {
      options.trace = n == 1;
    } else if (arg == "--plant" && (std::strcmp(value, "drop-record") == 0 ||
                                    std::strcmp(value, "truncate-store") == 0)) {
      options.plant = value;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("bad argument " + arg + " " + value).c_str());
    }
  }
  using RunFn = Outcome (*)(const Options&);
  RunFn run = nullptr;
  if (options.workload == "collect") {
    run = ntrace::ntbench::RunCollect;
  } else if (options.workload == "ingest") {
    run = ntrace::ntbench::RunIngest;
  } else if (options.workload == "analyze") {
    run = ntrace::ntbench::RunAnalyze;
  } else if (options.workload == "whatif") {
    run = ntrace::ntbench::RunWhatif;
  } else {
    return Usage("unknown --workload");
  }
  if (options.trace) {
    run = ntrace::ntbench::RunLedger;
  }

  std::printf("# ntbench workload=%s seed=%llu seconds=%g trace=%d scale=%s plant=%s\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, options.tiny ? "tiny" : "full",
              options.plant.empty() ? "none" : options.plant.c_str());
  std::printf("# nproc=%ld hardware_concurrency=%u build_type=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
              NTBENCH_BUILD_TYPE);
  std::fflush(stdout);
  Outcome out = run(options);
  PrintResult(&out);
  return 0;
}
