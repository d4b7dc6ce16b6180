// Shared pieces of the ntrace pipeline benchmark: options, the result a run
// prints, clocks and memory probes, the workload configurations and the
// output fingerprints every check compares against.

#ifndef NTBENCH_COMMON_H_
#define NTBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/study/study.h"
#include "src/trace/integrity.h"
#include "src/trace/trace_set.h"
#include "src/workload/fleet.h"

namespace ntrace::ntbench {

struct Options {
  std::string workload;  // collect | ingest | analyze | whatif
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;  // Traced per-layer run instead of the end-to-end one.
  bool tiny = false;   // Self-test scale: 5 systems at low activity.
  // Planted fault for the self-test: "drop-record" or "truncate-store".
  std::string plant;
  std::string work_dir;  // Scratch files (spools, extent stores) live here.
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one run reports: the last stdout line is this object as JSON.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  // Records a failed output check: `ops` failed operations plus a reason on
  // stderr. The run is then no longer correct.
  void Fail(uint64_t ops, const std::string& why);
  // Checks `ok`; a false value is a failed check worth `ops` operations.
  bool Check(bool ok, uint64_t ops, const std::string& why) {
    if (!ok) {
      Fail(ops, why);
    }
    return ok;
  }
};

// Steady-clock and process-CPU (all threads) seconds.
double Now();
double CpuNow();
// Peak (high-water) and current resident set size of this process, in MB.
double PeakRssMb();
double CurrentRssMb();
// Returns freed heap pages to the kernel and resets the peak-RSS mark
// (VmHWM) to the current RSS; PeakRssSinceResetMb then reads the peak of
// one iteration. (ru_maxrss, behind PeakRssMb, never resets.)
void ResetPeakRss();
double PeakRssSinceResetMb();

double Median(std::vector<double> values);
// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);

// Runs body(i) for every i in [0, n) on `workers` threads pulling from a
// shared counter, the way RunFleet's pool does. Returns the wall seconds.
double RunPool(int n, int workers, const std::function<void(int)>& body);

// Seed s owns fleet seeds 1999 + kSeedFleets * s + k, 0 <= k < kSeedFleets:
// a workload run covers the first few of them (the per-fleet cost swings
// with the fleet's heaviest systems, so one fleet is too noisy an input).
// Seed 0, fleet 0 is the repo's standard study.
inline constexpr int kSeedFleets = 16;
// Study fleet `fleet` of the run: the standard study (45 systems x 1 day,
// activity 0.75, content 0.12); --tiny shrinks it to one system per
// category.
FleetConfig StudyFleet(const Options& options, int fleet, int threads);
// The production collection path over the same fleet: loopback net
// collection (2 ingest shards, 2 workers), server-side durable spool and
// columnar out-of-core merge, all under `dir`.
FleetConfig IngestFleet(const Options& options, int fleet, const std::string& dir);
// The pinned 5-system replay fidelity envelope (seed 7, activity 0.3,
// content 0.05).
FleetConfig EnvelopeFleet();

// FNV-1a over every observable output of a row-mode collection: record
// bytes, names, process map (in iteration order) and the integrity report.
uint64_t FleetFingerprint(const TraceSet& trace, const IntegrityReport& integrity);

// Writes `trace` as a compressed extent store. Returns the bytes written,
// or 0 on failure.
uint64_t WriteExtentStore(const TraceSet& trace, const std::string& path);

// Cuts the file at `path` to half its size (the planted "truncated store").
void TruncateHalf(const std::string& path);

uint64_t FileSize(const std::string& path);

// One timed iteration over input `input` (a fleet index). TimedLoop fills
// peak_mb: the RSS high-water mark of the whole iteration, including any
// per-iteration set-up.
struct Sample {
  double wall = 0;
  double cpu = 0;
  uint64_t records = 0;
  int input = 0;
  double peak_mb = 0;
};
// Emits setup_s (median set-up) and, per input the median iteration summed
// over the inputs (total over total): records_per_s, cpu_ns_per_record and
// rss_bytes_per_record (peak RSS over records: fleet sizes vary by +-20%
// between seeds, and per record the peak does not).
void AddEndToEnd(Outcome* out, const std::vector<double>& setup_seconds,
                 const std::vector<Sample>& samples);

// Calls iteration(0), iteration(1), ... in whole passes of `pass`
// iterations, until the timed seconds they report add up to
// options.seconds and at least `min_passes` passes ran, so every input is
// measured equally often whatever the machine's speed.
std::vector<Sample> TimedLoop(const Options& options, int pass, int min_passes,
                              const std::function<Sample(int)>& iteration);

// The end-to-end workloads (workloads.cc) and the traced ledger (traced.cc).
Outcome RunCollect(const Options& options);
Outcome RunIngest(const Options& options);
Outcome RunAnalyze(const Options& options);
Outcome RunWhatif(const Options& options);
Outcome RunLedger(const Options& options);

// One step of the analyze workload: a Study accessor call, the layer span it
// belongs to in the traced run, and whether its figure came back non-empty
// (an empty figure is one failed operation).
struct FigureStep {
  const char* figure;
  const char* span;
  std::function<bool(Study&)> compute;
};
// Every Study table and figure, in an order that computes each memoized
// input (scan, instance table, application view) in its own step first.
const std::vector<FigureStep>& StudyFigures();

}  // namespace ntrace::ntbench

#endif  // NTBENCH_COMMON_H_
