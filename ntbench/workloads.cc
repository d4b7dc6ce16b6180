// The four end-to-end workloads. Each one sets up (several times; the
// median is setup_s), then repeats its timed phase for --seconds, checks
// every iteration's output and reports records/s, CPU ns/record and peak
// RSS as medians over the iterations.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "ntbench/common.h"
#include "src/analysis/trace_scan.h"
#include "src/replay/policy_sweep.h"
#include "src/replay/trace_replayer.h"
#include "src/trace/extent_store.h"

namespace ntrace::ntbench {

namespace {

// Fleets per pass of the study workloads. Collect is cheap per fleet and
// most sensitive to a fleet's heaviest system (4 workers, one straggler), so
// it covers more of them, and twice: its runs are short enough that the
// host's second-to-second speed swings would otherwise show between runs.
constexpr int kCollectFleets = 12;
constexpr int kCollectPasses = 2;
constexpr int kIngestFleets = 4;
constexpr int kAnalyzeFleets = 4;
// Set-up repetitions where set-up is not per fleet (the first runs of a
// process are cold, so the median needs a few warm ones), and the what-if
// workload's iterations per pass.
constexpr int kSetups = 3;
constexpr int kWhatifPass = 3;

uint64_t AbsDiff(uint64_t a, uint64_t b) { return a > b ? a - b : b - a; }

// A Study with no run-time knobs besides the fleet.
std::unique_ptr<Study> RunStudy(const Options& options, int fleet) {
  StudyConfig config;
  config.fleet = StudyFleet(options, fleet, /*threads=*/4);
  auto study = std::make_unique<Study>(config);
  study->Run();
  return study;
}

// What the ingest workload's output must reproduce: the in-memory row
// collection of the same seed.
struct IngestReference {
  uint64_t records = 0;
  uint64_t names = 0;
  uint64_t scan_fingerprint = 0;
  double peak_rss_mb = 0;
  bool accounted = false;
};

// Builds the reference in a child process, so the row collection's memory
// (the whole trace resident) does not become the ingest run's peak RSS: the
// production path under test is out-of-core.
bool BuildIngestReference(const Options& options, int fleet, IngestReference* ref) {
  int fds[2];
  if (pipe(fds) != 0) {
    return false;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    IngestReference r;
    {
      const FleetResult row = RunFleet(StudyFleet(options, fleet, /*threads=*/4));
      r.records = row.trace.records.size();
      r.names = row.trace.names.size();
      r.scan_fingerprint = ScanFingerprint(TraceScan::Run(row.trace));
      r.accounted = row.integrity.AllAccounted();
    }
    r.peak_rss_mb = PeakRssMb();
    const bool sent = write(fds[1], &r, sizeof(r)) == static_cast<ssize_t>(sizeof(r));
    close(fds[1]);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  size_t got = 0;
  while (got < sizeof(*ref)) {
    const ssize_t n = read(fds[0], reinterpret_cast<char*>(ref) + got, sizeof(*ref) - got);
    if (n <= 0) {
      break;
    }
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return got == sizeof(*ref) && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// Checks one ingest run's merged store: sealed and undamaged, holding every
// record collected, and scanning exactly like the in-memory reference.
void CheckIngestStore(const FleetResult& r, const std::string& store_path,
                      const IngestReference& ref, Outcome* out) {
  const ColumnarTraceSet store = ColumnarTraceSet::FromFile(store_path);
  const ExtentReadStats& st = store.read_stats();
  const SystemIntegrity t = r.integrity.Totals();
  out->attempted += t.records_emitted;
  out->Check(r.integrity.AllAccounted() && r.net.used && r.columnar_mode, 1,
             "production path did not run or lost records");
  if (!out->Check(st.sealed && st.frames_damaged == 0 && st.records_recovered == r.records_on_disk,
                  t.records_emitted - std::min(st.records_recovered, t.records_emitted),
                  "merged store is not sealed and intact") ||
      !out->Check(r.records_on_disk == ref.records && r.records_on_disk == t.records_collected &&
                      store.names.size() == ref.names,
                  AbsDiff(r.records_on_disk, ref.records) + 1,
                  "records on disk differ from the records collected")) {
    return;
  }
  out->Check(ScanFingerprint(TraceScan::Run(store)) == ref.scan_fingerprint, r.records_on_disk,
             "store scan differs from the in-memory row scan");
}

}  // namespace

const std::vector<FigureStep>& StudyFigures() {
  static const std::vector<FigureStep> steps = {
      {"scan", "analysis.scan",
       [](Study& s) {
         const TraceScan& scan = s.Scan();
         return scan.records_scanned > 0 && scan.records_scanned == s.trace().records.size();
       }},
      {"instances", "tracedb.instances", [](Study& s) { return !s.instances().rows().empty(); }},
      {"app_trace", "analysis.app_trace", [](Study& s) { return !s.app_trace().records.empty(); }},
      {"user_activity", "analysis.user_activity",
       [](Study& s) { return s.UserActivity().ten_minutes.max_active_users > 0; }},
      {"access_patterns", "analysis.patterns",
       [](Study& s) { return s.AccessPatterns().data_sessions > 0; }},
      {"run_lengths", "analysis.patterns",
       [](Study& s) { return !s.RunLengths().read_runs_by_count.empty(); }},
      {"file_sizes", "analysis.patterns",
       [](Study& s) { return !s.FileSizes().all_by_opens.empty(); }},
      {"sessions", "analysis.sessions",
       [](Study& s) { return !s.Sessions().open_time_all_ms.empty(); }},
      {"lifetimes", "analysis.lifetimes", [](Study& s) { return s.Lifetimes().new_files > 0; }},
      {"fastio", "analysis.figures",
       [](Study& s) { return !s.FastIo().fastio_read_latency_us.empty(); }},
      {"operations", "analysis.figures", [](Study& s) { return s.Operations().reads > 0; }},
      {"cache", "analysis.figures", [](Study& s) { return s.Cache().cached_read_fraction > 0; }},
      {"burstiness", "analysis.tails", [](Study& s) { return !s.Burstiness().trace_1s.empty(); }},
      {"tail_sweep", "analysis.tails",
       [](Study& s) {
         const std::vector<TailDiagnostics> tails = s.TailSweep();
         for (const TailDiagnostics& t : tails) {
           if (t.samples == 0) {
             return false;
           }
         }
         return !tails.empty();
       }},
      {"process_profiles", "analysis.profiles",
       [](Study& s) { return !s.ProcessProfiles().empty(); }},
      {"file_type_profiles", "analysis.profiles",
       [](Study& s) { return !s.FileTypeProfiles().empty(); }},
      // ChurnSummaries is left out: it needs two daily snapshots, and the
      // study is one day long, so it is empty by design.
      {"content", "analysis.snapshots", [](Study& s) { return !s.ContentSummaries().empty(); }},
  };
  return steps;
}

Outcome RunCollect(const Options& options) {
  Outcome out;
  std::vector<FleetConfig> configs;
  for (int k = 0; k < kCollectFleets; ++k) {
    configs.push_back(StudyFleet(options, k, /*threads=*/4));
  }
  // Set-up: warm-up runs of the first fleet (allocator arenas, page tables),
  // which must agree bit for bit and become its reference output.
  std::vector<double> setup;
  uint64_t reference = 0;
  for (int i = 0; i < kSetups; ++i) {
    const double start = Now();
    const FleetResult r = RunFleet(configs.front());
    const uint64_t fp = FleetFingerprint(r.trace, r.integrity);
    setup.push_back(Now() - start);
    out.Check(i == 0 || fp == reference, 1, "set-up runs of one fleet differ");
    reference = fp;
  }

  const auto samples = TimedLoop(options, kCollectFleets, kCollectPasses, [&](int i) {
    const int k = i % kCollectFleets;
    const double cpu = CpuNow();
    const double start = Now();
    FleetResult r = RunFleet(configs[static_cast<size_t>(k)]);
    const Sample s{Now() - start, CpuNow() - cpu, r.trace.records.size(), k};
    if (options.plant == "drop-record" && !r.trace.records.empty()) {
      r.trace.records.pop_back();
    }
    const SystemIntegrity t = r.integrity.Totals();
    out.attempted += t.records_emitted;
    out.Check(r.integrity.AllAccounted(), 1, "integrity report does not account for every record");
    if (out.Check(t.records_collected == r.trace.records.size(),
                  AbsDiff(t.records_collected, r.trace.records.size()),
                  "merged trace size differs from records collected")) {
      out.Check(k != 0 || FleetFingerprint(r.trace, r.integrity) == reference,
                r.trace.records.size(), "collection differs from the set-up reference");
    }
    return s;
  });
  AddEndToEnd(&out, setup, samples);
  return out;
}

Outcome RunIngest(const Options& options) {
  Outcome out;
  const std::string dir = options.work_dir + "/ingest";
  std::vector<FleetConfig> configs;
  std::vector<IngestReference> refs(kIngestFleets);
  std::vector<double> setup;
  for (int k = 0; k < kIngestFleets; ++k) {
    configs.push_back(IngestFleet(options, k, dir));
    const double start = Now();
    IngestReference& ref = refs[static_cast<size_t>(k)];
    const bool ok = BuildIngestReference(options, k, &ref);
    setup.push_back(Now() - start);
    if (!out.Check(ok && ref.accounted && ref.records > 0, 1, "ingest reference run failed")) {
      return out;
    }
    std::printf("# ingest reference %d: %llu records, child peak rss %.1f MB\n", k,
                static_cast<unsigned long long>(ref.records), ref.peak_rss_mb);
  }

  const std::vector<Sample> samples = TimedLoop(options, kIngestFleets, 1, [&](int i) {
    const int k = i % kIngestFleets;
    const FleetConfig& config = configs[static_cast<size_t>(k)];
    const IngestReference& ref = refs[static_cast<size_t>(k)];
    std::filesystem::remove_all(dir);  // A stale spool would be resumed, not simulated.
    const double cpu = CpuNow();
    const double start = Now();
    const FleetResult r = RunFleet(config);
    const Sample s{Now() - start, CpuNow() - cpu, r.records_on_disk, k};

    const std::string store_path = config.columnar_dir + "/merged.ntx";
    if (options.plant == "truncate-store") {
      TruncateHalf(store_path);
    }
    CheckIngestStore(r, store_path, ref, &out);
    std::filesystem::remove_all(dir);
    return s;
  });
  AddEndToEnd(&out, setup, samples);
  return out;
}

Outcome RunAnalyze(const Options& options) {
  Outcome out;
  std::filesystem::create_directories(options.work_dir);
  const std::string store_path = options.work_dir + "/analyze.ntx";
  const std::vector<FigureStep>& figures = StudyFigures();
  // Study memoizes every figure, so each iteration analyzes a fresh Study;
  // its set-up (fleet run + compressed store) is timed apart as setup_s.
  std::vector<double> setup;
  const std::vector<Sample> samples = TimedLoop(options, kAnalyzeFleets, 1, [&](int i) {
    const int k = i % kAnalyzeFleets;
    const double setup_start = Now();
    std::unique_ptr<Study> study = RunStudy(options, k);
    const bool stored = WriteExtentStore(study->trace(), store_path) > 0;
    setup.push_back(Now() - setup_start);
    if (options.plant == "truncate-store") {
      TruncateHalf(store_path);
    }

    const double cpu = CpuNow();
    const double start = Now();
    uint64_t empty = 0;
    for (const FigureStep& step : figures) {
      if (!step.compute(*study)) {
        ++empty;
        std::fprintf(stderr, "ntbench: figure %s came back empty\n", step.figure);
      }
    }
    const TraceScan rescan = TraceScan::Run(ColumnarTraceSet::FromFile(store_path));
    const uint64_t records = study->trace().records.size();
    const Sample s{Now() - start, CpuNow() - cpu, records, k};

    out.attempted += figures.size() + 1;
    out.Check(empty == 0, empty, "empty Study figures");
    out.Check(stored && rescan.records_scanned == records &&
                  ScanFingerprint(rescan) == ScanFingerprint(study->Scan()),
              1, "disk rescan does not cover the trace");
    study.reset();
    std::filesystem::remove(store_path);
    return s;
  });
  AddEndToEnd(&out, setup, samples);
  return out;
}

Outcome RunWhatif(const Options& options) {
  Outcome out;
  const FleetConfig config = EnvelopeFleet();
  // Set-up: record the envelope and prove its baseline replays exactly; a
  // recording outside the fidelity envelope is refused, never scored.
  std::vector<double> setup;
  TraceSet recorded;
  for (int i = 0; i < kSetups; ++i) {
    const double start = Now();
    FleetResult r = RunFleet(config);
    const FleetReplayResult replay = TraceReplayer(config).Replay(r.trace, ReplayOptions{}, 4);
    const bool exact =
        CheckFidelity(r.trace, replay.trace).exact() && replay.divergence.total() == 0;
    setup.push_back(Now() - start);
    if (!out.Check(exact, 1, "recording is outside the replay fidelity envelope")) {
      AddEndToEnd(&out, setup, {});
      return out;
    }
    out.Check(i == 0 || TraceFingerprint(r.trace) == TraceFingerprint(recorded), 1,
              "recordings of the envelope differ");
    recorded = std::move(r.trace);
  }
  if (options.plant == "drop-record" && !recorded.records.empty()) {
    recorded.records.erase(recorded.records.begin() +
                           static_cast<std::ptrdiff_t>(recorded.records.size() / 2));
  }

  PolicySweepOptions sweep_options;
  sweep_options.threads = 4;
  const size_t grid_points = DefaultPolicyGrid(PolicyConfig{}).size();
  const std::vector<Sample> samples = TimedLoop(options, kWhatifPass, 1, [&](int) {
    const double cpu = CpuNow();
    const double start = Now();
    const WhatIfReport report = PolicySweep(config).Run(recorded, sweep_options);
    Sample s{Now() - start, CpuNow() - cpu, report.baseline.records};
    for (const WhatIfRow& row : report.rows) {
      s.records += row.records;
    }
    const uint64_t points = 1 + report.rows.size();
    out.attempted += points;
    if (out.Check(report.baseline_fidelity_exact && report.baseline.divergence == 0 &&
                      report.rows.size() == grid_points,
                  points, "baseline replay is not fidelity-exact")) {
      for (const WhatIfRow& row : report.rows) {
        out.Check(row.records > 0, 1, "grid point " + row.knob + "=" + row.value + " is empty");
      }
    }
    return s;
  });
  AddEndToEnd(&out, setup, samples);
  return out;
}

}  // namespace ntrace::ntbench
