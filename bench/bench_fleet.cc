// Wall-clock fleet benchmark: the perf harness for the parallel fleet.
//
// Runs the standard study fleet at a sweep of worker-thread counts,
// reports records/sec and speedup vs the sequential (1-thread) run, and
// checks that every parallel run's output -- trace records, name records,
// process map and integrity report -- is identical to the sequential
// baseline. Results are written to BENCH_fleet.json so the perf
// trajectory is tracked in-repo from run to run.
//
// The sequential baseline is also run once with the metrics layer switched
// off (SetMetricsEnabled) to measure the observability overhead itself;
// BENCH_fleet.json carries the headline metrics of the baseline run and
// "metrics_overhead_pct" (budget: < 3% of records/sec, DESIGN.md §8).
// The same protocol measures the durability layer -- trace spool +
// checkpoint manifest on vs off -- as "recovery_overhead_pct" (budget:
// < 5%, DESIGN.md §10).
//
// Knobs (on top of the standard bench_common scale knobs):
//   NTRACE_BENCH_THREADS  comma-separated thread counts (default "1,2,4"
//                         plus hardware concurrency)
//   NTRACE_BENCH_PAIRS    on/off pairs for the recovery-overhead comparison
//                         (default 3; raise on noisy machines)
//   NTRACE_BENCH_JSON     output path (default BENCH_fleet.json)
//   NTRACE_METRICS_JSON   also dump the baseline run's metrics snapshot as JSON
//   NTRACE_METRICS_PROM   same, Prometheus text exposition format

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/metrics/metrics.h"
#include "src/net/collection_service.h"
#include "src/net/net_client.h"
#include "src/trace/extent_store.h"

// Count every heap allocation in this binary: the per-run delta lands in
// BENCH_fleet.json ("alloc_count") so hot-path allocation regressions show
// up in the tracked trajectory, not just as wall-clock noise.
NTRACE_DEFINE_ALLOC_HOOK()

namespace ntrace {
namespace {

// FNV-1a over every observable output of a fleet run.
class Fingerprint {
 public:
  void Mix(const void* data, size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void MixValue(const T& value) {
    Mix(&value, sizeof(value));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t FleetFingerprint(const FleetResult& result) {
  Fingerprint fp;
  const TraceSet& trace = result.trace;
  if (!trace.records.empty()) {
    // TraceRecord is POD with no implicit padding (see trace_record.h).
    fp.Mix(trace.records.data(), trace.records.size() * sizeof(TraceRecord));
  }
  for (const NameRecord& n : trace.names) {
    fp.MixValue(n.file_object);
    fp.MixValue(n.system_id);
    fp.Mix(n.path.data(), n.path.size());
  }
  // Iteration order of the process map depends on insertion order, which
  // the deterministic merge reproduces -- so it is part of the contract.
  for (const auto& [pid, name] : trace.process_names) {
    fp.MixValue(pid);
    fp.Mix(name.data(), name.size());
  }
  for (const SystemIntegrity& s : result.integrity.systems) {
    // Field by field: the struct has alignment padding whose bytes are
    // unspecified.
    fp.MixValue(s.system_id);
    fp.MixValue(s.records_emitted);
    fp.MixValue(s.records_overflow_dropped);
    fp.MixValue(s.records_shed);
    fp.MixValue(s.records_lost);
    fp.MixValue(s.records_unresolved);
    fp.MixValue(s.shipments_sent);
    fp.MixValue(s.shipment_attempts);
    fp.MixValue(s.shipment_failures);
    fp.MixValue(s.shipments_abandoned);
    fp.MixValue(s.peak_retry_backlog);
    fp.MixValue(s.shipments_received);
    fp.MixValue(s.duplicate_shipments);
    fp.MixValue(s.out_of_order_shipments);
    fp.MixValue(s.sequence_gaps);
    fp.MixValue(s.records_collected);
    fp.MixValue(s.duplicate_records_discarded);
    fp.MixValue(s.records_salvaged);
    fp.MixValue(s.records_lost_to_corruption);
  }
  return fp.value();
}

std::vector<int> ThreadSweep() {
  std::vector<int> sweep = EnvIntList("NTRACE_BENCH_THREADS", {});
  if (sweep.empty()) {
    sweep = {1, 2, 4};
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw > 0) {
      sweep.push_back(hw);
    }
  }
  std::sort(sweep.begin(), sweep.end());
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
  if (sweep.empty() || sweep.front() != 1) {
    sweep.insert(sweep.begin(), 1);  // The sequential baseline is mandatory.
  }
  return sweep;
}

struct RunSample {
  int threads = 1;
  double seconds = 0;
  // Process CPU time (user + system, all threads) across the same run.
  // The overhead comparisons use this, not wall time: on a shared 1-CPU
  // box, steal time and unrelated processes swing wall clock by more than
  // the ~0.1 s effect being measured, while CPU time still charges every
  // cycle the layer itself spends (checksums, memcpy, write syscalls).
  double cpu_seconds = 0;
  uint64_t records = 0;
  uint64_t fingerprint = 0;
  uint64_t alloc_count = 0;  // Heap allocations during RunFleet (hook delta).
  MetricsSnapshot metrics;   // This run's delta (FleetResult::metrics).

  double NsPerRecord() const {
    return records > 0 ? seconds * 1e9 / static_cast<double>(records) : 0.0;
  }
};

RunSample TimeOneRun(const FleetConfig& base, int threads) {
  FleetConfig config = base;
  config.threads = threads;
  if (config.durability.enabled()) {
    // Every timed run must actually simulate: a run resuming from a prior
    // leg's sealed segments skips the simulation entirely and would read
    // as an absurd speedup instead of the spool's real cost.
    std::filesystem::remove_all(config.durability.spool_dir);
  }
  const size_t allocs_before = bench_alloc_count();
  timespec cpu_start{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu_start);
  const auto start = std::chrono::steady_clock::now();
  const FleetResult result = RunFleet(config);
  const auto stop = std::chrono::steady_clock::now();
  timespec cpu_stop{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu_stop);
  if (config.durability.enabled()) {
    // Drop the scratch spool right away, outside the timed region: deleting
    // the files cancels writeback of their still-dirty pages, so a durable
    // leg's ~180 MB does not steal the (single) CPU from the runs timed
    // after it. Without this the paired comparison measures cross-run
    // writeback interference, not the spool's synchronous cost.
    std::filesystem::remove_all(config.durability.spool_dir);
  }
  RunSample sample;
  sample.threads = threads;
  sample.seconds = std::chrono::duration<double>(stop - start).count();
  sample.cpu_seconds = static_cast<double>(cpu_stop.tv_sec - cpu_start.tv_sec) +
                       static_cast<double>(cpu_stop.tv_nsec - cpu_start.tv_nsec) * 1e-9;
  sample.records = result.trace.records.size();
  sample.alloc_count = bench_alloc_count() - allocs_before;
  sample.fingerprint = FleetFingerprint(result);
  sample.metrics = result.metrics;
  return sample;
}

double Ratio(uint64_t num, uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

// Loopback ingest throughput of the networked collection tier (DESIGN.md
// §11), isolated from the simulation: one agent streams pre-built
// shipments through a real TCP socket into a 2-shard CollectionService and
// the rate is records acknowledged per wall-clock second. Budget: >= 1e6
// records/sec (PERF_FLOOR.json, "net_ingest_records_per_sec").
double MeasureNetIngestRate() {
  constexpr uint64_t kShipments = 1024;
  constexpr uint64_t kRecordsPerShipment = 1024;

  CollectionService::Options options;
  options.config.enabled = true;
  options.config.shards = 2;
  options.config_fingerprint = 0x4E455442;  // "NETB"
  CollectionService service(std::move(options));
  if (!service.Start()) {
    std::fprintf(stderr, "net ingest bench: cannot bind loopback; skipping\n");
    return 0.0;
  }

  NetCollectionConfig agent_config;
  agent_config.enabled = true;
  NetAgentClient client(agent_config, service.port(), 1, 0x4E455442);
  NetSink sink(&client);

  std::vector<TraceRecord> shipment(kRecordsPerShipment);
  for (uint64_t i = 0; i < kRecordsPerShipment; ++i) {
    TraceRecord& r = shipment[i];
    r.file_object = 0x1000 + i;
    r.start_ticks = static_cast<int64_t>(i * 20);
    r.complete_ticks = static_cast<int64_t>(i * 20 + 7);
    r.length = 4096;
    r.returned = 4096;
    r.event = static_cast<uint16_t>(TraceEvent::kIrpRead);
    r.system_id = 1;
  }

  const auto start = std::chrono::steady_clock::now();
  for (uint64_t s = 1; s <= kShipments; ++s) {
    ShipmentHeader header;
    header.system_id = 1;
    header.sequence = s;
    header.record_count = kRecordsPerShipment;
    sink.DeliverShipment(header, shipment);
  }
  uint64_t collected = 0;
  const bool finished = client.FinishStream(&collected);
  const auto stop = std::chrono::steady_clock::now();
  service.Stop();

  const uint64_t total = kShipments * kRecordsPerShipment;
  if (!finished || collected != total) {
    std::fprintf(stderr, "net ingest bench: stream failed (%llu/%llu records)\n",
                 static_cast<unsigned long long>(collected),
                 static_cast<unsigned long long>(total));
    return 0.0;
  }
  const double seconds = std::chrono::duration<double>(stop - start).count();
  return seconds > 0 ? static_cast<double>(total) / seconds : 0.0;
}

bool WriteTextFile(const char* path, const std::string& text) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return true;
}

}  // namespace
}  // namespace ntrace

int main() {
  using namespace ntrace;

  const StudyConfig config = StandardConfig();
  const std::vector<int> sweep = ThreadSweep();
  const int hw = static_cast<int>(std::thread::hardware_concurrency());

  std::printf("ntrace fleet benchmark: %d systems, %d day(s), seed %llu, %d hardware thread(s)\n",
              config.fleet.TotalSystems(), config.fleet.days,
              static_cast<unsigned long long>(config.fleet.seed), hw);
  std::printf("%8s %10s %14s %12s %12s %9s %10s\n", "threads", "wall s", "records/s",
              "ns/record", "allocs", "speedup", "identical");

  std::vector<RunSample> samples;
  double baseline_seconds = 0;
  uint64_t baseline_fingerprint = 0;
  bool all_identical = true;
  for (int threads : sweep) {
    const RunSample s = TimeOneRun(config.fleet, threads);
    if (threads == 1) {
      baseline_seconds = s.seconds;
      baseline_fingerprint = s.fingerprint;
    }
    const bool identical = s.fingerprint == baseline_fingerprint;
    all_identical = all_identical && identical;
    std::printf("%8d %10.3f %14.0f %12.1f %12llu %9.2f %10s\n", threads, s.seconds,
                s.seconds > 0 ? static_cast<double>(s.records) / s.seconds : 0.0, s.NsPerRecord(),
                static_cast<unsigned long long>(s.alloc_count),
                s.seconds > 0 ? baseline_seconds / s.seconds : 0.0, identical ? "yes" : "NO");
    samples.push_back(s);
  }
  const RunSample& baseline = samples.front();

  // Measure the observability layer itself: the same sequential run with
  // every metric mutation short-circuited. The sweep's baseline was the
  // cold first run of the process, so time fresh warm runs instead of
  // comparing against it; alternate on/off order across three pairs and
  // take the per-side minimum of process CPU time (see RunSample) so
  // neither monotonic machine drift nor other tenants of the box read as
  // overhead. Output must stay identical either way -- the layer may not
  // perturb the simulation.
  double on_seconds = 0;
  double off_seconds = 0;
  for (int pair = 0; pair < 3; ++pair) {
    for (int leg = 0; leg < 2; ++leg) {
      const bool enabled = (leg == 0) == (pair % 2 == 0);
      SetMetricsEnabled(enabled);
      const RunSample s = TimeOneRun(config.fleet, 1);
      all_identical = all_identical && s.fingerprint == baseline_fingerprint;
      double& best = enabled ? on_seconds : off_seconds;
      best = best == 0 ? s.cpu_seconds : std::min(best, s.cpu_seconds);
    }
  }
  SetMetricsEnabled(true);
  const double metrics_overhead_pct =
      off_seconds > 0 ? (on_seconds - off_seconds) / off_seconds * 100.0 : 0.0;
  std::printf("metrics overhead: %.2f%% (cpu on: %.3fs, off: %.3fs, budget < 3%%)\n",
              metrics_overhead_pct, on_seconds, off_seconds);

  // Same protocol for the durability layer (DESIGN.md §10): trace spool +
  // checkpoint manifest on vs off, alternating order, per-side minimum.
  // TimeOneRun clears the spool directory around each durable leg, so every
  // leg pays the full spool-write + seal + manifest cost and no leg inherits
  // the previous leg's page-cache writeback. Output must again
  // be identical: a durable run that simulates from scratch reports zero
  // salvage and the same trace bytes.
  const std::string spool_scratch = !config.fleet.durability.spool_dir.empty()
                                        ? config.fleet.durability.spool_dir
                                        : std::string("bench_fleet_spool.scratch");
  double durable_seconds = 0;
  double plain_seconds = 0;
  // NTRACE_BENCH_PAIRS widens the sample when the box is noisy: the
  // per-side minimum only converges once some leg of each side lands in a
  // quiet window.
  const int pairs = EnvInt("NTRACE_BENCH_PAIRS", 3, 1, 1000);
  for (int pair = 0; pair < pairs; ++pair) {
    for (int leg = 0; leg < 2; ++leg) {
      const bool durable = (leg == 0) == (pair % 2 == 0);
      FleetConfig fleet = config.fleet;
      fleet.durability = DurabilityConfig{};
      if (durable) {
        fleet.durability.spool_dir = spool_scratch;
      }
      const RunSample s = TimeOneRun(fleet, 1);
      all_identical = all_identical && s.fingerprint == baseline_fingerprint;
      double& best = durable ? durable_seconds : plain_seconds;
      best = best == 0 ? s.cpu_seconds : std::min(best, s.cpu_seconds);
    }
  }
  std::filesystem::remove_all(spool_scratch);
  const double recovery_overhead_pct =
      plain_seconds > 0 ? (durable_seconds - plain_seconds) / plain_seconds * 100.0 : 0.0;
  std::printf("recovery overhead: %.2f%% (cpu durable: %.3fs, plain: %.3fs, budget < 5%%)\n",
              recovery_overhead_pct, durable_seconds, plain_seconds);

  // Loopback ingest rate of the networked tier (records/sec through a real
  // TCP socket; best of three so a noisy neighbor on the box cannot fail
  // the floor).
  double net_ingest_rate = 0;
  for (int i = 0; i < 3; ++i) {
    net_ingest_rate = std::max(net_ingest_rate, MeasureNetIngestRate());
  }
  std::printf("net ingest: %.2fM records/s over loopback (budget >= 1.0M)\n",
              net_ingest_rate / 1e6);

  // Out-of-core columnar leg (DESIGN.md §12): the same sequential fleet with
  // spill-at-completion columnar collection enabled. Workers write each
  // finished system's records to a column-extent segment and the merge is a
  // streaming k-way pass over those segments into one merged extent file, so
  // peak memory stops scaling with total record count. The leg's contract:
  // every record lands on disk (records_on_disk equals the in-memory run's
  // record count) and the batch scan over the merged extent stream is
  // byte-identical to the row sweep over the in-memory merge.
  uint64_t records_on_disk = 0;
  bool columnar_identical = false;
  double columnar_seconds = 0;
  uint64_t compressed_bytes_on_disk = 0;
  double compression_ratio = 0;
  {
    FleetConfig plain = config.fleet;
    plain.threads = 1;
    const FleetResult row_result = RunFleet(plain);
    FleetConfig columnar = plain;
    columnar.columnar_dir = "bench_fleet_columnar.scratch";
    std::filesystem::remove_all(columnar.columnar_dir);
    const auto start = std::chrono::steady_clock::now();
    const FleetResult col_result = RunFleet(columnar);
    columnar_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                           .count();
    records_on_disk = col_result.records_on_disk;
    const uint64_t row_scan = ScanFingerprint(TraceScan::Run(row_result.trace));
    const uint64_t col_scan = ScanFingerprint(TraceScan::Run(col_result.columnar));
    columnar_identical = col_result.columnar_mode && col_scan == row_scan &&
                         records_on_disk == row_result.trace.records.size();
    // On-disk footprint of the merged compressed store vs an uncompressed
    // rewrite of the same records (only the rewrite's size matters; it is
    // deleted immediately and runs outside the timed region).
    std::error_code ec;
    compressed_bytes_on_disk =
        std::filesystem::file_size(columnar.columnar_dir + "/merged.ntx", ec);
    if (ec) {
      compressed_bytes_on_disk = 0;
    }
    const std::string raw_rewrite = columnar.columnar_dir + "/raw_rewrite.ntx";
    {
      ExtentStoreWriter writer;
      if (writer.Open(raw_rewrite, kDefaultExtentRecords, 0, /*compress=*/false) &&
          writer.AppendRecords(row_result.trace.records.data(),
                               row_result.trace.records.size())) {
        for (const NameRecord& n : row_result.trace.names) {
          writer.AddName(n);
        }
        for (const auto& [pid, name] : row_result.trace.process_names) {
          writer.AddProcessName(pid, name);
        }
        if (writer.Seal()) {
          writer.Close();
          const uint64_t raw_bytes = std::filesystem::file_size(raw_rewrite, ec);
          if (!ec && compressed_bytes_on_disk > 0) {
            compression_ratio = static_cast<double>(raw_bytes) /
                                static_cast<double>(compressed_bytes_on_disk);
          }
        }
      }
    }
    std::filesystem::remove_all(columnar.columnar_dir);
    all_identical = all_identical && columnar_identical;
    std::printf(
        "columnar out-of-core: %llu records on disk in %.3fs (%.1f MB, %.2fx compression), "
        "scan %s row oracle\n",
        static_cast<unsigned long long>(records_on_disk), columnar_seconds,
        static_cast<double>(compressed_bytes_on_disk) / (1024.0 * 1024.0), compression_ratio,
        columnar_identical ? "identical to" : "DIVERGED from");
  }
  const uint64_t peak_rss = PeakRssBytes();
  std::printf("peak rss: %.1f MB\n", static_cast<double>(peak_rss) / (1024.0 * 1024.0));

  // Headline live-counter figures of the baseline run, straight from the
  // registry delta (the analysis-layer agreement is asserted in
  // tests/metrics_test.cc; here they feed the perf trajectory).
  const MetricsSnapshot& m = baseline.metrics;
  const uint64_t fastio_reads = m.CounterValue("ntrace_ntio_fastio_read_accepted_total");
  const uint64_t irp_reads = m.CounterValue("ntrace_ntio_app_read_irp_total");
  const uint64_t fastio_writes = m.CounterValue("ntrace_ntio_fastio_write_accepted_total");
  const uint64_t irp_writes = m.CounterValue("ntrace_ntio_app_write_irp_total");
  const double fastio_read_share = Ratio(fastio_reads, fastio_reads + irp_reads);
  const double fastio_write_share = Ratio(fastio_writes, fastio_writes + irp_writes);
  const double cache_hit_fraction = Ratio(m.CounterValue("ntrace_mm_copy_read_hit_total"),
                                          m.CounterValue("ntrace_mm_copy_read_total"));

  const char* json_path = std::getenv("NTRACE_BENCH_JSON");
  if (json_path == nullptr || *json_path == '\0') {
    json_path = "BENCH_fleet.json";
  }
  std::FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"fleet\",\n");
  std::fprintf(f, "  \"systems\": %d,\n", config.fleet.TotalSystems());
  std::fprintf(f, "  \"days\": %d,\n", config.fleet.days);
  std::fprintf(f, "  \"seed\": %llu,\n", static_cast<unsigned long long>(config.fleet.seed));
  std::fprintf(f, "  \"activity_scale\": %g,\n", config.fleet.activity_scale);
  std::fprintf(f, "  \"content_scale\": %g,\n", config.fleet.content_scale);
  std::fprintf(f, "  \"hardware_concurrency\": %d,\n", hw);
  std::fprintf(f, "  \"records\": %llu,\n",
               static_cast<unsigned long long>(samples.front().records));
  std::fprintf(f, "  \"all_identical\": %s,\n", all_identical ? "true" : "false");
  std::fprintf(f, "  \"metrics_overhead_pct\": %.3f,\n", metrics_overhead_pct);
  std::fprintf(f, "  \"recovery_overhead_pct\": %.3f,\n", recovery_overhead_pct);
  std::fprintf(f, "  \"net_ingest_records_per_sec\": %.0f,\n", net_ingest_rate);
  std::fprintf(f, "  \"records_on_disk\": %llu,\n",
               static_cast<unsigned long long>(records_on_disk));
  std::fprintf(f, "  \"columnar_seconds\": %.4f,\n", columnar_seconds);
  std::fprintf(f, "  \"compressed_bytes_on_disk\": %llu,\n",
               static_cast<unsigned long long>(compressed_bytes_on_disk));
  std::fprintf(f, "  \"compression_ratio\": %.3f,\n", compression_ratio);
  std::fprintf(f, "  \"peak_rss_bytes\": %llu,\n", static_cast<unsigned long long>(peak_rss));
  std::fprintf(f, "  \"metrics\": {\n");
  std::fprintf(f, "    \"records_emitted\": %llu,\n",
               static_cast<unsigned long long>(
                   m.CounterValue("ntrace_trace_records_emitted_total")));
  std::fprintf(f, "    \"records_collected\": %llu,\n",
               static_cast<unsigned long long>(
                   m.CounterValue("ntrace_server_records_collected_total")));
  std::fprintf(f, "    \"irp_dispatches\": %llu,\n",
               static_cast<unsigned long long>(m.CounterValue("ntrace_ntio_irp_dispatch_total")));
  std::fprintf(f, "    \"fastio_read_share\": %.6f,\n", fastio_read_share);
  std::fprintf(f, "    \"fastio_write_share\": %.6f,\n", fastio_write_share);
  std::fprintf(f, "    \"cache_hit_fraction\": %.6f,\n", cache_hit_fraction);
  std::fprintf(f, "    \"lazy_write_irps\": %llu,\n",
               static_cast<unsigned long long>(m.CounterValue("ntrace_mm_lazy_write_irp_total")));
  std::fprintf(f, "    \"merge_wall_us\": %lld\n",
               static_cast<long long>(m.GaugeValue("ntrace_fleet_last_merge_wall_us")));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const RunSample& s = samples[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"seconds\": %.4f, \"records_per_sec\": %.0f, "
                 "\"ns_per_record\": %.1f, \"alloc_count\": %llu, "
                 "\"speedup\": %.3f, \"identical\": %s}%s\n",
                 s.threads, s.seconds,
                 s.seconds > 0 ? static_cast<double>(s.records) / s.seconds : 0.0,
                 s.NsPerRecord(), static_cast<unsigned long long>(s.alloc_count),
                 s.seconds > 0 ? baseline_seconds / s.seconds : 0.0,
                 s.fingerprint == baseline_fingerprint ? "true" : "false",
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path);

  // Optional full-snapshot exports of the baseline run's registry delta.
  const char* metrics_json = std::getenv("NTRACE_METRICS_JSON");
  if (metrics_json != nullptr && *metrics_json != '\0') {
    WriteTextFile(metrics_json, baseline.metrics.ToJson());
  }
  const char* metrics_prom = std::getenv("NTRACE_METRICS_PROM");
  if (metrics_prom != nullptr && *metrics_prom != '\0') {
    WriteTextFile(metrics_prom, baseline.metrics.ToPrometheusText());
  }

  return all_identical ? 0 : 1;
}
