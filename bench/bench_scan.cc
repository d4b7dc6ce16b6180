// Analysis-phase scan benchmark: the perf harness for the trace scans
// (DESIGN.md §12).
//
// Builds the standard study trace once, then times the one scan each trace
// form has, computing the same TraceScan:
//
//   row      -- TraceScan::Run(TraceSet), the record-at-a-time sweep over
//               the row-major TraceSet (what every analyzer gets when the
//               fleet ran in row mode);
//   columnar -- TraceScan::Run(ColumnarTraceSet), the batch accumulator
//               over resident column extents;
//   disk     -- TraceScan::Run over a disk-backed compressed extent store,
//               decode fused into the scan pass with column projection
//               (the out-of-core rescan path; also reports the on-disk
//               compression ratio against an uncompressed rewrite).
//
// Every variant must produce a byte-identical TraceScan (ScanFingerprint);
// the headline figure is the columnar ns/record at threads=1 and its
// speedup over the row sweep, tracked in BENCH_scan.json against the
// advisory floor in PERF_FLOOR.json ("scan": 300 ns/record).
//
// Knobs (on top of the standard bench_common scale knobs):
//   NTRACE_BENCH_REPS    timed repetitions per variant, best-of (default 3)
//   NTRACE_BENCH_JSON    output path (default BENCH_scan.json)

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/trace/extent_store.h"

// Track heap allocations during the timed scans: the columnar scan is
// supposed to allocate O(columns) per chunk, not O(records), and a
// regression there shows up here long before it shows up in wall clock.
NTRACE_DEFINE_ALLOC_HOOK()

namespace ntrace {
namespace {

struct ScanSample {
  double seconds = 0;       // Best-of-reps wall time for one full scan.
  uint64_t fingerprint = 0; // ScanFingerprint of the produced TraceScan.
  uint64_t alloc_count = 0; // Heap allocations in the best-timed rep.
};

template <typename Fn>
ScanSample TimeScan(int reps, Fn&& scan) {
  ScanSample sample;
  for (int rep = 0; rep < reps; ++rep) {
    const size_t allocs_before = bench_alloc_count();
    const auto start = std::chrono::steady_clock::now();
    const TraceScan result = scan();
    const auto stop = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(stop - start).count();
    if (rep == 0 || seconds < sample.seconds) {
      sample.seconds = seconds;
      sample.alloc_count = bench_alloc_count() - allocs_before;
    }
    sample.fingerprint = ScanFingerprint(result);
  }
  return sample;
}

double NsPerRecord(double seconds, uint64_t records) {
  return records > 0 ? seconds * 1e9 / static_cast<double>(records) : 0.0;
}

}  // namespace
}  // namespace ntrace

int main() {
  using namespace ntrace;

  const StudyConfig config = StandardConfig();
  const int reps = EnvInt("NTRACE_BENCH_REPS", 3, 1, 1000);

  std::printf("ntrace scan benchmark: %d systems, %d day(s), seed %llu\n",
              config.fleet.TotalSystems(), config.fleet.days,
              static_cast<unsigned long long>(config.fleet.seed));

  const FleetResult fleet = RunFleet(config.fleet);
  const TraceSet& trace = fleet.trace;
  const uint64_t records = trace.records.size();
  std::printf("trace: %llu records, %zu names\n", static_cast<unsigned long long>(records),
              trace.names.size());
  if (records == 0) {
    std::fprintf(stderr, "empty trace; nothing to scan\n");
    return 1;
  }

  const ColumnarTraceSet columnar = ColumnarTraceSet::FromRows(trace);

  // Disk leg: write the trace as a compressed store (and an uncompressed
  // twin for the ratio), then stream-scan the compressed file.
  const std::string store_dir = [&]() -> std::string {
    const char* tmp = std::getenv("TMPDIR");
    return (tmp != nullptr && *tmp != '\0' ? std::string(tmp) : std::string("/tmp")) +
           "/ntrace_bench_scan_" + std::to_string(getpid());
  }();
  const std::string cpath = store_dir + ".c.ntx";
  const std::string rpath = store_dir + ".r.ntx";
  uint64_t compressed_bytes = 0;
  uint64_t raw_bytes = 0;
  auto write_store = [&](const std::string& path, bool compress) -> uint64_t {
    ExtentStoreWriter writer;
    if (!writer.Open(path, kDefaultExtentRecords, 0, compress) ||
        !writer.AppendRecords(trace.records.data(), trace.records.size())) {
      return 0;
    }
    for (const NameRecord& n : trace.names) {
      writer.AddName(n);
    }
    for (const auto& [pid, name] : trace.process_names) {
      writer.AddProcessName(pid, name);
    }
    if (!writer.Seal()) {
      return 0;
    }
    writer.Close();
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return 0;
    }
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    return size > 0 ? static_cast<uint64_t>(size) : 0;
  };
  compressed_bytes = write_store(cpath, true);
  raw_bytes = write_store(rpath, false);
  std::remove(rpath.c_str());  // Only its size matters.
  const double compression_ratio =
      compressed_bytes > 0 ? static_cast<double>(raw_bytes) / static_cast<double>(compressed_bytes)
                           : 0.0;

  const ScanSample row = TimeScan(reps, [&] { return TraceScan::Run(trace); });
  const ScanSample col = TimeScan(reps, [&] { return TraceScan::Run(columnar); });
  // FromFile (header + tail tables + counting prescan) is one-time setup:
  // ForEachBatch re-opens and re-streams the extent frames on every scan,
  // so each timed rep below pays the full decode-from-disk cost.
  const ColumnarTraceSet from_disk = ColumnarTraceSet::FromFile(cpath);
  const ScanSample disk = TimeScan(reps, [&] { return TraceScan::Run(from_disk); });
  std::remove(cpath.c_str());

  const bool all_identical = col.fingerprint == row.fingerprint &&
                             disk.fingerprint == row.fingerprint;
  const double speedup_vs_row = col.seconds > 0 ? row.seconds / col.seconds : 0.0;
  const uint64_t peak_rss = PeakRssBytes();

  std::printf("%10s %10s %12s %14s %12s %10s\n", "variant", "wall s", "ns/record", "records/s",
              "allocs", "identical");
  const struct {
    const char* name;
    const ScanSample* s;
  } rows[] = {{"row", &row}, {"columnar", &col}, {"disk", &disk}};
  for (const auto& v : rows) {
    std::printf("%10s %10.4f %12.1f %14.0f %12llu %10s\n", v.name, v.s->seconds,
                NsPerRecord(v.s->seconds, records),
                v.s->seconds > 0 ? static_cast<double>(records) / v.s->seconds : 0.0,
                static_cast<unsigned long long>(v.s->alloc_count),
                v.s->fingerprint == row.fingerprint ? "yes" : "NO");
  }
  std::printf("columnar speedup vs row sweep: %.2fx (budget <= 300 ns/record)\n",
              speedup_vs_row);
  std::printf("compressed store: %.1f MB (%.2fx vs %.1f MB raw), disk scan %.1f ns/record\n",
              static_cast<double>(compressed_bytes) / (1024.0 * 1024.0), compression_ratio,
              static_cast<double>(raw_bytes) / (1024.0 * 1024.0),
              NsPerRecord(disk.seconds, records));
  std::printf("peak rss: %.1f MB\n", static_cast<double>(peak_rss) / (1024.0 * 1024.0));

  const char* json_path = std::getenv("NTRACE_BENCH_JSON");
  if (json_path == nullptr || *json_path == '\0') {
    json_path = "BENCH_scan.json";
  }
  std::FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"scan\",\n");
  std::fprintf(f, "  \"systems\": %d,\n", config.fleet.TotalSystems());
  std::fprintf(f, "  \"days\": %d,\n", config.fleet.days);
  std::fprintf(f, "  \"seed\": %llu,\n", static_cast<unsigned long long>(config.fleet.seed));
  std::fprintf(f, "  \"records\": %llu,\n", static_cast<unsigned long long>(records));
  std::fprintf(f, "  \"all_identical\": %s,\n", all_identical ? "true" : "false");
  std::fprintf(f, "  \"row_ns_per_record\": %.1f,\n", NsPerRecord(row.seconds, records));
  std::fprintf(f, "  \"columnar_ns_per_record\": %.1f,\n", NsPerRecord(col.seconds, records));
  std::fprintf(f, "  \"speedup_vs_row\": %.3f,\n", speedup_vs_row);
  std::fprintf(f, "  \"disk_ns_per_record\": %.1f,\n", NsPerRecord(disk.seconds, records));
  std::fprintf(f, "  \"disk_records_per_sec\": %.0f,\n",
               disk.seconds > 0 ? static_cast<double>(records) / disk.seconds : 0.0);
  std::fprintf(f, "  \"compressed_bytes_on_disk\": %llu,\n",
               static_cast<unsigned long long>(compressed_bytes));
  std::fprintf(f, "  \"raw_bytes_on_disk\": %llu,\n", static_cast<unsigned long long>(raw_bytes));
  std::fprintf(f, "  \"compression_ratio\": %.3f,\n", compression_ratio);
  std::fprintf(f, "  \"peak_rss_bytes\": %llu,\n", static_cast<unsigned long long>(peak_rss));
  std::fprintf(f, "  \"runs\": [\n");
  std::fprintf(f,
               "    {\"threads\": 1, \"seconds\": %.4f, \"records_per_sec\": %.0f, "
               "\"ns_per_record\": %.1f, \"alloc_count\": %llu, "
               "\"speedup\": %.3f, \"identical\": %s}\n",
               col.seconds, col.seconds > 0 ? static_cast<double>(records) / col.seconds : 0.0,
               NsPerRecord(col.seconds, records),
               static_cast<unsigned long long>(col.alloc_count), speedup_vs_row,
               all_identical ? "true" : "false");
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path);

  return all_identical ? 0 : 1;
}
