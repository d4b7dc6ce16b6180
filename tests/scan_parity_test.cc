// Row/columnar scan parity (DESIGN.md §12): the columnar scan
// (TraceScan::Run over a ColumnarTraceSet, the batch accumulator) must
// reproduce the row sweep (TraceScan::Run over a TraceSet) field for field
// and sample for sample -- the two are separate code, each the other's
// oracle --
//  - over seeded fleet traces, clean and fault-injected;
//  - over the fleet's out-of-core columnar mode at threads {1, 2, 8};
//  - over compressed and uncompressed stores scanned from disk;
//  - over adversarial random records (wild pids / system ids beyond the
//    dense-table caps, unknown event codes, out-of-order timestamps).
// tests/CMakeLists.txt additionally re-runs this whole binary with
// NTRACE_NO_SIMD=1, which puts every store it writes and reads through the
// portable CRC-32C codec.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/analysis/trace_scan.h"
#include "src/base/rng.h"
#include "src/trace/extent_store.h"
#include "src/workload/fleet.h"
#include "tests/test_util.h"

namespace ntrace {
namespace {

void ExpectCdfEqual(const WeightedCdf& a, const WeightedCdf& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(a.total_weight(), b.total_weight()) << what;
  // Finalized CDFs sort by value; weights are value-determined in every
  // scan CDF, so equal multisets mean byte-identical sample vectors.
  EXPECT_TRUE(a.samples() == b.samples()) << what << ": sample vectors differ";
}

// Field-for-field equality of two scans. Every counter must match exactly
// and every distribution must hold identical (value, weight) samples.
void ExpectScanEqual(const TraceScan& a, const TraceScan& b) {
#define NTRACE_EXPECT_FIELD(f) EXPECT_EQ(a.f, b.f) << #f
  NTRACE_EXPECT_FIELD(reads);
  NTRACE_EXPECT_FIELD(writes);
  NTRACE_EXPECT_FIELD(reads_512_or_4096);
  NTRACE_EXPECT_FIELD(reads_small);
  NTRACE_EXPECT_FIELD(reads_48k_plus);
  NTRACE_EXPECT_FIELD(read_failures);
  NTRACE_EXPECT_FIELD(write_failures);
  NTRACE_EXPECT_FIELD(opens);
  NTRACE_EXPECT_FIELD(open_failures);
  NTRACE_EXPECT_FIELD(open_notfound);
  NTRACE_EXPECT_FIELD(open_collision);
  NTRACE_EXPECT_FIELD(directory_ops);
  NTRACE_EXPECT_FIELD(control_ops);
  NTRACE_EXPECT_FIELD(control_total);
  NTRACE_EXPECT_FIELD(control_failures);
  NTRACE_EXPECT_FIELD(volume_mounted_checks);
  NTRACE_EXPECT_FIELD(seteof_ops);
  NTRACE_EXPECT_FIELD(attributed);
  NTRACE_EXPECT_FIELD(non_interactive);
  NTRACE_EXPECT_FIELD(active_seconds);
  NTRACE_EXPECT_FIELD(fastio_reads);
  NTRACE_EXPECT_FIELD(irp_reads);
  NTRACE_EXPECT_FIELD(fastio_writes);
  NTRACE_EXPECT_FIELD(irp_writes);
  NTRACE_EXPECT_FIELD(read_fallbacks);
  NTRACE_EXPECT_FIELD(write_fallbacks);
  NTRACE_EXPECT_FIELD(paging_reads);
  NTRACE_EXPECT_FIELD(paging_read_bytes);
  NTRACE_EXPECT_FIELD(paging_writes);
  NTRACE_EXPECT_FIELD(paging_write_bytes);
  NTRACE_EXPECT_FIELD(readahead_records);
  NTRACE_EXPECT_FIELD(readahead_bytes);
  NTRACE_EXPECT_FIELD(lazywrite_records);
  NTRACE_EXPECT_FIELD(lazywrite_bytes);
#undef NTRACE_EXPECT_FIELD
#define NTRACE_EXPECT_CDF(f) ExpectCdfEqual(a.f, b.f, #f)
  NTRACE_EXPECT_CDF(read_sizes);
  NTRACE_EXPECT_CDF(write_sizes);
  NTRACE_EXPECT_CDF(fastio_read_latency_us);
  NTRACE_EXPECT_CDF(fastio_write_latency_us);
  NTRACE_EXPECT_CDF(irp_read_latency_us);
  NTRACE_EXPECT_CDF(irp_write_latency_us);
  NTRACE_EXPECT_CDF(fastio_read_size);
  NTRACE_EXPECT_CDF(fastio_write_size);
  NTRACE_EXPECT_CDF(irp_read_size);
  NTRACE_EXPECT_CDF(irp_write_size);
  NTRACE_EXPECT_CDF(read_runs_by_count);
  NTRACE_EXPECT_CDF(read_runs_by_bytes);
  NTRACE_EXPECT_CDF(write_runs_by_count);
  NTRACE_EXPECT_CDF(write_runs_by_bytes);
#undef NTRACE_EXPECT_CDF
  ASSERT_EQ(a.flushed_files.size(), b.flushed_files.size());
  for (const auto& [file_object, tag] : a.flushed_files) {
    (void)tag;
    EXPECT_TRUE(b.FileWasFlushed(file_object)) << "file_object=" << file_object;
  }
}

FleetConfig SmallConfig(uint64_t seed) {
  FleetConfig config;
  config.walk_up = 1;
  config.pool = 1;
  config.personal = 1;
  config.administrative = 1;
  config.scientific = 1;
  config.days = 1;
  config.seed = seed;
  config.activity_scale = 0.3;
  config.content_scale = 0.05;
  return config;
}

FleetConfig FaultyConfig(uint64_t seed) {
  FleetConfig config = SmallConfig(seed);
  config.fault_config.shipment.probability = 0.10;
  config.fault_config.shipment.ack_loss_fraction = 0.25;
  config.fault_config.disk_read.probability = 0.02;
  config.fault_config.disk_write.probability = 0.02;
  return config;
}

TEST(ScanParity, BatchEqualsRowsOnSeededFleets) {
  for (const uint64_t seed : {7u, 1999u}) {
    const FleetResult result = RunFleet(SmallConfig(seed));
    ASSERT_GT(result.trace.records.size(), 1000u) << "seed=" << seed;
    const TraceScan oracle = TraceScan::Run(result.trace);
    const std::string path = ScratchPath("scan_parity_seeded.ntx");
    ExpectScanEqual(TraceScan::Run(WriteColumnarStore(result.trace, path)), oracle);
    // Small extents (many batch seams).
    ExpectScanEqual(TraceScan::Run(WriteColumnarStore(result.trace, path, 1024)), oracle);
    std::remove(path.c_str());
  }
}

TEST(ScanParity, BatchEqualsRowsOnFaultInjectedFleet) {
  const FleetResult result = RunFleet(FaultyConfig(7));
  ASSERT_GT(result.trace.records.size(), 100u);
  const TraceScan oracle = TraceScan::Run(result.trace);
  const std::string path = ScratchPath("scan_parity_faulted.ntx");
  ExpectScanEqual(TraceScan::Run(WriteColumnarStore(result.trace, path)), oracle);
  std::remove(path.c_str());
}

// The out-of-core fleet mode: per-system extent spill + frame-copying merge,
// scanned straight off disk, must match the row-mode run bit for bit at
// every thread count (clean and fault-injected).
TEST(ScanParity, ColumnarFleetModeMatchesRowModeAcrossThreads) {
  for (const bool faulty : {false, true}) {
    FleetConfig row_config = faulty ? FaultyConfig(7) : SmallConfig(7);
    const FleetResult row_result = RunFleet(row_config);
    const TraceScan oracle = TraceScan::Run(row_result.trace);

    for (const int threads : {1, 2, 8}) {
      FleetConfig config = faulty ? FaultyConfig(7) : SmallConfig(7);
      config.threads = threads;
      const std::string dir = ScratchPath("scan_parity_columnar_") +
                              (faulty ? "f" : "c") + std::to_string(threads);
      std::filesystem::remove_all(dir);
      config.columnar_dir = dir;

      const FleetResult result = RunFleet(config);
      ASSERT_TRUE(result.columnar_mode) << "threads=" << threads;
      EXPECT_TRUE(result.trace.records.empty()) << "threads=" << threads;
      EXPECT_EQ(result.records_on_disk, row_result.trace.records.size())
          << "threads=" << threads << " faulty=" << faulty;
      EXPECT_EQ(result.columnar.read_stats().frames_damaged, 0u);

      ExpectScanEqual(TraceScan::Run(result.columnar), oracle);
      std::filesystem::remove_all(dir);
    }
  }
}

// Compressed and uncompressed stores of the same fleet trace must scan to
// identical results -- the fused decode inside the columnar scan cannot
// perturb a single counter or sample. Both scans run disk-backed, so this
// also holds the CDF spill/external-merge path equal to itself across the
// two encodings.
TEST(ScanParity, CompressedStoreScanMatchesUncompressedStore) {
  for (const bool faulty : {false, true}) {
    const FleetConfig config = faulty ? FaultyConfig(11) : SmallConfig(11);
    const FleetResult row_result = RunFleet(config);
    const TraceScan oracle = TraceScan::Run(row_result.trace);

    auto write_store = [&](const std::string& path, bool compress) {
      ExtentStoreWriter writer;
      ASSERT_TRUE(writer.Open(path, 4096, 0xBEEF, compress));
      ASSERT_TRUE(writer.AppendRecords(row_result.trace.records.data(),
                                       row_result.trace.records.size()));
      for (const NameRecord& n : row_result.trace.names) {
        writer.AddName(n);
      }
      for (const auto& [pid, name] : row_result.trace.process_names) {
        writer.AddProcessName(pid, name);
      }
      ASSERT_TRUE(writer.Seal());
      writer.Close();
    };
    const std::string cpath = ScratchPath("scan_parity_store_c") + (faulty ? "_f" : "") + ".ntx";
    const std::string rpath = ScratchPath("scan_parity_store_r") + (faulty ? "_f" : "") + ".ntx";
    write_store(cpath, true);
    write_store(rpath, false);
    EXPECT_LT(std::filesystem::file_size(cpath), std::filesystem::file_size(rpath));

    const ColumnarTraceSet compressed = ColumnarTraceSet::FromFile(cpath);
    const ColumnarTraceSet uncompressed = ColumnarTraceSet::FromFile(rpath);
    ASSERT_EQ(compressed.spill_path(), cpath);
    EXPECT_EQ(compressed.record_count(), row_result.trace.records.size());
    EXPECT_EQ(compressed.read_stats().frames_damaged, 0u);

    const TraceScan from_compressed = TraceScan::Run(compressed);
    const TraceScan from_uncompressed = TraceScan::Run(uncompressed);
    ExpectScanEqual(from_compressed, oracle);
    ExpectScanEqual(from_compressed, from_uncompressed);

    std::filesystem::remove(cpath);
    std::filesystem::remove(rpath);
  }
}

// Adversarial records aimed at the accumulator's fast paths: pids and
// system ids beyond the dense-table caps (hash fallbacks), unknown event
// and status codes (tally clamping), timestamps that jump backwards
// (last-second bypass must stay exact), and every irp-flag combination.
TEST(ScanParity, RandomizedAdversarialRecords) {
  Rng rng(0xD15EA5E);
  TraceSet trace;
  const std::vector<std::string> names = {"explorer.exe", "ntbackup.exe", "services.exe",
                                          "winword.exe", "x"};
  // Pids straddling the 1<<20 dense cap; several map to names, some do not.
  const std::vector<uint32_t> pids = {1,          40,         41,         (1u << 20) - 1,
                                      (1u << 20), 0xFFFFFFFF, 0xDEADBEEF, 7};
  for (size_t i = 0; i < pids.size(); ++i) {
    if (i % 2 == 0) {
      trace.process_names.emplace(pids[i], names[i % names.size()]);
    }
  }
  const std::vector<uint16_t> events = {
      static_cast<uint16_t>(TraceEvent::kIrpCreate),
      static_cast<uint16_t>(TraceEvent::kIrpRead),
      static_cast<uint16_t>(TraceEvent::kIrpWrite),
      static_cast<uint16_t>(TraceEvent::kIrpSetInformation),
      static_cast<uint16_t>(TraceEvent::kIrpDirectoryControl),
      static_cast<uint16_t>(TraceEvent::kIrpFileSystemControl),
      static_cast<uint16_t>(TraceEvent::kIrpDeviceControl),
      static_cast<uint16_t>(TraceEvent::kIrpFlushBuffers),
      static_cast<uint16_t>(TraceEvent::kFastIoRead),
      static_cast<uint16_t>(TraceEvent::kFastIoWrite),
      static_cast<uint16_t>(TraceEvent::kFastIoReadNotPossible),
      static_cast<uint16_t>(TraceEvent::kFastIoWriteNotPossible),
      63, 64, 999, 0xFFFF};  // Unknown codes: must fold into no counter.
  int64_t t = 0;
  trace.records.reserve(200000);
  for (int i = 0; i < 200000; ++i) {
    TraceRecord r;
    r.file_object = 0x1000 + static_cast<uint64_t>(rng.UniformInt(0, 63));
    // Mostly forward time with occasional backward jumps across systems.
    t += rng.UniformInt(-2000, 40000);
    r.start_ticks = t;
    r.complete_ticks = t + rng.UniformInt(0, 5000);
    r.offset = static_cast<uint64_t>(rng.UniformInt(0, 1 << 22));
    r.file_size = static_cast<uint64_t>(rng.UniformInt(0, 1 << 24));
    r.length = static_cast<uint32_t>(rng.UniformInt(0, 1 << 16));
    r.returned = rng.NextDouble() < 0.9
                     ? r.length
                     : static_cast<uint32_t>(rng.UniformInt(0, r.length));
    r.process_id = pids[static_cast<size_t>(rng.UniformInt(0, 7))];
    r.irp_flags = static_cast<uint32_t>(rng.UniformInt(0, 63));
    r.create_options = static_cast<uint32_t>(rng.UniformInt(0, 255));
    r.file_attributes = static_cast<uint32_t>(rng.UniformInt(0, 255));
    r.event = events[static_cast<size_t>(rng.UniformInt(0, 15))];
    r.status = static_cast<uint16_t>(rng.UniformInt(0, 8));
    r.disposition = static_cast<uint8_t>(rng.UniformInt(0, 5));
    r.create_action = static_cast<uint8_t>(rng.UniformInt(0, 3));
    r.info_class = static_cast<uint8_t>(rng.UniformInt(0, 7));
    r.fsctl = static_cast<uint8_t>(rng.UniformInt(0, 3));
    // System ids straddling the dense last-second cap.
    r.system_id = rng.NextDouble() < 0.9
                      ? static_cast<uint32_t>(rng.UniformInt(0, 7))
                      : (1u << 20) + static_cast<uint32_t>(rng.UniformInt(0, 3));
    trace.records.push_back(r);
  }

  const TraceScan oracle = TraceScan::Run(trace);
  const std::string path = ScratchPath("scan_parity_random.ntx");
  ExpectScanEqual(TraceScan::Run(WriteColumnarStore(trace, path)), oracle);
  // Batch-boundary independence: a 333-record extent chops every run chain
  // and tally differently from one big batch; results must not move.
  ExpectScanEqual(TraceScan::Run(WriteColumnarStore(trace, path, 333)), oracle);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ntrace
