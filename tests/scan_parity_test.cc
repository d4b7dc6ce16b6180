// Scan parity (DESIGN.md §12): the production scan -- one ordered chunk
// fold (src/analysis/scan_kernels.h) for both trace forms, on the worker
// pool -- must reproduce the record-at-a-time reference sweep
// (tests/reference_scan.h) field for field and sample for sample
//  - over seeded fleet traces, clean and fault-injected;
//  - over the fleet's out-of-core columnar mode at threads {1, 2, 8};
//  - over compressed and uncompressed stores scanned from disk;
//  - over adversarial random records (wild pids / system ids beyond the
//    dense-table caps, unknown event codes, out-of-order timestamps);
//  - at 1, 2 and 4 scan workers, with extents of 333, 1,024 and 64K
//    records, so run chains cross many chunk seams;
//  - over chains built to cross, break at and skip seams (the stitch rule);
//  - up to, and not past, an extent whose payload does not decode.
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
#include "src/metrics/metrics.h"
#include "src/trace/extent_store.h"
#include "src/workload/fleet.h"
#include "tests/reference_scan.h"
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
    const TraceScan oracle = ReferenceScan(result.trace);
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
  const TraceScan oracle = ReferenceScan(result.trace);
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
    const TraceScan oracle = ReferenceScan(row_result.trace);

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
    const TraceScan oracle = ReferenceScan(row_result.trace);

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
TraceSet AdversarialTrace() {
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
  return trace;
}

TEST(ScanParity, RandomizedAdversarialRecords) {
  const TraceSet trace = AdversarialTrace();
  const TraceScan oracle = ReferenceScan(trace);
  const std::string path = ScratchPath("scan_parity_random.ntx");
  ExpectScanEqual(TraceScan::Run(WriteColumnarStore(trace, path)), oracle);
  // Batch-boundary independence: a 333-record extent chops every run chain
  // and tally differently from one big batch; results must not move.
  ExpectScanEqual(TraceScan::Run(WriteColumnarStore(trace, path, 333)), oracle);
  std::remove(path.c_str());
}

// Thread invariance: both forms, at 1, 2 and 4 workers, equal the reference
// over the seeded, faulted and adversarial traces. Stores of 333-, 1,024-
// and 64K-record extents cut run chains at many seams; the row form cuts
// its chunks at 64K records.
TEST(ScanParity, BothFormsEqualTheReferenceAtEveryWorkerCount) {
  const std::vector<std::pair<const char*, TraceSet>> traces = [] {
    std::vector<std::pair<const char*, TraceSet>> t;
    t.emplace_back("seeded", RunFleet(SmallConfig(7)).trace);
    t.emplace_back("faulted", RunFleet(FaultyConfig(7)).trace);
    t.emplace_back("adversarial", AdversarialTrace());
    return t;
  }();
  for (const auto& [what, trace] : traces) {
    SCOPED_TRACE(what);
    ASSERT_GT(trace.records.size(), 1000u);
    const TraceScan oracle = ReferenceScan(trace);
    for (const int workers : {1, 2, 4}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      const TraceScan rows = TraceScan::Run(trace, workers);
      EXPECT_EQ(rows.records_scanned, trace.records.size());
      ExpectScanEqual(rows, oracle);
    }
    const std::string path = ScratchPath("scan_parity_workers.ntx");
    for (const uint32_t extent : {333u, 1024u, kDefaultExtentRecords}) {
      const ColumnarTraceSet store = WriteColumnarStore(trace, path, extent);
      for (const int workers : {1, 2, 4}) {
        SCOPED_TRACE("extent=" + std::to_string(extent) + " workers=" + std::to_string(workers));
        const TraceScan scan = TraceScan::Run(store, workers);
        EXPECT_EQ(scan.records_scanned, trace.records.size());
        ExpectScanEqual(scan, oracle);
      }
    }
    std::remove(path.c_str());
  }
}

// Four chunks of `chunk` records each, holding run chains placed against
// the chunk seams; every other record is a query on an unrelated file.
//   0xA  reads sequentially across chunks 0, 1 and 2: one run, two seams.
//   0xB  breaks exactly at the 0|1 seam, then runs on: two runs.
//   0xC  is read only in chunks 1 and 3, contiguously: one run.
//   0xD  writes from chunk 0 into 1, seeks inside 1 and runs on into 2.
//   0xE  three runs inside chunk 2: the first closes in the chunk, the
//        middle one strictly inside it, the last stays open to the end.
//   0xF  a read chain across the 0|1 seam with a write between.
// Read runs: 4096 x4, 8192 x2, 12288, 24576. Write runs: 4096, 8192, 12288.
TraceSet StitchTrace(size_t chunk) {
  TraceSet trace;
  trace.process_names.emplace(1, "explorer.exe");
  trace.records.resize(4 * chunk);
  for (size_t i = 0; i < trace.records.size(); ++i) {
    TraceRecord& r = trace.records[i];
    r.file_object = 0x99;
    r.event = static_cast<uint16_t>(TraceEvent::kIrpQueryInformation);
    r.process_id = 1;
    r.start_ticks = static_cast<int64_t>(i) * 1000;
    r.complete_ticks = r.start_ticks + 500;
  }
  const size_t mid = chunk / 2;
  const size_t last = chunk - 1;
  const auto put = [&](size_t c, size_t at, uint64_t file_object, TraceEvent event,
                       uint64_t offset) {
    TraceRecord& r = trace.records[c * chunk + at];
    r.file_object = file_object;
    r.event = static_cast<uint16_t>(event);
    r.offset = offset;
    r.length = 4096;
    r.returned = 4096;
  };
  constexpr TraceEvent kRead = TraceEvent::kIrpRead;
  constexpr TraceEvent kWrite = TraceEvent::kIrpWrite;
  put(0, last - 1, 0xA, kRead, 0);
  put(0, last, 0xA, kRead, 4096);
  put(1, 2, 0xA, kRead, 8192);
  put(1, mid, 0xA, kRead, 12288);
  put(2, 0, 0xA, kRead, 16384);
  put(2, last, 0xA, kRead, 20480);

  put(0, last - 2, 0xB, kRead, 0);
  put(1, 0, 0xB, kRead, 100000);
  put(1, 1, 0xB, kRead, 104096);

  put(1, mid + 1, 0xC, kRead, 0);
  put(1, mid + 2, 0xC, kRead, 4096);
  put(3, mid, 0xC, kRead, 8192);

  put(0, mid, 0xD, kWrite, 0);
  put(1, 3, 0xD, kWrite, 4096);
  put(1, mid + 3, 0xD, kWrite, 50000);
  put(1, last, 0xD, kWrite, 54096);
  put(2, 1, 0xD, kWrite, 58192);

  put(2, 2, 0xE, kRead, 0);
  put(2, mid, 0xE, kRead, 100);
  put(2, mid + 1, 0xE, kRead, 5000);

  put(0, last - 3, 0xF, kRead, 0);
  put(1, 4, 0xF, kWrite, 0);
  put(1, 5, 0xF, kRead, 4096);
  return trace;
}

void ExpectStitchedRuns(const TraceScan& scan) {
  using Samples = std::vector<std::pair<double, double>>;
  EXPECT_EQ(scan.read_runs_by_count.samples(),
            (Samples{{4096, 4}, {8192, 2}, {12288, 1}, {24576, 1}}));
  EXPECT_EQ(scan.write_runs_by_count.samples(), (Samples{{4096, 1}, {8192, 1}, {12288, 1}}));
}

// The stitch rule: a chunk's first run joins the chain before it iff it
// starts where that chain ended, whatever lies between.
TEST(ScanParity, RunChainsStitchAcrossChunkSeams) {
  const TraceSet rows = StitchTrace(kDefaultExtentRecords);
  ExpectStitchedRuns(ReferenceScan(rows));
  const TraceSet small = StitchTrace(16);
  const std::string path = ScratchPath("scan_parity_stitch.ntx");
  const ColumnarTraceSet store = WriteColumnarStore(small, path, 16);
  for (const int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const TraceScan from_rows = TraceScan::Run(rows, workers);
    ExpectStitchedRuns(from_rows);
    ExpectScanEqual(from_rows, ReferenceScan(rows));
    const TraceScan from_store = TraceScan::Run(store, workers);
    ExpectStitchedRuns(from_store);
    ExpectScanEqual(from_store, ReferenceScan(small));
  }
  std::remove(path.c_str());
}

// Salvage: a middle extent whose CRCs hold but whose file_object column
// carries an unknown encoding. The store opens whole (its prescan decodes
// only the event spine), and the scan covers exactly the extents before the
// bad one at every worker count, as the stream reader's Reject does.
TEST(ScanParity, ScanStopsAtAnExtentThatDoesNotDecode) {
  const TraceSet trace = RunFleet(SmallConfig(7)).trace;
  constexpr uint32_t kExtent = 1024;
  constexpr size_t kBad = 5;  // Mid-window at 2 and 4 workers.
  ASSERT_GT(trace.records.size(), (kBad + 2) * kExtent);
  const std::string src_path = ScratchPath("scan_parity_salvage_src.ntx");
  const std::string path = ScratchPath("scan_parity_salvage.ntx");
  WriteColumnarStore(trace, src_path, kExtent);
  {
    const std::vector<uint8_t> bytes = ReadFileBytes(src_path);
    Counter& counter = MetricsRegistry::Global().GetCounter("ntrace_scan_test_salvage_bytes_total",
                                                            "Test bytes");
    FrameFileWriter file;
    ASSERT_TRUE(file.Open(path, {kExtentStoreMagic, kExtentStoreVersion, kExtent, 0}, &counter));
    size_t begin = kExtentStoreHeaderSize;
    size_t extents = 0;
    while (begin < bytes.size()) {
      SpoolFrameView view;
      size_t consumed = 0;
      ASSERT_EQ(SpoolParseFrame(bytes.data() + begin, bytes.size() - begin, &view, &consumed),
                SpoolFrameStatus::kOk);
      std::vector<uint8_t> payload(view.payload, view.payload + view.payload_size);
      if (static_cast<ExtentFrameType>(view.type) == ExtentFrameType::kExtent &&
          extents++ == kBad) {
        // u32 record count and four i64 tick bounds, then the first
        // column (file_object): u8 encoding | u32 encoded_bytes.
        payload[sizeof(uint32_t) + 4 * sizeof(int64_t)] = 0xEE;
      }
      ASSERT_TRUE(file.Append(view.type, payload.data(), payload.size(), nullptr, 0, false));
      begin += consumed;
    }
    file.Close();
  }
  const ColumnarTraceSet store = ColumnarTraceSet::FromFile(path);
  ASSERT_EQ(store.record_count(), trace.records.size());
  ASSERT_EQ(store.read_stats().frames_damaged, 0u);

  TraceSet before = trace;
  before.records.resize(kBad * kExtent);
  const TraceScan oracle = ReferenceScan(before);
  EXPECT_EQ(store.ToRows().records.size(), before.records.size());
  for (const int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const TraceScan scan = TraceScan::Run(store, workers);
    EXPECT_EQ(scan.records_scanned, before.records.size());
    ExpectScanEqual(scan, oracle);
  }
  std::remove(src_path.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ntrace
