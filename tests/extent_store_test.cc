// Columnar extent store format and salvage contract (DESIGN.md §12):
//  - lossless row <-> column round-trip through a sealed store, name and
//    process tables included;
//  - the v1 on-disk bytes are pinned (golden header + a byte-for-byte
//    reconstruction from the documented layout; the uncompressed raw/const
//    baseline and every compressed codec -- delta varint, bitpack, RLE --
//    each have a golden);
//  - salvage is exactly the longest valid frame prefix: a truncation sweep
//    over every byte length and a seeded bit-flip fuzz (both over
//    compressed frames, the default encoding) must never crash the reader
//    and never yield anything but a prefix of the original records;
//  - MergeExtentStreams puts its inputs end to end with every extent frame
//    copied verbatim, on compressed and mixed compressed/uncompressed
//    inputs, and a damaged input ends at its intact prefix;
//  - ColumnarTraceSet::WriteMerged returns exactly what FromFile reads back
//    from the store it wrote, read stats included.
// Mirrors tests/spool_test.cc, which pins the shared frame codec itself.

#include "src/trace/extent_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/base/crc32c.h"
#include "src/base/rng.h"
#include "src/metrics/metrics.h"
#include "src/trace/spool.h"
#include "tests/test_util.h"

namespace ntrace {
namespace {

// Records with enough per-field variety that every raw-encoded column
// actually varies (constant columns are exercised separately).
TraceRecord MakeRecord(uint32_t system_id, uint64_t i) {
  TraceRecord r;
  r.file_object = 0x1000 + (i % 7);
  r.start_ticks = static_cast<int64_t>(100 * i);
  r.complete_ticks = static_cast<int64_t>(100 * i + 7 + (i % 3));
  r.offset = 512 * i;
  r.file_size = (1u << 20) + i;
  r.length = 4096 + static_cast<uint32_t>(i % 5) * 512;
  r.returned = r.length;
  r.process_id = 40 + static_cast<uint32_t>(i % 4);
  r.irp_flags = (i % 2 == 0) ? 0u : static_cast<uint32_t>(kIrpPagingIo);
  r.create_options = static_cast<uint32_t>(i % 11);
  r.file_attributes = static_cast<uint32_t>(i % 13);
  r.event = static_cast<uint16_t>(i % 2 == 0 ? TraceEvent::kIrpRead : TraceEvent::kIrpWrite);
  r.status = static_cast<uint16_t>(i % 6 == 0 ? NtStatus::kEndOfFile : NtStatus::kSuccess);
  r.disposition = static_cast<uint8_t>(i % 3);
  r.create_action = static_cast<uint8_t>(i % 2);
  r.info_class = static_cast<uint8_t>(i % 4);
  r.fsctl = static_cast<uint8_t>(i % 2);
  r.system_id = system_id;
  return r;
}

std::vector<TraceRecord> MakeRecords(uint32_t system_id, uint64_t base, size_t n) {
  std::vector<TraceRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    records.push_back(MakeRecord(system_id, base + i));
  }
  return records;
}

void ExpectRecordsEqual(const std::vector<TraceRecord>& got,
                        const std::vector<TraceRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  if (!got.empty()) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(TraceRecord)), 0);
  }
}

// Reads every surviving record of a store file in stream order.
std::vector<TraceRecord> RecoveredRows(const std::string& path, ExtentReadStats* stats) {
  ExtentStreamReader reader;
  std::vector<TraceRecord> rows;
  if (reader.Open(path)) {
    ColumnarExtent extent;
    while (reader.NextExtent(&extent)) {
      for (size_t i = 0; i < extent.size(); ++i) {
        rows.push_back(extent.RowAt(i));
      }
    }
  }
  *stats = reader.stats();
  return rows;
}

TEST(ExtentStore, RoundTripRowsNamesAndProcesses) {
  const std::string path = ScratchPath("extent_roundtrip.ntx");
  const std::vector<TraceRecord> records = MakeRecords(7, 0, 1000);

  ExtentStoreWriter writer;
  ASSERT_TRUE(writer.Open(path, 256, 0xFEEDFACE12345678ULL));
  ASSERT_TRUE(writer.AppendRecords(records.data(), records.size()));
  NameRecord n1;
  n1.file_object = 0x1000;
  n1.system_id = 7;
  n1.path = "C:\\temp\\build.log";
  NameRecord n2;
  n2.file_object = 0x1001;
  n2.system_id = 7;
  n2.path = "C:\\temp\\build.log";  // Same path: dictionary must dedup.
  writer.AddName(n1);
  writer.AddName(n2);
  writer.AddProcessName(40, "explorer.exe");
  writer.AddProcessName(41, "services.exe");
  ASSERT_TRUE(writer.Seal());
  EXPECT_EQ(writer.records_written(), records.size());
  EXPECT_EQ(writer.extents_written(), (records.size() + 255) / 256);
  writer.Close();

  const ColumnarTraceSet store = ColumnarTraceSet::FromFile(path);
  EXPECT_EQ(store.spill_path(), path);
  EXPECT_EQ(store.record_count(), records.size());
  EXPECT_TRUE(store.read_stats().sealed);
  EXPECT_EQ(store.read_stats().frames_damaged, 0u);
  EXPECT_EQ(store.read_stats().seal_dict_entries, 3u);  // Path deduped.

  const TraceSet rows = store.ToRows();
  ExpectRecordsEqual(rows.records, records);
  ASSERT_EQ(rows.names.size(), 2u);
  EXPECT_EQ(rows.names[0].path, "C:\\temp\\build.log");
  EXPECT_EQ(rows.names[1].path, "C:\\temp\\build.log");
  EXPECT_EQ(rows.names[1].file_object, 0x1001u);
  ASSERT_EQ(rows.process_names.size(), 2u);
  EXPECT_EQ(rows.process_names.at(40), "explorer.exe");
  EXPECT_EQ(rows.process_names.at(41), "services.exe");
  std::remove(path.c_str());
}

// The bytes counter covers every byte the store holds: the file header,
// the extents and the dictionary, name, process and seal frames behind them.
TEST(ExtentStore, BytesCounterCountsEveryByteOfASealedStore) {
  const std::string path = ScratchPath("extent_counter.ntx");
  auto counted = [] {
    return MetricsRegistry::Global().Snapshot().CounterValue("ntrace_extent_bytes_written_total");
  };
  const uint64_t before = counted();
  const std::vector<TraceRecord> records = MakeRecords(7, 0, 1000);
  ExtentStoreWriter writer;
  ASSERT_TRUE(writer.Open(path, 256, 0x77));
  ASSERT_TRUE(writer.AppendRecords(records.data(), records.size()));
  NameRecord name;
  name.file_object = 0x1000;
  name.system_id = 7;
  name.path = "C:\\temp\\build.log";
  writer.AddName(name);
  writer.AddProcessName(40, "explorer.exe");
  ASSERT_TRUE(writer.Seal());
  writer.Close();
  const uint64_t file_size = ReadFileBytes(path).size();
  EXPECT_EQ(writer.bytes_written(), file_size);
  EXPECT_EQ(counted() - before, file_size);
  std::remove(path.c_str());
}

TEST(ExtentStore, FromRowsToRowsIsExact) {
  TraceSet rows;
  rows.records = MakeRecords(3, 0, 777);
  NameRecord name;
  name.file_object = 0x1002;
  name.system_id = 3;
  name.path = "C:\\users\\doc.txt";
  rows.names.push_back(name);
  rows.process_names.emplace(40, "explorer.exe");

  const std::string path = ScratchPath("extent_from_rows.ntx");
  const ColumnarTraceSet columnar = WriteColumnarStore(rows, path, 100);
  EXPECT_EQ(columnar.record_count(), rows.records.size());
  EXPECT_EQ(columnar.read_stats().extents_recovered, 8u);  // ceil(777 / 100).

  const TraceSet back = columnar.ToRows();
  ExpectRecordsEqual(back.records, rows.records);
  ASSERT_EQ(back.names.size(), 1u);
  EXPECT_EQ(back.names[0].path, "C:\\users\\doc.txt");
  EXPECT_EQ(back.process_names.at(40), "explorer.exe");
  std::remove(path.c_str());
}

// Pins the v1 on-disk format byte for byte: the 24-byte file header, one
// extent frame exercising both column encodings, the dictionary / name /
// process tail tables and the seal, all reconstructed from the documented
// layout (CRC-32C itself is pinned by crc32c_test's RFC vectors). If this
// test breaks, the format changed -- bump kExtentStoreVersion.
TEST(ExtentStore, GoldenV1Format) {
  const std::string path = ScratchPath("extent_golden.ntx");
  ExtentStoreWriter writer;
  // compress=false pins the uncompressed baseline (raw/const columns only);
  // GoldenCompressedEncodings below pins each compressed codec's bytes.
  ASSERT_TRUE(writer.Open(path, 64, 0x1122334455667788ULL, /*compress=*/false));

  // Two records chosen so some columns vary (raw) and the rest are
  // constant (const-encoded): same file_object/file_size/length/..., but
  // different ticks and offset.
  TraceRecord r0;
  r0.file_object = 0x1000;
  r0.start_ticks = 100;
  r0.complete_ticks = 107;
  r0.offset = 0;
  r0.file_size = 1 << 20;
  r0.length = 4096;
  r0.returned = 4096;
  r0.process_id = 42;
  r0.event = static_cast<uint16_t>(TraceEvent::kIrpRead);
  r0.system_id = 0x0A0B0C0D;
  TraceRecord r1 = r0;
  r1.start_ticks = 200;
  r1.complete_ticks = 209;
  r1.offset = 4096;
  ASSERT_TRUE(writer.AppendRecord(r0));
  ASSERT_TRUE(writer.AppendRecord(r1));

  NameRecord name;
  name.file_object = 0x1000;
  name.system_id = 0x0A0B0C0D;
  name.path = "C:\\a";
  writer.AddName(name);
  writer.AddProcessName(42, "x.exe");
  ASSERT_TRUE(writer.Seal());
  writer.Close();
  const std::vector<uint8_t> actual = ReadFileBytes(path);

  // File header: magic "NTCOLX01", version, extent capacity, fingerprint (LE).
  const uint8_t golden_header[kExtentStoreHeaderSize] = {
      'N', 'T', 'C', 'O', 'L', 'X', '0', '1',          // u64 magic.
      0x01, 0x00, 0x00, 0x00,                          // u32 version = 1.
      0x40, 0x00, 0x00, 0x00,                          // u32 extent_records = 64.
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // u64 fingerprint.
  };
  ASSERT_GE(actual.size(), kExtentStoreHeaderSize);
  EXPECT_EQ(std::memcmp(actual.data(), golden_header, sizeof(golden_header)), 0);

  std::vector<uint8_t> expected(golden_header, golden_header + sizeof(golden_header));
  auto put_frame = [&](uint16_t type, const std::vector<uint8_t>& payload) {
    const size_t at = expected.size();
    auto put32 = [&expected](uint32_t v) {
      for (int i = 0; i < 4; ++i) {
        expected.push_back(static_cast<uint8_t>(v >> (8 * i)));
      }
    };
    put32(kSpoolFrameMagic);
    expected.push_back(static_cast<uint8_t>(type));
    expected.push_back(static_cast<uint8_t>(type >> 8));
    expected.push_back(0);
    expected.push_back(0);
    put32(static_cast<uint32_t>(payload.size()));
    put32(Crc32c(payload.data(), payload.size()));
    put32(Crc32c(expected.data() + at, kSpoolFrameHeaderSize - 4));
    expected.insert(expected.end(), payload.begin(), payload.end());
  };
  std::vector<uint8_t> payload;
  auto p8 = [&payload](uint8_t v) { payload.push_back(v); };
  auto p16 = [&payload](uint16_t v) {
    payload.push_back(static_cast<uint8_t>(v));
    payload.push_back(static_cast<uint8_t>(v >> 8));
  };
  auto p32 = [&payload](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      payload.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  auto p64 = [&payload](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      payload.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  constexpr uint8_t kRaw = static_cast<uint8_t>(ColumnEncoding::kRaw);
  constexpr uint8_t kConst = static_cast<uint8_t>(ColumnEncoding::kConst);
  // Each column is `u8 encoding | u32 encoded bytes | bytes`.
  auto col = [&](uint8_t enc, uint32_t enc_bytes) {
    p8(enc);
    p32(enc_bytes);
  };

  // kExtent: count, start/complete min/max, then each column in schema
  // order, each prefixed by its encoding byte and encoded length.
  payload.clear();
  p32(2);          // record_count.
  p64(100);        // min_start_ticks.
  p64(200);        // max_start_ticks.
  p64(107);        // min_complete_ticks.
  p64(209);        // max_complete_ticks.
  col(kConst, 8);  p64(0x1000);              // file_object.
  col(kRaw, 16);   p64(100); p64(200);       // start_ticks.
  col(kRaw, 16);   p64(107); p64(209);       // complete_ticks.
  col(kRaw, 16);   p64(0); p64(4096);        // offset.
  col(kConst, 8);  p64(1 << 20);             // file_size.
  col(kConst, 4);  p32(4096);                // length.
  col(kConst, 4);  p32(4096);                // returned.
  col(kConst, 4);  p32(42);                  // process_id.
  col(kConst, 4);  p32(0);                   // irp_flags.
  col(kConst, 4);  p32(0);                   // create_options.
  col(kConst, 4);  p32(0);                   // file_attributes.
  col(kConst, 2);  p16(static_cast<uint16_t>(TraceEvent::kIrpRead));  // event.
  col(kConst, 2);  p16(0);                   // status.
  col(kConst, 1);  p8(0);                    // disposition.
  col(kConst, 1);  p8(0);                    // create_action.
  col(kConst, 1);  p8(0);                    // info_class.
  col(kConst, 1);  p8(0);                    // fsctl.
  col(kConst, 4);  p32(0x0A0B0C0D);          // system_id.
  col(kConst, 4);  p32(0);                   // reserved (pad word, always 0).
  put_frame(static_cast<uint16_t>(ExtentFrameType::kExtent), payload);

  // kDict: first-appearance order -- the name path, then the process name.
  payload.clear();
  p32(2);
  p32(4);
  payload.insert(payload.end(), {'C', ':', '\\', 'a'});
  p32(5);
  payload.insert(payload.end(), {'x', '.', 'e', 'x', 'e'});
  put_frame(static_cast<uint16_t>(ExtentFrameType::kDict), payload);

  // kNames: columnar (file_object[], system_id[], dict[]).
  payload.clear();
  p32(1);
  p64(0x1000);
  p32(0x0A0B0C0D);
  p32(0);
  put_frame(static_cast<uint16_t>(ExtentFrameType::kNames), payload);

  // kProcs: pid[], dict[].
  payload.clear();
  p32(1);
  p32(42);
  p32(1);
  put_frame(static_cast<uint16_t>(ExtentFrameType::kProcs), payload);

  // kSeal: records, extents, names, procs, dict entries.
  payload.clear();
  p64(2);
  p64(1);
  p64(1);
  p64(1);
  p64(2);
  put_frame(static_cast<uint16_t>(ExtentFrameType::kSeal), payload);

  EXPECT_EQ(actual, expected);
  std::remove(path.c_str());
}

// Pins the compressed codecs' v1 bytes: one extent whose columns are
// crafted so each encoding wins its size contest -- delta+zigzag varint on
// the monotone tick columns, frame-of-reference bitpack on the narrow
// oscillating offsets, RLE on the two-run length/event columns, const on
// everything invariant. The expected payload is built from the documented
// bit layouts, so a codec change (or a heuristic change that flips a
// winner) breaks this test and demands a version bump.
TEST(ExtentStore, GoldenCompressedEncodings) {
  const std::string path = ScratchPath("extent_golden_compressed.ntx");
  ExtentStoreWriter writer;
  ASSERT_TRUE(writer.Open(path, 64, 0x1122334455667788ULL));
  for (uint64_t i = 0; i < 16; ++i) {
    TraceRecord r;
    r.file_object = 0x123456789ABCDEF0ULL;  // Const (8B beats 9B bitpack/RLE).
    r.start_ticks = 1000000 + 1000 * static_cast<int64_t>(i);     // Delta varint.
    r.complete_ticks = 1000007 + 1000 * static_cast<int64_t>(i);  // Delta varint.
    r.offset = (i % 2) * 255;               // Bitpack (8-bit range, ± deltas).
    r.file_size = 1 << 20;                  // Const.
    r.length = i < 8 ? 4096 : 8192;         // RLE (two runs).
    r.returned = r.length;                  // RLE.
    r.process_id = 42;
    r.event = static_cast<uint16_t>(i < 8 ? TraceEvent::kIrpRead : TraceEvent::kIrpWrite);
    r.system_id = 0x0A0B0C0D;
    ASSERT_TRUE(writer.AppendRecord(r));
  }
  ASSERT_TRUE(writer.Seal());
  writer.Close();
  const std::vector<uint8_t> actual = ReadFileBytes(path);

  std::vector<uint8_t> expected = {
      'N', 'T', 'C', 'O', 'L', 'X', '0', '1',          // u64 magic.
      0x01, 0x00, 0x00, 0x00,                          // u32 version = 1.
      0x40, 0x00, 0x00, 0x00,                          // u32 extent_records = 64.
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // u64 fingerprint.
  };
  auto put_frame = [&](uint16_t type, const std::vector<uint8_t>& payload) {
    const size_t at = expected.size();
    auto put32 = [&expected](uint32_t v) {
      for (int i = 0; i < 4; ++i) {
        expected.push_back(static_cast<uint8_t>(v >> (8 * i)));
      }
    };
    put32(kSpoolFrameMagic);
    expected.push_back(static_cast<uint8_t>(type));
    expected.push_back(static_cast<uint8_t>(type >> 8));
    expected.push_back(0);
    expected.push_back(0);
    put32(static_cast<uint32_t>(payload.size()));
    put32(Crc32c(payload.data(), payload.size()));
    put32(Crc32c(expected.data() + at, kSpoolFrameHeaderSize - 4));
    expected.insert(expected.end(), payload.begin(), payload.end());
  };
  std::vector<uint8_t> payload;
  auto p8 = [&payload](uint8_t v) { payload.push_back(v); };
  auto p16 = [&payload](uint16_t v) {
    payload.push_back(static_cast<uint8_t>(v));
    payload.push_back(static_cast<uint8_t>(v >> 8));
  };
  auto p32 = [&payload](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      payload.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  auto p64 = [&payload](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      payload.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  auto col = [&](ColumnEncoding enc, uint32_t enc_bytes) {
    p8(static_cast<uint8_t>(enc));
    p32(enc_bytes);
  };

  payload.clear();
  p32(16);       // record_count.
  p64(1000000);  // min_start_ticks.
  p64(1015000);  // max_start_ticks.
  p64(1000007);  // min_complete_ticks.
  p64(1015007);  // max_complete_ticks.
  // file_object: const.
  col(ColumnEncoding::kConst, 8);
  p64(0x123456789ABCDEF0ULL);
  // start_ticks: delta varint -- zigzag(1000000) = 2000000 = [80 89 7A],
  // then 15 deltas of 1000, zigzag 2000 = [D0 0F].
  col(ColumnEncoding::kDeltaVarint, 3 + 15 * 2);
  payload.insert(payload.end(), {0x80, 0x89, 0x7A});
  for (int i = 0; i < 15; ++i) {
    payload.insert(payload.end(), {0xD0, 0x0F});
  }
  // complete_ticks: zigzag(1000007) = 2000014 = [8E 89 7A], same tail.
  col(ColumnEncoding::kDeltaVarint, 3 + 15 * 2);
  payload.insert(payload.end(), {0x8E, 0x89, 0x7A});
  for (int i = 0; i < 15; ++i) {
    payload.insert(payload.end(), {0xD0, 0x0F});
  }
  // offset: bitpack -- u64 min, u8 bit width, LSB-first packed deltas
  // (8-bit lanes here, so the packed bytes are the values themselves).
  col(ColumnEncoding::kBitPack, 8 + 1 + 16);
  p64(0);
  p8(8);
  for (int i = 0; i < 16; ++i) {
    p8(i % 2 == 0 ? 0x00 : 0xFF);
  }
  // file_size: const.
  col(ColumnEncoding::kConst, 8);
  p64(1 << 20);
  // length / returned: RLE -- varint run length, then the raw LE value.
  for (int c = 0; c < 2; ++c) {
    col(ColumnEncoding::kRle, 2 * (1 + 4));
    p8(8);
    p32(4096);
    p8(8);
    p32(8192);
  }
  // process_id, irp_flags, create_options, file_attributes: const u32.
  col(ColumnEncoding::kConst, 4);
  p32(42);
  for (int c = 0; c < 3; ++c) {
    col(ColumnEncoding::kConst, 4);
    p32(0);
  }
  // event: RLE over the two 8-record runs.
  col(ColumnEncoding::kRle, 2 * (1 + 2));
  p8(8);
  p16(static_cast<uint16_t>(TraceEvent::kIrpRead));
  p8(8);
  p16(static_cast<uint16_t>(TraceEvent::kIrpWrite));
  // status: const u16; disposition/create_action/info_class/fsctl: const u8.
  col(ColumnEncoding::kConst, 2);
  p16(0);
  for (int c = 0; c < 4; ++c) {
    col(ColumnEncoding::kConst, 1);
    p8(0);
  }
  // system_id, reserved: const u32.
  col(ColumnEncoding::kConst, 4);
  p32(0x0A0B0C0D);
  col(ColumnEncoding::kConst, 4);
  p32(0);
  put_frame(static_cast<uint16_t>(ExtentFrameType::kExtent), payload);

  // No names: an empty kNames table, the empty kProcs table, the seal.
  payload.clear();
  p32(0);
  put_frame(static_cast<uint16_t>(ExtentFrameType::kNames), payload);
  payload.clear();
  p32(0);
  put_frame(static_cast<uint16_t>(ExtentFrameType::kProcs), payload);
  payload.clear();
  p64(16);  // records.
  p64(1);   // extents.
  p64(0);   // names.
  p64(0);   // procs.
  p64(0);   // dict entries.
  put_frame(static_cast<uint16_t>(ExtentFrameType::kSeal), payload);

  EXPECT_EQ(actual, expected);

  // And the compressed store decodes back to the exact records.
  ExtentReadStats stats;
  const std::vector<TraceRecord> rows = RecoveredRows(path, &stats);
  EXPECT_TRUE(stats.sealed);
  EXPECT_EQ(stats.frames_damaged, 0u);
  ASSERT_EQ(rows.size(), 16u);
  for (uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(rows[i].start_ticks, 1000000 + 1000 * static_cast<int64_t>(i));
    EXPECT_EQ(rows[i].offset, (i % 2) * 255);
    EXPECT_EQ(rows[i].length, i < 8 ? 4096u : 8192u);
  }
  std::remove(path.c_str());
}

// Compressed and uncompressed stores of the same records must decode to
// identical rows (and the compressed file must actually be smaller).
TEST(ExtentStore, CompressedRawRoundTripParity) {
  const std::vector<TraceRecord> records = MakeRecords(7, 0, 3000);
  const std::string cpath = ScratchPath("extent_parity_c.ntx");
  const std::string rpath = ScratchPath("extent_parity_r.ntx");
  auto write_store = [&](const std::string& path, bool compress) {
    ExtentStoreWriter writer;
    ASSERT_TRUE(writer.Open(path, 256, 0xBEEF, compress));
    ASSERT_TRUE(writer.AppendRecords(records.data(), records.size()));
    ASSERT_TRUE(writer.Seal());
    writer.Close();
  };
  write_store(cpath, true);
  write_store(rpath, false);

  ExtentReadStats cstats, rstats;
  const std::vector<TraceRecord> crows = RecoveredRows(cpath, &cstats);
  const std::vector<TraceRecord> rrows = RecoveredRows(rpath, &rstats);
  EXPECT_TRUE(cstats.sealed);
  EXPECT_TRUE(rstats.sealed);
  ExpectRecordsEqual(crows, records);
  ExpectRecordsEqual(rrows, records);
  EXPECT_LT(ReadFileBytes(cpath).size(), ReadFileBytes(rpath).size());
  std::remove(cpath.c_str());
  std::remove(rpath.c_str());
}

// Builds a multi-extent store and returns (bytes, per-frame end offsets,
// cumulative records at each frame end, original records) by re-walking
// the file with the already-pinned spool frame codec.
struct GoldenStore {
  std::vector<uint8_t> bytes;
  std::vector<size_t> frame_ends;
  std::vector<uint64_t> records_at;
  std::vector<uint64_t> extent_counts;  // Per frame; 0 for tail frames.
  std::vector<TraceRecord> records;
};

GoldenStore BuildStore(const std::string& path) {
  GoldenStore g;
  g.records = MakeRecords(11, 0, 23);  // extent_records=8: extents of 8, 8, 7.
  ExtentStoreWriter writer;
  EXPECT_TRUE(writer.Open(path, 8, 0xBEEF));
  EXPECT_TRUE(writer.AppendRecords(g.records.data(), g.records.size()));
  for (int i = 0; i < 3; ++i) {
    NameRecord name;
    name.file_object = 0x1000 + static_cast<uint64_t>(i);
    name.system_id = 11;
    name.path = "C:\\users\\f" + std::to_string(i);
    writer.AddName(name);
  }
  writer.AddProcessName(40, "explorer.exe");
  EXPECT_TRUE(writer.Seal());
  writer.Close();
  g.bytes = ReadFileBytes(path);

  // Walk the frames to learn each frame's end offset and record count.
  size_t pos = kExtentStoreHeaderSize;
  uint64_t records = 0;
  while (pos < g.bytes.size()) {
    SpoolFrameView view;
    size_t consumed = 0;
    const SpoolFrameStatus status =
        SpoolParseFrame(g.bytes.data() + pos, g.bytes.size() - pos, &view, &consumed);
    EXPECT_EQ(status, SpoolFrameStatus::kOk);
    uint64_t count = 0;
    if (static_cast<ExtentFrameType>(view.type) == ExtentFrameType::kExtent) {
      uint32_t c = 0;
      std::memcpy(&c, view.payload, sizeof(c));
      count = c;
    }
    records += count;
    pos += consumed;
    g.frame_ends.push_back(pos);
    g.records_at.push_back(records);
    g.extent_counts.push_back(count);
  }
  EXPECT_EQ(pos, g.bytes.size());
  EXPECT_EQ(records, g.records.size());
  return g;
}

TEST(ExtentSalvage, TruncationSweepRecoversExactPrefix) {
  const std::string build_path = ScratchPath("extent_sweep_src.ntx");
  const GoldenStore g = BuildStore(build_path);
  const std::string path = ScratchPath("extent_sweep.ntx");

  for (size_t len = 0; len <= g.bytes.size(); ++len) {
    WriteFileBytes(path, std::vector<uint8_t>(g.bytes.begin(), g.bytes.begin() + len));
    ExtentReadStats stats;
    const std::vector<TraceRecord> rows = RecoveredRows(path, &stats);
    if (len < kExtentStoreHeaderSize) {
      EXPECT_FALSE(stats.header_valid) << "len=" << len;
      EXPECT_TRUE(rows.empty()) << "len=" << len;
      continue;
    }
    ASSERT_TRUE(stats.header_valid) << "len=" << len;
    // The salvage must be exactly the frames wholly inside the prefix.
    size_t whole_frames = 0;
    uint64_t expected_records = 0;
    for (size_t i = 0; i < g.frame_ends.size(); ++i) {
      if (g.frame_ends[i] <= len) {
        whole_frames = i + 1;
        expected_records = g.records_at[i];
      }
    }
    EXPECT_EQ(stats.frames_valid, whole_frames) << "len=" << len;
    EXPECT_EQ(stats.records_recovered, expected_records) << "len=" << len;
    ExpectRecordsEqual(rows, std::vector<TraceRecord>(
                                 g.records.begin(),
                                 g.records.begin() + static_cast<ptrdiff_t>(expected_records)));
    EXPECT_EQ(stats.sealed, len >= g.bytes.size()) << "len=" << len;
    // Anything cut mid-frame is reported damaged, and the byte count adds up.
    const size_t last_end =
        whole_frames == 0 ? kExtentStoreHeaderSize : g.frame_ends[whole_frames - 1];
    EXPECT_EQ(stats.frames_damaged, len > last_end ? 1u : 0u) << "len=" << len;
    EXPECT_EQ(stats.bytes_discarded, len - last_end) << "len=" << len;
    // When the cut extent frame kept its header and the leading record
    // count, the loss is known exactly.
    if (whole_frames < g.frame_ends.size() && g.extent_counts[whole_frames] > 0 &&
        len >= last_end + kSpoolFrameHeaderSize + sizeof(uint32_t)) {
      EXPECT_EQ(stats.records_lost_known, g.extent_counts[whole_frames]) << "len=" << len;
    }
  }
  std::remove(path.c_str());
  std::remove(build_path.c_str());
}

TEST(ExtentSalvage, BitFlipFuzzNeverCrashesAndYieldsOnlyPrefixes) {
  const std::string build_path = ScratchPath("extent_fuzz_src.ntx");
  const GoldenStore g = BuildStore(build_path);
  const std::string path = ScratchPath("extent_fuzz.ntx");
  Rng rng(0x5EED5EED);

  for (int iter = 0; iter < 200; ++iter) {
    std::vector<uint8_t> bytes = g.bytes;
    const int flips = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < flips; ++i) {
      const size_t bit = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bytes.size() * 8 - 1)));
      bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    if (rng.NextDouble() < 0.25) {
      bytes.resize(
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(bytes.size()))));
    }
    WriteFileBytes(path, bytes);
    ExtentReadStats stats;
    const std::vector<TraceRecord> rows = RecoveredRows(path, &stats);  // Must not crash.

    // Whatever survives must be a byte-identical prefix of the original
    // record stream -- salvage never invents or reorders data.
    ASSERT_LE(rows.size(), g.records.size()) << "iter=" << iter;
    ExpectRecordsEqual(rows, std::vector<TraceRecord>(
                                 g.records.begin(),
                                 g.records.begin() + static_cast<ptrdiff_t>(rows.size())));
    if (stats.header_valid && stats.frames_damaged == 0 && bytes.size() == g.bytes.size()) {
      // With a full-size file the only way to stay undamaged is full
      // recovery (flips landed inside already-validated tail slack: none).
      EXPECT_EQ(stats.records_recovered, g.records.size()) << "iter=" << iter;
      EXPECT_TRUE(stats.sealed) << "iter=" << iter;
    }
  }
  std::remove(path.c_str());
  std::remove(build_path.c_str());
}

TEST(ExtentSalvage, DamagedExtentUnderIntactHeaderCountsKnownLoss) {
  const std::string path = ScratchPath("extent_known_loss.ntx");
  const GoldenStore g = BuildStore(path);

  // Corrupt one payload byte of the second extent frame (frames 0 and 1 are
  // the first two extents); its frame header stays intact, so the reader
  // still reports how many records were lost.
  std::vector<uint8_t> bytes = g.bytes;
  bytes[g.frame_ends[0] + kSpoolFrameHeaderSize + 48] ^= 0x01;
  WriteFileBytes(path, bytes);

  ExtentReadStats stats;
  const std::vector<TraceRecord> rows = RecoveredRows(path, &stats);
  ASSERT_TRUE(stats.header_valid);
  EXPECT_FALSE(stats.sealed);
  EXPECT_EQ(stats.extents_recovered, 1u);
  EXPECT_EQ(stats.records_recovered, g.extent_counts[0]);
  ExpectRecordsEqual(rows, std::vector<TraceRecord>(
                               g.records.begin(),
                               g.records.begin() + static_cast<ptrdiff_t>(g.extent_counts[0])));
  EXPECT_EQ(stats.frames_damaged, 1u);
  EXPECT_EQ(stats.records_lost_known, g.extent_counts[1]);
  std::remove(path.c_str());
}

// A frame whose CRCs pass but whose payload does not decode was written by
// a broken writer: the reader rejects it as damage and stops after the
// extents before it, though intact frames follow.
TEST(ExtentSalvage, UndecodableExtentUnderValidCrcsIsRejected) {
  const std::string build_path = ScratchPath("extent_reject_src.ntx");
  const GoldenStore g = BuildStore(build_path);
  const std::string path = ScratchPath("extent_reject.ntx");
  {
    MetricsRegistry& registry = MetricsRegistry::Global();
    Counter& bytes = registry.GetCounter("ntrace_extent_test_reject_bytes_total", "Test bytes");
    FrameFileWriter file;
    ASSERT_TRUE(file.Open(path, {kExtentStoreMagic, kExtentStoreVersion, 8, 0xBEEF}, &bytes));
    size_t begin = kExtentStoreHeaderSize;
    for (size_t i = 0; i < g.frame_ends.size(); ++i) {
      SpoolFrameView view;
      size_t consumed = 0;
      const SpoolFrameStatus status =
          SpoolParseFrame(g.bytes.data() + begin, g.bytes.size() - begin, &view, &consumed);
      ASSERT_EQ(status, SpoolFrameStatus::kOk);
      std::vector<uint8_t> payload(view.payload, view.payload + view.payload_size);
      if (i == 1) {
        // The second extent's first column: u32 record count and four i64
        // tick bounds, then u8 encoding | u32 encoded_bytes. Its length now
        // runs past the payload.
        const size_t length_at = sizeof(uint32_t) + 4 * sizeof(int64_t) + 1;
        const uint32_t past_end = static_cast<uint32_t>(payload.size());
        std::memcpy(payload.data() + length_at, &past_end, sizeof(past_end));
      }
      ASSERT_TRUE(file.Append(view.type, payload.data(), payload.size(), nullptr, 0, false));
      begin = g.frame_ends[i];
    }
    file.Close();
  }
  ASSERT_EQ(ReadFileBytes(path).size(), g.bytes.size());
  const auto first_end = g.records.begin() + static_cast<ptrdiff_t>(g.extent_counts[0]);
  const std::vector<TraceRecord> first_extent(g.records.begin(), first_end);

  ExtentReadStats stats;
  const std::vector<TraceRecord> rows = RecoveredRows(path, &stats);
  ASSERT_TRUE(stats.header_valid);
  EXPECT_FALSE(stats.sealed);
  EXPECT_EQ(stats.frames_valid, 1u);
  EXPECT_EQ(stats.frames_damaged, 1u);
  EXPECT_EQ(stats.bytes_discarded, g.bytes.size() - g.frame_ends[0]);
  EXPECT_EQ(stats.extents_recovered, 1u);
  ExpectRecordsEqual(rows, first_extent);

  const ColumnarTraceSet store = ColumnarTraceSet::FromFile(path);
  EXPECT_EQ(store.record_count(), first_extent.size());
  EXPECT_EQ(store.read_stats().frames_valid, 1u);
  EXPECT_EQ(store.read_stats().frames_damaged, 1u);
  EXPECT_EQ(store.read_stats().bytes_discarded, g.bytes.size() - g.frame_ends[0]);
  ExpectRecordsEqual(store.ToRows().records, first_extent);
  std::remove(path.c_str());
  std::remove(build_path.c_str());
}

TEST(ExtentSalvage, MissingAndEmptyFiles) {
  ExtentReadStats stats;
  std::vector<TraceRecord> rows =
      RecoveredRows(ScratchPath("extent_never_written.ntx"), &stats);
  EXPECT_FALSE(stats.file_opened);
  EXPECT_FALSE(stats.header_valid);
  EXPECT_TRUE(rows.empty());

  const std::string path = ScratchPath("extent_empty.ntx");
  WriteFileBytes(path, {});
  rows = RecoveredRows(path, &stats);
  EXPECT_TRUE(stats.file_opened);
  EXPECT_FALSE(stats.header_valid);
  EXPECT_TRUE(rows.empty());

  // FromFile on a damaged path is the longest intact prefix, never a throw.
  const ColumnarTraceSet store = ColumnarTraceSet::FromFile(path);
  EXPECT_EQ(store.record_count(), 0u);
  std::remove(path.c_str());
}

// Writes `rows` to a store at `path` in extents of `extent_records`.
void WriteStore(const std::string& path, const std::vector<TraceRecord>& rows,
                uint32_t extent_records, bool compress = true) {
  ExtentStoreWriter writer;
  ASSERT_TRUE(writer.Open(path, extent_records, 0xBEEF, compress));
  ASSERT_TRUE(writer.AppendRecords(rows.data(), rows.size()));
  ASSERT_TRUE(writer.Seal());
  writer.Close();
}

// The kExtent payloads of the intact frame prefix of `bytes`, in file order.
std::vector<std::vector<uint8_t>> ExtentPayloads(const std::vector<uint8_t>& bytes) {
  std::vector<std::vector<uint8_t>> payloads;
  size_t pos = kExtentStoreHeaderSize;
  SpoolFrameView view;
  size_t consumed = 0;
  while (pos < bytes.size() &&
         SpoolParseFrame(bytes.data() + pos, bytes.size() - pos, &view, &consumed) ==
             SpoolFrameStatus::kOk) {
    if (static_cast<ExtentFrameType>(view.type) == ExtentFrameType::kExtent) {
      payloads.emplace_back(view.payload, view.payload + view.payload_size);
    }
    pos += consumed;
  }
  return payloads;
}

std::vector<TraceRecord> Concat(const std::vector<std::vector<TraceRecord>>& runs) {
  std::vector<TraceRecord> all;
  for (const std::vector<TraceRecord>& run : runs) {
    all.insert(all.end(), run.begin(), run.end());
  }
  return all;
}

TEST(ExtentMerge, CopiesInputsEndToEndVerbatim) {
  // K runs of random length over the same ticks, in small extents: the
  // output is the runs end to end in input order, not interleaved by time,
  // and its extent frames are the inputs' frames, byte for byte.
  Rng rng(0xC0FFEE);
  constexpr int kRuns = 5;
  std::vector<std::vector<TraceRecord>> runs(kRuns);
  std::vector<std::string> inputs;
  std::vector<std::vector<uint8_t>> input_payloads;
  for (int k = 0; k < kRuns; ++k) {
    const size_t n = 50 + static_cast<size_t>(rng.UniformInt(0, 300));
    runs[k] = MakeRecords(static_cast<uint32_t>(k), 0, n);
    inputs.push_back(ScratchPath("extent_merge_in_" + std::to_string(k) + ".ntx"));
    WriteStore(inputs.back(), runs[k], 16);
    for (std::vector<uint8_t>& p : ExtentPayloads(ReadFileBytes(inputs.back()))) {
      input_payloads.push_back(std::move(p));
    }
  }

  const std::string out_path = ScratchPath("extent_merge_out.ntx");
  ExtentStoreWriter out;
  ASSERT_TRUE(out.Open(out_path, 16, 0xBEEF));
  const ExtentMergeResult merged = MergeExtentStreams(inputs, &out);
  ASSERT_TRUE(out.Seal());
  out.Close();

  const std::vector<TraceRecord> expected = Concat(runs);
  EXPECT_EQ(merged.records, expected.size());
  EXPECT_EQ(merged.inputs_damaged, 0u);
  EXPECT_EQ(merged.records_lost_known, 0u);
  EXPECT_EQ(out.records_written(), expected.size());
  EXPECT_EQ(out.extents_written(), input_payloads.size());
  EXPECT_TRUE(ExtentPayloads(ReadFileBytes(out_path)) == input_payloads);

  ExtentReadStats stats;
  const std::vector<TraceRecord> rows = RecoveredRows(out_path, &stats);
  EXPECT_TRUE(stats.sealed);
  EXPECT_EQ(stats.seal_records, expected.size());
  ExpectRecordsEqual(rows, expected);

  for (const std::string& path : inputs) {
    std::remove(path.c_str());
  }
  std::remove(out_path.c_str());
}

TEST(ExtentMerge, MixedCompressionInputsMergeExactly) {
  // One compressed input, one uncompressed, into a compressing writer: the
  // merge copies frames, so the uncompressed input's extents stay raw and
  // both inputs' records come back exactly, in input order.
  const std::vector<TraceRecord> a = MakeRecords(1, 0, 60);
  const std::vector<TraceRecord> b = MakeRecords(2, 0, 60);
  const std::string a_path = ScratchPath("extent_merge_mixed_a.ntx");
  const std::string b_path = ScratchPath("extent_merge_mixed_b.ntx");
  WriteStore(a_path, a, 16, /*compress=*/true);
  WriteStore(b_path, b, 16, /*compress=*/false);
  std::vector<std::vector<uint8_t>> input_payloads = ExtentPayloads(ReadFileBytes(a_path));
  for (std::vector<uint8_t>& p : ExtentPayloads(ReadFileBytes(b_path))) {
    input_payloads.push_back(std::move(p));
  }

  const std::string out_path = ScratchPath("extent_merge_mixed_out.ntx");
  ExtentStoreWriter out;
  ASSERT_TRUE(out.Open(out_path, 16, 0xBEEF));
  const ExtentMergeResult merged = MergeExtentStreams({a_path, b_path}, &out);
  ASSERT_TRUE(out.Seal());
  out.Close();

  const std::vector<TraceRecord> expected = Concat({a, b});
  EXPECT_EQ(merged.records, expected.size());
  EXPECT_EQ(merged.inputs_damaged, 0u);
  EXPECT_TRUE(ExtentPayloads(ReadFileBytes(out_path)) == input_payloads);
  const ColumnarTraceSet store = ColumnarTraceSet::FromFile(out_path);
  EXPECT_EQ(store.record_count(), expected.size());
  ExpectRecordsEqual(store.ToRows().records, expected);

  std::remove(a_path.c_str());
  std::remove(b_path.c_str());
  std::remove(out_path.c_str());
}

TEST(ExtentMerge, DamagedInputDegradesToItsPrefix) {
  // Four inputs of 40 records over the same ticks, in extents of 8. The
  // second fails its third frame's CRC under an intact header, so that
  // frame's 8 records are known lost; the third carries a CRC-valid second
  // frame whose first column length runs past the payload, which the
  // prescan check refuses. Each damaged input gives its intact prefix, and
  // the next input follows.
  const std::vector<std::vector<TraceRecord>> runs = {
      MakeRecords(1, 0, 40), MakeRecords(2, 0, 40), MakeRecords(3, 0, 40),
      MakeRecords(4, 0, 40)};
  std::vector<std::string> inputs;
  for (size_t k = 0; k < runs.size(); ++k) {
    inputs.push_back(ScratchPath("extent_merge_damaged_" + std::to_string(k) + ".ntx"));
    WriteStore(inputs.back(), runs[k], 8);
  }
  // The offset of frame `index` in a store's bytes.
  const auto frame_offset = [](const std::vector<uint8_t>& bytes, int index) {
    size_t pos = kExtentStoreHeaderSize;
    for (int i = 0; i < index; ++i) {
      SpoolFrameView view;
      size_t consumed = 0;
      EXPECT_EQ(SpoolParseFrame(bytes.data() + pos, bytes.size() - pos, &view, &consumed),
                SpoolFrameStatus::kOk);
      pos += consumed;
    }
    return pos;
  };
  std::vector<uint8_t> crc_damaged = ReadFileBytes(inputs[1]);
  crc_damaged[frame_offset(crc_damaged, 2) + kSpoolFrameHeaderSize + 48] ^= 0x01;
  WriteFileBytes(inputs[1], crc_damaged);

  // Rewrite the third input frame by frame through the container writer,
  // so every CRC is valid over the bad length.
  const std::vector<uint8_t> original = ReadFileBytes(inputs[2]);
  {
    Counter& bytes = MetricsRegistry::Global().GetCounter(
        "ntrace_extent_test_merge_reject_bytes_total", "Test bytes");
    FrameFileWriter file;
    ASSERT_TRUE(file.Open(inputs[2], {kExtentStoreMagic, kExtentStoreVersion, 8, 0xBEEF}, &bytes));
    size_t pos = kExtentStoreHeaderSize;
    SpoolFrameView view;
    size_t consumed = 0;
    for (int i = 0; pos < original.size(); ++i, pos += consumed) {
      ASSERT_EQ(SpoolParseFrame(original.data() + pos, original.size() - pos, &view, &consumed),
                SpoolFrameStatus::kOk);
      std::vector<uint8_t> payload(view.payload, view.payload + view.payload_size);
      if (i == 1) {
        const size_t length_at = sizeof(uint32_t) + 4 * sizeof(int64_t) + 1;
        const uint32_t past_end = static_cast<uint32_t>(payload.size());
        std::memcpy(payload.data() + length_at, &past_end, sizeof(past_end));
      }
      ASSERT_TRUE(file.Append(view.type, payload.data(), payload.size(), nullptr, 0, false));
    }
    file.Close();
  }

  const std::string out_path = ScratchPath("extent_merge_degraded.ntx");
  ExtentStoreWriter out;
  ASSERT_TRUE(out.Open(out_path, 8, 0xBEEF));
  const ExtentMergeResult merged = MergeExtentStreams(inputs, &out);
  ASSERT_TRUE(out.Seal());
  out.Close();

  const std::vector<TraceRecord> expected =
      Concat({runs[0], std::vector<TraceRecord>(runs[1].begin(), runs[1].begin() + 16),
              std::vector<TraceRecord>(runs[2].begin(), runs[2].begin() + 8), runs[3]});
  EXPECT_EQ(merged.records, expected.size());
  EXPECT_EQ(merged.inputs_damaged, 2u);
  EXPECT_EQ(merged.records_lost_known, 8u);

  ExtentReadStats stats;
  ExpectRecordsEqual(RecoveredRows(out_path, &stats), expected);
  EXPECT_TRUE(stats.sealed);
  EXPECT_EQ(stats.frames_damaged, 0u);

  for (const std::string& path : inputs) {
    std::remove(path.c_str());
  }
  std::remove(out_path.c_str());
}

// The merged store a fleet hands out is the file on disk, as a reader sees
// it: tables, record count and every read-stats field, with one input
// ending damaged (the store itself stays whole) and with a write that
// cannot happen at all.
TEST(ExtentMerge, WriteMergedEqualsItsStoreReadBack) {
  const std::vector<std::string> inputs = {ScratchPath("extent_write_merged_a.ntx"),
                                           ScratchPath("extent_write_merged_b.ntx")};
  WriteStore(inputs[0], MakeRecords(1, 0, 50), 16);
  WriteStore(inputs[1], MakeRecords(2, 0, 50), 16);
  std::vector<uint8_t> damaged = ReadFileBytes(inputs[1]);
  damaged.resize(damaged.size() / 2);
  WriteFileBytes(inputs[1], damaged);
  const std::vector<NameRecord> names = {
      {0x10, 1, "C:\\a.txt"}, {0x11, 1, "C:\\b.txt"}, {0x20, 2, "C:\\a.txt"}};
  const std::vector<std::pair<uint32_t, std::string>> procs = {{7, "app.exe"}, {3, "b.exe"}};

  const std::string path = ScratchPath("extent_write_merged_out.ntx");
  const ColumnarTraceSet merged =
      ColumnarTraceSet::WriteMerged(path, inputs, names, procs, 16, 0xBEEF);
  EXPECT_TRUE(merged.read_stats().sealed);
  EXPECT_GT(merged.record_count(), 50u);
  EXPECT_LT(merged.record_count(), 100u);
  EXPECT_EQ(merged.read_stats().seal_dict_entries, 4u);  // Two paths, two images.
  ExpectSameStore(merged, ColumnarTraceSet::FromFile(path));

  const std::string nowhere = ScratchPath("extent_write_merged_missing") + "/merged.ntx";
  const ColumnarTraceSet unwritten =
      ColumnarTraceSet::WriteMerged(nowhere, inputs, names, procs, 16, 0xBEEF);
  EXPECT_FALSE(unwritten.read_stats().file_opened);
  EXPECT_TRUE(unwritten.names.empty());
  ExpectSameStore(unwritten, ColumnarTraceSet::FromFile(nowhere));

  for (const std::string& p : inputs) {
    std::remove(p.c_str());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ntrace
