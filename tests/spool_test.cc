// Trace-spool format and salvage contract (DESIGN.md §10):
//  - lossless roundtrip of every frame type through a sealed segment,
//    replayed into a CollectionServer;
//  - names are batched: one kNames frame ahead of the next frame, written
//    at Close, dropped at Abandon, split once a batch fills;
//  - the on-disk bytes are pinned (golden layout + a byte-for-byte
//    reconstruction from the documented format);
//  - salvage is exactly the longest valid frame prefix: a truncation sweep
//    over every byte length and a seeded bit-flip fuzz must never crash the
//    reader and never yield anything but a prefix of the original frames.

#include "src/trace/spool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/crc32c.h"
#include "src/base/rng.h"
#include "src/metrics/metrics.h"
#include "src/trace/collection_server.h"
#include "tests/test_util.h"

namespace ntrace {
namespace {

TraceRecord MakeRecord(uint32_t system_id, uint64_t i) {
  TraceRecord r;
  r.file_object = 0x1000 + i;
  r.start_ticks = static_cast<int64_t>(100 * i);
  r.complete_ticks = static_cast<int64_t>(100 * i + 7);
  r.offset = 512 * i;
  r.file_size = 1 << 20;
  r.length = 4096;
  r.returned = 4096;
  r.process_id = 42;
  r.event = static_cast<uint16_t>(TraceEvent::kIrpRead);
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

NameRecord MakeName(uint32_t system_id, uint64_t file_object, const std::string& path) {
  NameRecord name;
  name.file_object = file_object;
  name.system_id = system_id;
  name.path = path;
  return name;
}

// One frame of a segment file, found by walking the frame headers.
struct WalkedFrame {
  uint16_t type = 0;
  size_t end = 0;  // File offset just past the frame.
  std::vector<uint8_t> payload;
};

// Walks a segment's frames from the file header up to the first frame that
// does not parse. Append calls do not mark frame ends (a name is written
// with the frame after it), so tests find them here.
std::vector<WalkedFrame> WalkFrames(const std::vector<uint8_t>& bytes) {
  std::vector<WalkedFrame> frames;
  size_t pos = kSpoolFileHeaderSize;
  SpoolFrameView view;
  size_t consumed = 0;
  while (pos < bytes.size() &&
         SpoolParseFrame(bytes.data() + pos, bytes.size() - pos, &view, &consumed) ==
             SpoolFrameStatus::kOk) {
    pos += consumed;
    frames.push_back({view.type, pos, {view.payload, view.payload + view.payload_size}});
  }
  return frames;
}

uint16_t T(SpoolFrameType type) { return static_cast<uint16_t>(type); }

// The head of a kShipment payload.
ShipmentHeader HeadOf(const WalkedFrame& frame) {
  const uint8_t* p = frame.payload.data();
  const size_t n = frame.payload.size();
  size_t pos = 0;
  ShipmentHeader h;
  EXPECT_TRUE(GetScalar(p, n, &pos, &h.system_id) && GetScalar(p, n, &pos, &h.sequence) &&
              GetScalar(p, n, &pos, &h.attempt) && GetScalar(p, n, &pos, &h.record_count));
  return h;
}

// The u32 head of a kNames payload.
uint32_t NameCountOf(const WalkedFrame& frame) {
  size_t pos = 0;
  uint32_t count = 0;
  EXPECT_TRUE(GetScalar(frame.payload.data(), frame.payload.size(), &pos, &count));
  return count;
}

TEST(Spool, RoundTripSealedSegment) {
  const std::string path = ScratchPath("spool_roundtrip.ntspool");
  SpoolWriter writer;
  ASSERT_TRUE(writer.Open(path, 7, 0xFEEDFACE12345678ULL));

  ShipmentHeader h1{7, 1, 1, 3};
  ShipmentHeader h2{7, 2, 2, 2};
  ASSERT_TRUE(writer.AppendShipment(h1, MakeRecords(7, 0, 3)));
  ASSERT_TRUE(writer.AppendName(MakeName(7, 0x1000, "C:\\temp\\build.log")));
  ASSERT_TRUE(writer.AppendShipment(h2, MakeRecords(7, 3, 2)));
  const std::string blob = "opaque-completion-blob";
  ASSERT_TRUE(writer.AppendCompletion(blob.data(), blob.size()));
  ASSERT_TRUE(writer.Seal(5));
  writer.Close();

  CollectionServer server;
  const SpoolReadResult r = SpoolReader::Read(path, &server);
  EXPECT_TRUE(r.file_opened);
  ASSERT_TRUE(r.header_valid);
  EXPECT_EQ(r.version, kSpoolVersion);
  EXPECT_EQ(r.system_id, 7u);
  EXPECT_EQ(r.config_fingerprint, 0xFEEDFACE12345678ULL);
  EXPECT_TRUE(r.Matches(7, 0xFEEDFACE12345678ULL));
  EXPECT_FALSE(r.Matches(8, 0xFEEDFACE12345678ULL));
  EXPECT_FALSE(r.Matches(7, 0xFEEDFACE12345679ULL));
  EXPECT_TRUE(r.sealed);
  EXPECT_EQ(r.seal.records_delivered, 5u);
  EXPECT_EQ(r.seal.records_collected, 5u);
  EXPECT_EQ(r.seal.name_count, 1u);
  EXPECT_EQ(r.seal.frame_count, 4u);
  EXPECT_EQ(r.frames_damaged, 0u);
  EXPECT_EQ(r.bytes_discarded, 0u);
  EXPECT_EQ(r.records_recovered, 5u);

  // The replay is the two shipments, byte for byte and in order, plus the
  // name, with the stream bookkeeping of a live delivery.
  const std::vector<TraceRecord> expected = MakeRecords(7, 0, 5);
  ASSERT_EQ(server.set().records.size(), 5u);
  EXPECT_EQ(std::memcmp(server.set().records.data(), expected.data(),
                        expected.size() * sizeof(TraceRecord)),
            0);
  const CollectionServer::StreamState* stream = server.StreamOf(7);
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->shipments_received, 2u);
  EXPECT_TRUE(stream->Received(1));
  EXPECT_TRUE(stream->Received(2));
  EXPECT_EQ(stream->records_collected, 5u);
  ASSERT_EQ(server.set().names.size(), 1u);
  EXPECT_EQ(server.set().names[0].path, "C:\\temp\\build.log");
  EXPECT_EQ(server.set().names[0].file_object, 0x1000u);
  EXPECT_EQ(std::string(r.completion.begin(), r.completion.end()), blob);

  // The frames on disk, in order: the name rides ahead of the shipment
  // after it, and each shipment head keeps its fields.
  const std::vector<WalkedFrame> frames = WalkFrames(ReadFileBytes(path));
  ASSERT_EQ(frames.size(), 5u);
  EXPECT_EQ(frames[0].type, T(SpoolFrameType::kShipment));
  EXPECT_EQ(frames[1].type, T(SpoolFrameType::kNames));
  EXPECT_EQ(frames[2].type, T(SpoolFrameType::kShipment));
  EXPECT_EQ(frames[3].type, T(SpoolFrameType::kCompletion));
  EXPECT_EQ(frames[4].type, T(SpoolFrameType::kSeal));
  const ShipmentHeader first = HeadOf(frames[0]);
  EXPECT_EQ(first.sequence, 1u);
  EXPECT_EQ(first.attempt, 1u);
  EXPECT_EQ(first.record_count, 3u);
  const ShipmentHeader second = HeadOf(frames[2]);
  EXPECT_EQ(second.sequence, 2u);
  EXPECT_EQ(second.attempt, 2u);
  EXPECT_EQ(second.record_count, 2u);
  std::remove(path.c_str());
}

// A DeliverRecords call reaches the spool as a shipment with sequence 0,
// which a replay appends without stream bookkeeping.
TEST(Spool, UnsequencedShipmentReplaysWithoutStreamBookkeeping) {
  const std::string path = ScratchPath("spool_unsequenced.ntspool");
  SpoolWriter writer;
  ASSERT_TRUE(writer.Open(path, 7, 0x77));
  ShipmentHeader unsequenced;
  unsequenced.record_count = 2;
  ASSERT_TRUE(writer.AppendShipment(unsequenced, MakeRecords(7, 0, 2)));
  ASSERT_TRUE(writer.Seal(2));
  writer.Close();

  CollectionServer server;
  const SpoolReadResult r = SpoolReader::Read(path, &server);
  EXPECT_TRUE(r.sealed);
  EXPECT_EQ(r.records_recovered, 2u);
  EXPECT_EQ(server.set().records.size(), 2u);
  EXPECT_EQ(server.deliveries(), 1u);
  EXPECT_TRUE(server.streams().empty());
  std::remove(path.c_str());
}

TEST(SpoolNames, NamesRideOneFrameAheadOfTheNextShipment) {
  const std::string path = ScratchPath("spool_names_batch.ntspool");
  constexpr uint32_t kNames = 9;
  SpoolWriter writer;
  ASSERT_TRUE(writer.Open(path, 3, 0x33));
  for (uint32_t i = 0; i < kNames; ++i) {
    ASSERT_TRUE(writer.AppendName(MakeName(3, 0x100 + i, "C:\\n" + std::to_string(i))));
  }
  ASSERT_TRUE(writer.AppendShipment({3, 1, 1, 4}, MakeRecords(3, 0, 4)));
  ASSERT_TRUE(writer.Seal(4));
  writer.Close();

  const std::vector<WalkedFrame> frames = WalkFrames(ReadFileBytes(path));
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, T(SpoolFrameType::kNames));
  EXPECT_EQ(frames[1].type, T(SpoolFrameType::kShipment));
  EXPECT_EQ(frames[2].type, T(SpoolFrameType::kSeal));
  EXPECT_EQ(NameCountOf(frames[0]), kNames);

  CollectionServer server;
  const SpoolReadResult r = SpoolReader::Read(path, &server);
  EXPECT_TRUE(r.sealed);
  EXPECT_EQ(r.seal.name_count, kNames);
  EXPECT_EQ(r.seal.frame_count, 2u);
  ASSERT_EQ(server.set().names.size(), kNames);
  for (uint32_t i = 0; i < kNames; ++i) {
    EXPECT_EQ(server.set().names[i].file_object, 0x100u + i);
    EXPECT_EQ(server.set().names[i].path, "C:\\n" + std::to_string(i));
  }
  EXPECT_EQ(server.set().records.size(), 4u);
  std::remove(path.c_str());
}

// Close writes the staged names; Abandon (a process death) drops them with
// the rest of the unflushed tail.
TEST(SpoolNames, StagedNamesReachTheFileAtCloseNotAtAbandon) {
  const std::string closed = ScratchPath("spool_names_close.ntspool");
  const std::string abandoned = ScratchPath("spool_names_abandon.ntspool");
  for (const std::string& path : {closed, abandoned}) {
    SpoolWriter writer;
    ASSERT_TRUE(writer.Open(path, 5, 0x55));
    writer.set_flush_threshold(0);  // The shipment is on disk at once.
    ASSERT_TRUE(writer.AppendShipment({5, 1, 1, 2}, MakeRecords(5, 0, 2)));
    ASSERT_TRUE(writer.AppendName(MakeName(5, 1, "C:\\a")));
    ASSERT_TRUE(writer.AppendName(MakeName(5, 2, "C:\\b")));
    if (path == closed) {
      writer.Close();
    } else {
      writer.Abandon();
    }
  }

  CollectionServer after_close;
  const SpoolReadResult c = SpoolReader::Read(closed, &after_close);
  EXPECT_EQ(c.frames_valid, 2u);
  EXPECT_EQ(c.frames_damaged, 0u);
  ASSERT_EQ(after_close.set().names.size(), 2u);
  EXPECT_EQ(after_close.set().names[0].path, "C:\\a");
  EXPECT_EQ(after_close.set().names[1].path, "C:\\b");
  EXPECT_EQ(after_close.set().records.size(), 2u);

  CollectionServer after_abandon;
  const SpoolReadResult a = SpoolReader::Read(abandoned, &after_abandon);
  EXPECT_EQ(a.frames_valid, 1u);
  EXPECT_EQ(a.frames_damaged, 0u);
  EXPECT_TRUE(after_abandon.set().names.empty());
  EXPECT_EQ(after_abandon.set().records.size(), 2u);
  std::remove(closed.c_str());
  std::remove(abandoned.c_str());
}

TEST(SpoolNames, BatchPastItsBoundSplitsIntoFramesThatReplayTheSameNames) {
  const std::string path = ScratchPath("spool_names_split.ntspool");
  constexpr uint32_t kNames = 1500;  // ~220 bytes each: several full batches.
  std::vector<NameRecord> names;
  for (uint32_t i = 0; i < kNames; ++i) {
    const std::string path(200, static_cast<char>('a' + i % 26));
    names.push_back(MakeName(6, 0x5000 + i, path + std::to_string(i)));
  }
  SpoolWriter writer;
  ASSERT_TRUE(writer.Open(path, 6, 0x66));
  for (const NameRecord& n : names) {
    ASSERT_TRUE(writer.AppendName(n));
  }
  ASSERT_TRUE(writer.Seal(0));
  writer.Close();

  const std::vector<WalkedFrame> frames = WalkFrames(ReadFileBytes(path));
  ASSERT_GE(frames.size(), 5u);  // At least 4 batches, then the seal.
  uint64_t staged = 0;
  for (size_t i = 0; i + 1 < frames.size(); ++i) {
    EXPECT_EQ(frames[i].type, T(SpoolFrameType::kNames)) << "frame " << i;
    // A batch is written as soon as it reaches the bound, so it passes the
    // bound by less than one name.
    EXPECT_LT(frames[i].payload.size(), kSpoolNameBatchBytes + 256) << "frame " << i;
    staged += NameCountOf(frames[i]);
  }
  EXPECT_EQ(frames.back().type, T(SpoolFrameType::kSeal));
  EXPECT_EQ(staged, kNames);

  CollectionServer server;
  const SpoolReadResult r = SpoolReader::Read(path, &server);
  EXPECT_TRUE(r.sealed);
  EXPECT_EQ(r.seal.name_count, kNames);
  ASSERT_EQ(server.set().names.size(), kNames);
  for (uint32_t i = 0; i < kNames; ++i) {
    EXPECT_EQ(server.set().names[i].file_object, names[i].file_object) << i;
    EXPECT_EQ(server.set().names[i].path, names[i].path) << i;
  }
  std::remove(path.c_str());
}

TEST(Spool, ManifestRoundTripAndAppend) {
  const std::string path = ScratchPath("spool_manifest.ntspool");
  std::remove(path.c_str());
  {
    SpoolWriter writer;
    ASSERT_TRUE(writer.OpenAppend(path, 0, 0xABCD));
    SpoolManifestEntry e;
    e.system_id = 3;
    e.records_collected = 1234;
    e.segment_file = "sys_3.ntspool";
    ASSERT_TRUE(writer.AppendManifestEntry(e));
  }
  {
    // Same fingerprint: entries accumulate across invocations.
    SpoolWriter writer;
    ASSERT_TRUE(writer.OpenAppend(path, 0, 0xABCD));
    SpoolManifestEntry e;
    e.system_id = 5;
    e.records_collected = 99;
    e.segment_file = "sys_5.ntspool";
    ASSERT_TRUE(writer.AppendManifestEntry(e));
  }
  SpoolReadResult r = SpoolReader::Read(path);
  ASSERT_TRUE(r.header_valid);
  ASSERT_EQ(r.manifest.size(), 2u);
  EXPECT_EQ(r.manifest[0].system_id, 3u);
  EXPECT_EQ(r.manifest[0].records_collected, 1234u);
  EXPECT_EQ(r.manifest[0].segment_file, "sys_3.ntspool");
  EXPECT_EQ(r.manifest[1].system_id, 5u);

  {
    // A different fingerprint must start the manifest over, never mix runs.
    SpoolWriter writer;
    ASSERT_TRUE(writer.OpenAppend(path, 0, 0xD00D));
  }
  r = SpoolReader::Read(path);
  ASSERT_TRUE(r.header_valid);
  EXPECT_EQ(r.config_fingerprint, 0xD00Du);
  EXPECT_TRUE(r.manifest.empty());
  std::remove(path.c_str());
}

// The bytes counter covers every byte the segment holds: the file header
// and every frame, seal included.
TEST(Spool, BytesCounterCountsEveryByteOfASealedSegment) {
  const std::string path = ScratchPath("spool_counter.ntspool");
  auto counted = [] {
    return MetricsRegistry::Global().Snapshot().CounterValue("ntrace_spool_bytes_written_total");
  };
  const uint64_t before = counted();
  SpoolWriter writer;
  ASSERT_TRUE(writer.Open(path, 5, 0x55));
  ShipmentHeader h{5, 1, 1, 100};
  ASSERT_TRUE(writer.AppendShipment(h, MakeRecords(5, 0, 100)));
  ASSERT_TRUE(writer.Seal(100));
  writer.Close();
  const uint64_t file_size = ReadFileBytes(path).size();
  EXPECT_EQ(writer.bytes_written(), file_size);
  EXPECT_EQ(counted() - before, file_size);
  std::remove(path.c_str());
}

// Pins the on-disk format (spool version 2 on the container's v1 frames):
// the file header bytes are pinned literally, and the whole segment must
// equal a byte-for-byte reconstruction from the documented layout (with
// CRC-32C itself pinned by crc32c_test's RFC vectors). If this test breaks,
// the format changed -- bump kSpoolVersion.
TEST(Spool, GoldenV1Format) {
  const std::string path = ScratchPath("spool_golden.ntspool");
  SpoolWriter writer;
  ASSERT_TRUE(writer.Open(path, 0x0A0B0C0D, 0x1122334455667788ULL));
  ShipmentHeader h{0x0A0B0C0D, 9, 1, 2};
  ASSERT_TRUE(writer.AppendShipment(h, MakeRecords(0x0A0B0C0D, 0, 2)));
  const NameRecord name = MakeName(0x0A0B0C0D, 0x0102030405060708ULL, "C:\\x.y");
  ASSERT_TRUE(writer.AppendName(name));
  ASSERT_TRUE(writer.Seal(2));
  writer.Close();
  const std::vector<uint8_t> actual = ReadFileBytes(path);

  // File header: magic "NTSPOOL1", version 2, system id, fingerprint (LE).
  const uint8_t golden_header[kSpoolFileHeaderSize] = {
      'N', 'T', 'S', 'P', 'O', 'O', 'L', '1',          // u64 magic.
      0x02, 0x00, 0x00, 0x00,                          // u32 version = 2.
      0x0D, 0x0C, 0x0B, 0x0A,                          // u32 system_id.
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // u64 fingerprint.
  };
  ASSERT_GE(actual.size(), kSpoolFileHeaderSize);
  EXPECT_EQ(std::memcmp(actual.data(), golden_header, sizeof(golden_header)), 0);

  // Reconstruct the full segment from the documented layout.
  std::vector<uint8_t> expected(golden_header, golden_header + sizeof(golden_header));
  auto put32 = [&expected](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      expected.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  auto put16 = [&expected](uint16_t v) {
    expected.push_back(static_cast<uint8_t>(v));
    expected.push_back(static_cast<uint8_t>(v >> 8));
  };
  auto put_frame = [&](uint16_t type, const std::vector<uint8_t>& payload) {
    const size_t at = expected.size();
    put32(kSpoolFrameMagic);
    put16(type);
    put16(0);
    put32(static_cast<uint32_t>(payload.size()));
    put32(Crc32c(payload.data(), payload.size()));
    put32(Crc32c(expected.data() + at, kSpoolFrameHeaderSize - 4));
    expected.insert(expected.end(), payload.begin(), payload.end());
  };
  {
    std::vector<uint8_t> payload;
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
    p32(h.system_id);
    p64(h.sequence);
    p32(h.attempt);
    p64(h.record_count);
    const std::vector<TraceRecord> records = MakeRecords(0x0A0B0C0D, 0, 2);
    const size_t at = payload.size();
    payload.resize(at + 2 * sizeof(TraceRecord));
    std::memcpy(payload.data() + at, records.data(), 2 * sizeof(TraceRecord));
    put_frame(static_cast<uint16_t>(SpoolFrameType::kShipment), payload);
  }
  {
    // The staged name, written ahead of the seal: u32 count, then u64
    // file_object | u32 system_id | u32 path length | path bytes.
    const std::vector<uint8_t> payload = {
        0x01, 0x00, 0x00, 0x00,                          // u32 count = 1.
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64 file_object.
        0x0D, 0x0C, 0x0B, 0x0A,                          // u32 system_id.
        0x06, 0x00, 0x00, 0x00,                          // u32 path length.
        'C', ':', '\\', 'x', '.', 'y',                   // path bytes.
    };
    put_frame(static_cast<uint16_t>(SpoolFrameType::kNames), payload);
  }
  {
    std::vector<uint8_t> payload;
    auto p64 = [&payload](uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        payload.push_back(static_cast<uint8_t>(v >> (8 * i)));
      }
    };
    p64(2);  // records_delivered.
    p64(2);  // records_collected.
    p64(1);  // name_count.
    p64(2);  // frame_count before the seal.
    put_frame(static_cast<uint16_t>(SpoolFrameType::kSeal), payload);
  }
  EXPECT_EQ(actual, expected);
  std::remove(path.c_str());
}

// Builds a multi-frame segment and returns (bytes, per-frame end offsets,
// cumulative records at each frame end) for prefix-property checks, plus
// the deliveries it holds.
struct GoldenSegment {
  std::vector<uint8_t> bytes;
  std::vector<size_t> frame_ends;
  std::vector<uint64_t> records_at;
  std::vector<TraceRecord> records;  // Every shipment's, concatenated.
  std::vector<size_t> shipment_ends;  // Record counts at shipment boundaries.
  std::vector<NameRecord> names;
};

GoldenSegment BuildSegment(const std::string& path) {
  GoldenSegment g;
  SpoolWriter writer;
  EXPECT_TRUE(writer.Open(path, 11, 0xBEEF));
  g.shipment_ends.push_back(0);
  for (uint64_t sequence = 1; sequence <= 3; ++sequence) {
    const size_t n = 2 + static_cast<size_t>(sequence);
    const std::vector<TraceRecord> batch = MakeRecords(11, g.records.size(), n);
    ShipmentHeader h{11, sequence, 1, n};
    EXPECT_TRUE(writer.AppendShipment(h, batch));
    g.records.insert(g.records.end(), batch.begin(), batch.end());
    g.shipment_ends.push_back(g.records.size());
    g.names.push_back(MakeName(11, 0x2000 + sequence, "C:\\users\\seq" + std::to_string(sequence)));
    EXPECT_TRUE(writer.AppendName(g.names.back()));
  }
  EXPECT_TRUE(writer.Seal(g.records.size()));
  writer.Close();
  g.bytes = ReadFileBytes(path);

  // Each name is written with the frame after it: shipment, names, ...,
  // names, seal.
  const std::vector<WalkedFrame> frames = WalkFrames(g.bytes);
  EXPECT_EQ(frames.size(), 7u);
  size_t shipments = 0;
  for (const WalkedFrame& f : frames) {
    shipments += f.type == T(SpoolFrameType::kShipment) ? 1 : 0;
    g.frame_ends.push_back(f.end);
    g.records_at.push_back(g.shipment_ends[shipments]);
  }
  EXPECT_EQ(frames.back().type, T(SpoolFrameType::kSeal));
  EXPECT_EQ(g.bytes.size(), g.frame_ends.back());
  return g;
}

TEST(SpoolSalvage, TruncationSweepRecoversExactPrefix) {
  const std::string build_path = ScratchPath("spool_sweep_src.ntspool");
  const GoldenSegment g = BuildSegment(build_path);
  const std::string path = ScratchPath("spool_sweep.ntspool");

  for (size_t len = 0; len <= g.bytes.size(); ++len) {
    WriteFileBytes(path, std::vector<uint8_t>(g.bytes.begin(), g.bytes.begin() + len));
    const SpoolReadResult r = SpoolReader::Read(path);
    if (len < kSpoolFileHeaderSize) {
      EXPECT_FALSE(r.header_valid) << "len=" << len;
      EXPECT_EQ(r.records_recovered, 0u) << "len=" << len;
      continue;
    }
    ASSERT_TRUE(r.header_valid) << "len=" << len;
    // The salvage must be exactly the frames wholly inside the prefix.
    size_t whole_frames = 0;
    uint64_t expected_records = 0;
    for (size_t i = 0; i < g.frame_ends.size(); ++i) {
      if (g.frame_ends[i] <= len) {
        whole_frames = i + 1;
        expected_records = g.records_at[i];
      }
    }
    EXPECT_EQ(r.frames_valid, whole_frames) << "len=" << len;
    EXPECT_EQ(r.records_recovered, expected_records) << "len=" << len;
    EXPECT_EQ(r.sealed, len >= g.bytes.size()) << "len=" << len;
    // Anything cut mid-frame is reported damaged, and the byte count adds up.
    const size_t last_end = whole_frames == 0 ? kSpoolFileHeaderSize
                                              : g.frame_ends[whole_frames - 1];
    EXPECT_EQ(r.frames_damaged, len > last_end ? 1u : 0u) << "len=" << len;
    EXPECT_EQ(r.bytes_discarded, len - last_end) << "len=" << len;
  }
  std::remove(path.c_str());
  std::remove(build_path.c_str());
}

TEST(SpoolSalvage, BitFlipFuzzNeverCrashesAndYieldsOnlyPrefixes) {
  const std::string build_path = ScratchPath("spool_fuzz_src.ntspool");
  const GoldenSegment g = BuildSegment(build_path);
  const std::string path = ScratchPath("spool_fuzz.ntspool");
  Rng rng(0x5EED5EED);

  for (int iter = 0; iter < 200; ++iter) {
    std::vector<uint8_t> bytes = g.bytes;
    // 1-3 bit flips anywhere in the file, sometimes plus a truncation.
    const int flips = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < flips; ++i) {
      const size_t bit = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bytes.size() * 8 - 1)));
      bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    if (rng.NextDouble() < 0.25) {
      bytes.resize(static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(bytes.size()))));
    }
    WriteFileBytes(path, bytes);
    CollectionServer server;
    const SpoolReadResult r = SpoolReader::Read(path, &server);  // Must not crash/throw.

    // Whatever survives must be a prefix of the original shipments with
    // byte-identical payloads, ending at a shipment boundary, plus a prefix
    // of the original names -- salvage never invents or reorders data.
    const std::vector<TraceRecord>& records = server.set().records;
    ASSERT_LE(records.size(), g.records.size()) << "iter=" << iter;
    EXPECT_NE(std::find(g.shipment_ends.begin(), g.shipment_ends.end(), records.size()),
              g.shipment_ends.end())
        << "iter=" << iter << " records=" << records.size();
    EXPECT_EQ(records.size(), r.records_recovered) << "iter=" << iter;
    if (!records.empty()) {
      EXPECT_EQ(std::memcmp(records.data(), g.records.data(), records.size() * sizeof(TraceRecord)),
                0)
          << "iter=" << iter;
    }
    const std::vector<NameRecord>& names = server.set().names;
    ASSERT_LE(names.size(), g.names.size()) << "iter=" << iter;
    for (size_t i = 0; i < names.size(); ++i) {
      EXPECT_EQ(names[i].file_object, g.names[i].file_object) << "iter=" << iter << " name=" << i;
      EXPECT_EQ(names[i].path, g.names[i].path) << "iter=" << iter << " name=" << i;
    }
    if (r.header_valid && r.frames_damaged == 0 && bytes.size() == g.bytes.size()) {
      // All flips landed after the seal or in discarded tail bytes -- with a
      // full-size file the only way to stay undamaged is full recovery.
      EXPECT_EQ(r.records_recovered, g.records_at.back()) << "iter=" << iter;
    }
  }
  std::remove(path.c_str());
  std::remove(build_path.c_str());
}

TEST(SpoolSalvage, DamagedPayloadUnderIntactHeaderCountsKnownLoss) {
  const std::string path = ScratchPath("spool_known_loss.ntspool");
  SpoolWriter writer;
  ASSERT_TRUE(writer.Open(path, 4, 0x11));
  ShipmentHeader h1{4, 1, 1, 2};
  ShipmentHeader h2{4, 2, 1, 5};
  ASSERT_TRUE(writer.AppendShipment(h1, MakeRecords(4, 0, 2)));
  const size_t second_frame_at = static_cast<size_t>(writer.bytes_written());
  ASSERT_TRUE(writer.AppendShipment(h2, MakeRecords(4, 2, 5)));
  ASSERT_TRUE(writer.Seal(7));
  writer.Close();

  std::vector<uint8_t> bytes = ReadFileBytes(path);
  // Corrupt one payload byte of the second shipment; its frame header stays
  // intact, so the reader can still report how many records were lost.
  bytes[second_frame_at + kSpoolFrameHeaderSize + 40] ^= 0x01;
  WriteFileBytes(path, bytes);

  CollectionServer server;
  const SpoolReadResult r = SpoolReader::Read(path, &server);
  ASSERT_TRUE(r.header_valid);
  EXPECT_FALSE(r.sealed);
  ASSERT_NE(server.StreamOf(4), nullptr);
  EXPECT_EQ(server.StreamOf(4)->shipments_received, 1u);
  EXPECT_EQ(r.records_recovered, 2u);
  EXPECT_EQ(r.frames_damaged, 1u);
  EXPECT_EQ(r.records_lost_known, 5u);
  std::remove(path.c_str());
}

// A frame whose CRCs pass but whose payload does not decode was written by
// a broken writer: the reader rejects it as damage, keeps the frames before
// it and discards it with everything after it.
TEST(SpoolSalvage, UndecodableShipmentUnderValidCrcsIsRejected) {
  const std::string path = ScratchPath("spool_reject.ntspool");
  const std::vector<TraceRecord> first = MakeRecords(6, 0, 3);
  const std::vector<TraceRecord> second = MakeRecords(6, 3, 2);
  {
    MetricsRegistry& registry = MetricsRegistry::Global();
    Counter& bytes = registry.GetCounter("ntrace_spool_test_reject_bytes_total", "Test bytes");
    FrameFileWriter file;
    ASSERT_TRUE(file.Open(path, {kSpoolMagic, kSpoolVersion, 6, 0x66}, &bytes));
    const auto type = static_cast<uint16_t>(SpoolFrameType::kShipment);
    std::vector<uint8_t> head;
    SpoolEncodeShipmentHead(&head, {6, 1, 1, first.size()});
    const size_t first_bytes = first.size() * sizeof(TraceRecord);
    ASSERT_TRUE(file.Append(type, head.data(), head.size(), first.data(), first_bytes, false));
    // The second shipment claims one record more than its payload holds.
    head.clear();
    SpoolEncodeShipmentHead(&head, {6, 2, 1, second.size() + 1});
    const size_t second_bytes = second.size() * sizeof(TraceRecord);
    ASSERT_TRUE(file.Append(type, head.data(), head.size(), second.data(), second_bytes, false));
    file.Close();
  }
  const std::vector<uint8_t> bytes = ReadFileBytes(path);
  const std::vector<WalkedFrame> frames = WalkFrames(bytes);
  ASSERT_EQ(frames.size(), 2u);  // Both frames parse: their CRCs are valid.

  CollectionServer server;
  const SpoolReadResult r = SpoolReader::Read(path, &server);
  ASSERT_TRUE(r.header_valid);
  EXPECT_FALSE(r.sealed);
  EXPECT_EQ(r.frames_valid, 1u);
  EXPECT_EQ(r.frames_damaged, 1u);
  EXPECT_EQ(r.bytes_discarded, bytes.size() - frames[0].end);
  EXPECT_EQ(r.records_recovered, first.size());
  const std::vector<TraceRecord>& got = server.set().records;
  ASSERT_EQ(got.size(), first.size());
  EXPECT_EQ(std::memcmp(got.data(), first.data(), got.size() * sizeof(TraceRecord)), 0);
  std::remove(path.c_str());
}

TEST(SpoolSalvage, GarbageAfterSealIsDiscarded) {
  const std::string path = ScratchPath("spool_tail.ntspool");
  SpoolWriter writer;
  ASSERT_TRUE(writer.Open(path, 2, 0x22));
  ShipmentHeader h{2, 1, 1, 3};
  ASSERT_TRUE(writer.AppendShipment(h, MakeRecords(2, 0, 3)));
  ASSERT_TRUE(writer.Seal(3));
  writer.Close();
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  for (int i = 0; i < 100; ++i) {
    bytes.push_back(static_cast<uint8_t>(i * 37));
  }
  WriteFileBytes(path, bytes);

  const SpoolReadResult r = SpoolReader::Read(path);
  ASSERT_TRUE(r.header_valid);
  EXPECT_TRUE(r.sealed);
  EXPECT_EQ(r.records_recovered, 3u);
  EXPECT_EQ(r.frames_damaged, 0u);
  EXPECT_EQ(r.bytes_discarded, 100u);
  std::remove(path.c_str());
}

// Regression: a frame whose header CRC is valid and whose declared payload
// length lands exactly on EOF. The boundary case splits three ways -- the
// payload is all there and valid (clean frame), all there but corrupt
// (damaged payload, known loss), or one byte short of the declaration
// (truncated payload, same accounting) -- and an off-by-one in the
// available-bytes comparison would misroute the middle case into the
// untrusted-length path, losing the records_lost_known count.
TEST(SpoolSalvage, PayloadEndingExactlyAtEofClassifiesByCrc) {
  const std::string base = ScratchPath("spool_eof_edge_base.ntspool");
  SpoolWriter writer;
  ASSERT_TRUE(writer.Open(base, 9, 0x33));
  ShipmentHeader h1{9, 1, 1, 2};
  ASSERT_TRUE(writer.AppendShipment(h1, MakeRecords(9, 0, 2)));
  writer.Close();
  const std::vector<uint8_t> prefix = ReadFileBytes(base);
  std::remove(base.c_str());

  // Hand-build a final shipment frame: intact header, payload running
  // exactly to EOF.
  ShipmentHeader h2{9, 2, 1, 4};
  std::vector<uint8_t> payload;
  SpoolEncodeShipmentHead(&payload, h2);
  const std::vector<TraceRecord> records = MakeRecords(9, 2, 4);
  const size_t head_size = payload.size();
  payload.resize(head_size + records.size() * sizeof(TraceRecord));
  std::memcpy(payload.data() + head_size, records.data(),
              records.size() * sizeof(TraceRecord));

  auto with_last_frame = [&](bool corrupt_payload, size_t truncate_by, CollectionServer* server) {
    std::vector<uint8_t> bytes = prefix;
    std::vector<uint8_t> body = payload;
    if (corrupt_payload) {
      body[head_size + 8] ^= 0x40;  // Header CRC untouched, payload CRC wrong.
    }
    uint8_t header[kSpoolFrameHeaderSize];
    SpoolFillFrameHeader(header, static_cast<uint16_t>(SpoolFrameType::kShipment),
                         static_cast<uint32_t>(payload.size()), Crc32c(payload.data(),
                         payload.size()));
    bytes.insert(bytes.end(), header, header + kSpoolFrameHeaderSize);
    bytes.insert(bytes.end(), body.begin(), body.end() - static_cast<ptrdiff_t>(truncate_by));
    const std::string path = ScratchPath("spool_eof_edge.ntspool");
    WriteFileBytes(path, bytes);
    const SpoolReadResult r = SpoolReader::Read(path, server);
    std::remove(path.c_str());
    return r;
  };
  auto shipments_of = [](const CollectionServer& server) {
    const CollectionServer::StreamState* stream = server.StreamOf(9);
    return stream == nullptr ? 0 : stream->shipments_received;
  };

  // Payload complete and valid: the frame is simply the last valid frame.
  CollectionServer clean_server;
  const SpoolReadResult clean = with_last_frame(false, 0, &clean_server);
  ASSERT_TRUE(clean.header_valid);
  EXPECT_EQ(shipments_of(clean_server), 2u);
  EXPECT_EQ(clean.records_recovered, 6u);
  EXPECT_EQ(clean.frames_damaged, 0u);
  EXPECT_EQ(clean.bytes_discarded, 0u);

  // Payload complete (exactly to EOF) but corrupt: damaged frame with an
  // intact header, so the loss is known, not silent.
  CollectionServer corrupt_server;
  const SpoolReadResult corrupt = with_last_frame(true, 0, &corrupt_server);
  ASSERT_TRUE(corrupt.header_valid);
  EXPECT_EQ(shipments_of(corrupt_server), 1u);
  EXPECT_EQ(corrupt.records_recovered, 2u);
  EXPECT_EQ(corrupt.frames_damaged, 1u);
  EXPECT_EQ(corrupt.records_lost_known, 4u);
  EXPECT_EQ(corrupt.bytes_discarded, kSpoolFrameHeaderSize + payload.size());

  // Declared length extends one byte past EOF: truncated payload under an
  // intact header gets the identical known-loss accounting.
  CollectionServer truncated_server;
  const SpoolReadResult truncated = with_last_frame(false, 1, &truncated_server);
  ASSERT_TRUE(truncated.header_valid);
  EXPECT_EQ(shipments_of(truncated_server), 1u);
  EXPECT_EQ(truncated.records_recovered, 2u);
  EXPECT_EQ(truncated.frames_damaged, 1u);
  EXPECT_EQ(truncated.records_lost_known, 4u);
  EXPECT_EQ(truncated.bytes_discarded, kSpoolFrameHeaderSize + payload.size() - 1);
}

// A crash in the middle of AppendManifestEntry leaves a torn frame. The
// next OpenAppend must resume after the last intact frame: an entry
// appended behind the torn bytes would sit where no reader reaches.
TEST(SpoolSalvage, OpenAppendResumesAfterTheLastIntactFrame) {
  const std::string path = ScratchPath("spool_manifest_torn.ntspool");
  auto entry = [](uint32_t system_id) {
    SpoolManifestEntry e;
    e.system_id = system_id;
    e.records_collected = 100 * system_id;
    e.segment_file = SpoolSegmentName(system_id);
    return e;
  };
  size_t intact = 0;
  {
    SpoolWriter writer;
    ASSERT_TRUE(writer.Open(path, 0, 0xABCD));
    ASSERT_TRUE(writer.AppendManifestEntry(entry(1)));
    ASSERT_TRUE(writer.AppendManifestEntry(entry(2)));
    intact = static_cast<size_t>(writer.bytes_written());
    ASSERT_TRUE(writer.AppendManifestEntry(entry(3)));
  }
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  bytes.resize(intact + (bytes.size() - intact) / 2);  // Half of the third frame.
  WriteFileBytes(path, bytes);

  {
    SpoolWriter writer;
    ASSERT_TRUE(writer.OpenAppend(path, 0, 0xABCD));
    ASSERT_TRUE(writer.AppendManifestEntry(entry(3)));
  }
  const SpoolReadResult r = SpoolReader::Read(path);
  ASSERT_TRUE(r.header_valid);
  EXPECT_EQ(r.frames_damaged, 0u);
  EXPECT_EQ(r.bytes_discarded, 0u);
  ASSERT_EQ(r.manifest.size(), 3u);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.manifest[i].system_id, i + 1);
    EXPECT_EQ(r.manifest[i].records_collected, 100u * (i + 1));
  }
  std::remove(path.c_str());
}

TEST(SpoolSalvage, MissingAndEmptyFiles) {
  const SpoolReadResult missing = SpoolReader::Read(ScratchPath("spool_never_written.ntspool"));
  EXPECT_FALSE(missing.file_opened);
  EXPECT_FALSE(missing.header_valid);

  const std::string path = ScratchPath("spool_empty.ntspool");
  WriteFileBytes(path, {});
  const SpoolReadResult empty = SpoolReader::Read(path);
  EXPECT_TRUE(empty.file_opened);
  EXPECT_FALSE(empty.header_valid);
  EXPECT_EQ(empty.records_recovered, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ntrace
