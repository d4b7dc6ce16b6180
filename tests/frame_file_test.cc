// The trace-file container's write side (DESIGN.md §10): both write paths
// -- frames batched in the writer's buffer and payload tails of
// kFrameDirectTailBytes or more handed to the kernel behind them in one
// vectored write -- must put exactly the frame codec's bytes on disk, in
// order, and a crash-semantics Abandon must leave exactly the frames
// flushed before it. The read side is fuzzed through both vocabularies in
// spool_test.cc and extent_store_test.cc.

#include "src/trace/frame_file.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/metrics/metrics.h"
#include "tests/test_util.h"

namespace ntrace {
namespace {

constexpr FrameFileHeader kHeader{0x3130545345544646ULL /* "FFTEST01" */, 1, 7, 0xABCDEF};

Counter& TestBytesCounter() {
  return MetricsRegistry::Global().GetCounter("ntrace_frame_file_test_bytes_total",
                                              "Bytes written by frame_file_test");
}

std::vector<uint8_t> HeaderBytes() {
  std::vector<uint8_t> out;
  PutScalar<uint64_t>(&out, kHeader.magic);
  PutScalar<uint32_t>(&out, kHeader.version);
  PutScalar<uint32_t>(&out, kHeader.param);
  PutScalar<uint64_t>(&out, kHeader.config_fingerprint);
  return out;
}

std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<uint8_t>(seed + 31 * i);
  }
  return bytes;
}

struct FrameSpec {
  uint16_t type;
  size_t head;
  size_t tail;
  bool checkpoint;
};

// Appends `spec` to the writer and, through the frame codec, to `expected`.
void AppendBoth(FrameFileWriter* writer, const FrameSpec& spec, std::vector<uint8_t>* expected) {
  const std::vector<uint8_t> head = Pattern(spec.head, static_cast<uint8_t>(spec.type));
  const std::vector<uint8_t> tail = Pattern(spec.tail, static_cast<uint8_t>(spec.type + 100));
  ASSERT_TRUE(writer->Append(spec.type, head.data(), head.size(), tail.data(), tail.size(),
                             spec.checkpoint));
  SpoolAppendFrame(expected, spec.type, head.data(), head.size(), tail.data(), tail.size());
}

TEST(FrameFile, BothWritePathsMatchTheFrameCodec) {
  const std::string path = ScratchPath("frame_file_paths.frames");
  Counter& counter = TestBytesCounter();
  const uint64_t counted_before = counter.Value();
  FrameFileWriter writer;
  ASSERT_TRUE(writer.Open(path, kHeader, &counter));
  EXPECT_EQ(writer.buffered_bytes(), 0u);  // The header goes out at once.

  std::vector<uint8_t> expected;
  AppendBoth(&writer, {1, 24, 100, false}, &expected);  // Batched.
  AppendBoth(&writer, {2, 16, 0, false}, &expected);    // Head only, batched.
  EXPECT_GT(writer.buffered_bytes(), 0u);
  // A tail of exactly the threshold takes the direct path, with the two
  // batched frames and its own header + head ahead of it in one writev.
  AppendBoth(&writer, {3, 24, kFrameDirectTailBytes, false}, &expected);
  EXPECT_EQ(writer.buffered_bytes(), 0u);
  AppendBoth(&writer, {4, 8, kFrameDirectTailBytes - 1, false}, &expected);  // Batched.
  EXPECT_GT(writer.buffered_bytes(), 0u);
  AppendBoth(&writer, {5, 0, 10, true}, &expected);  // Checkpoint: flushes.
  EXPECT_EQ(writer.buffered_bytes(), 0u);
  AppendBoth(&writer, {6, 12, 40, false}, &expected);
  AppendBoth(&writer, {7, 24, 3 * kFrameDirectTailBytes + 5, false}, &expected);  // Direct.
  AppendBoth(&writer, {8, 12, 40, false}, &expected);  // Left for Close to flush.
  writer.Close();

  const std::vector<uint8_t> bytes = ReadFileBytes(path);
  std::vector<uint8_t> whole = HeaderBytes();
  whole.insert(whole.end(), expected.begin(), expected.end());
  EXPECT_EQ(bytes, whole);
  EXPECT_EQ(writer.bytes_written(), bytes.size());
  EXPECT_EQ(counter.Value() - counted_before, bytes.size());
  std::remove(path.c_str());
}

TEST(FrameFile, AbandonKeepsExactlyTheFlushedFrames) {
  const std::string path = ScratchPath("frame_file_abandon.frames");
  FrameFileWriter writer;
  ASSERT_TRUE(writer.Open(path, kHeader, &TestBytesCounter()));
  std::vector<uint8_t> flushed = HeaderBytes();
  AppendBoth(&writer, {1, 24, 100, false}, &flushed);
  AppendBoth(&writer, {2, 16, 8, true}, &flushed);  // Checkpoint.
  AppendBoth(&writer, {3, 24, 100, false}, &flushed);
  AppendBoth(&writer, {4, 24, kFrameDirectTailBytes, false}, &flushed);  // Direct.
  std::vector<uint8_t> lost;
  AppendBoth(&writer, {5, 24, 100, false}, &lost);
  AppendBoth(&writer, {6, 16, 8, false}, &lost);
  EXPECT_EQ(writer.buffered_bytes(), lost.size());

  writer.Abandon();
  EXPECT_FALSE(writer.ok());
  EXPECT_EQ(ReadFileBytes(path), flushed);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ntrace
