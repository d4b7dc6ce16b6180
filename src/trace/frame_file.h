// The one container of every trace file (DESIGN.md §10): a 24-byte file
// header, then CRC-32C-protected frames, written by one batching writer and
// read back by one streaming salvage scan. The spool and checkpoint
// manifest (src/trace/spool.h) and the extent store
// (src/trace/extent_store.h) are frame vocabularies on top of it: they name
// the file magic and frame types and encode payloads; every byte of file
// I/O is here, so every trace file shares one salvage contract -- a crash,
// truncation, bit flip or garbage tail degrades it to its longest intact
// frame prefix plus loss accounting, never a hard failure.
//
// Layout (all integers little-endian):
//
//   file header   u64 magic | u32 version | u32 param | u64 config_fingerprint
//                 (param is the vocabulary's: a segment's system id, a
//                 store's extent capacity)
//   frame         u32 frame magic | u16 type | u16 reserved
//                 u32 payload_size | u32 crc32c(payload)
//                 u32 crc32c(first 16 header bytes)
//                 payload bytes
//
// The separate header CRC tells "header torn or corrupt" (stop: the length
// cannot be trusted) from "payload damaged under an intact header" (the
// record count in the surviving head is still readable, so the loss is
// counted). The networked tier (src/net) speaks the same frames on the
// wire, so a frame captured off the wire is bit-compatible with one on disk.

#ifndef SRC_TRACE_FRAME_FILE_H_
#define SRC_TRACE_FRAME_FILE_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace ntrace {

class Counter;

inline constexpr uint32_t kSpoolFrameMagic = 0xC5B10733u;
inline constexpr size_t kFrameFileHeaderSize = 24;
inline constexpr size_t kSpoolFrameHeaderSize = 20;
// Larger payloads are corruption to the reader and refused by the writer
// (a full extent of kMaxExtentRecords stays well below it).
inline constexpr uint32_t kSpoolMaxPayload = 64u << 20;
// A payload tail at least this large (a shipment's record array, an encoded
// extent) skips the writer's buffer: the buffered frames and the tail reach
// the kernel in one vectored write, so the bulk is copied to it only once.
inline constexpr size_t kFrameDirectTailBytes = 32u << 10;

// Little-endian scalar codec of every byte format in the tree (trace files,
// wire frames, the fleet's completion blob), so the golden-byte tests pin
// identical bytes on every platform.
template <typename T>
void PutScalar(std::vector<uint8_t>* out, T value) {
  static_assert(std::is_integral_v<T>);
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<uint8_t>(static_cast<uint64_t>(value) >> (8 * i)));
  }
}

// Bounds-checked read: a short buffer returns false (callers treat it as
// damage) and leaves *pos unchanged.
template <typename T>
bool GetScalar(const uint8_t* data, size_t size, size_t* pos, T* out) {
  static_assert(std::is_integral_v<T>);
  if (size - *pos < sizeof(T)) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<uint64_t>(data[*pos + i]) << (8 * i);
  }
  *pos += sizeof(T);
  *out = static_cast<T>(v);
  return true;
}

// Raw byte spans (strings, record arrays, host-layout structs), read with
// the same bounds check.
inline void PutBytes(std::vector<uint8_t>* out, const void* data, size_t n) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  out->insert(out->end(), bytes, bytes + n);
}

inline bool GetBytes(const uint8_t* data, size_t size, size_t* pos, void* out, size_t n) {
  if (size - *pos < n) {
    return false;
  }
  std::memcpy(out, data + *pos, n);
  *pos += n;
  return true;
}

// Fills one frame header in place. `header` must point at
// kSpoolFrameHeaderSize writable bytes; `payload_crc` covers the payload
// bytes that will follow.
void SpoolFillFrameHeader(uint8_t* header, uint16_t type, uint32_t payload_size,
                          uint32_t payload_crc);

// Appends a complete frame (header + payload, payload given as head/tail
// spans) to `out`. Convenience for callers without a streaming writer.
void SpoolAppendFrame(std::vector<uint8_t>* out, uint16_t type, const void* head,
                      size_t head_size, const void* tail, size_t tail_size);

// One parsed frame, borrowed from the caller's buffer.
struct SpoolFrameView {
  uint16_t type = 0;
  uint32_t payload_size = 0;      // Declared by the header.
  const uint8_t* payload = nullptr;
  size_t payload_available = 0;   // Bytes actually present after the header.
};

enum class SpoolFrameStatus {
  kOk,                // Frame valid; *consumed covers header + payload.
  kTruncatedHeader,   // Fewer than kSpoolFrameHeaderSize bytes available.
  kBadHeader,         // Header magic/CRC/size invalid: length untrustworthy.
  kTruncatedPayload,  // Header intact but the payload runs past the buffer.
  kBadPayload,        // Payload complete but fails its CRC.
};

// Parses one frame from the front of [data, data+size). On kOk, *consumed
// is the frame's full length. On kTruncatedPayload/kBadPayload the view is
// still filled (the header was valid), so callers can classify the loss; a
// streaming consumer treats kTruncatedHeader/kTruncatedPayload as "wait for
// more bytes" and the kBad* states as corruption.
SpoolFrameStatus SpoolParseFrame(const uint8_t* data, size_t size, SpoolFrameView* view,
                                 size_t* consumed);

struct FrameFileHeader {
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t param = 0;
  uint64_t config_fingerprint = 0;
};

// What one salvage scan found; the vocabularies' read results
// (SpoolReadResult, ExtentReadStats) extend it.
struct FrameSalvage {
  bool file_opened = false;
  bool header_valid = false;
  uint32_t version = 0;
  uint64_t config_fingerprint = 0;
  bool sealed = false;

  uint64_t frames_valid = 0;
  uint64_t frames_damaged = 0;      // 0 or 1: the first damaged frame stops the scan.
  uint64_t records_lost_known = 0;  // Declared by a damaged frame's surviving head.
  uint64_t bytes_discarded = 0;     // File bytes after the last valid frame.
};

// Appends frames to one file. Frames batch in the writer's buffer up to the
// flush threshold; checkpoint frames always flush, so a checkpoint on disk
// implies everything before it is too. Not thread-safe.
class FrameFileWriter {
 public:
  FrameFileWriter() = default;
  ~FrameFileWriter() { Close(); }
  FrameFileWriter(const FrameFileWriter&) = delete;
  FrameFileWriter& operator=(const FrameFileWriter&) = delete;

  // Creates/truncates `path` and writes the header. Every byte accepted
  // from here on, the header included, is added to `bytes_counter`.
  bool Open(const std::string& path, const FrameFileHeader& header, Counter* bytes_counter);
  // Appends after the longest intact frame prefix of `path`, truncating a
  // torn tail first so the next frame lands where a reader reaches it. A
  // missing file, or one whose header differs from `header`, is recreated.
  bool OpenAppend(const std::string& path, const FrameFileHeader& header,
                  Counter* bytes_counter);

  // Appends one frame whose payload is head + tail: the CRC extends across
  // both, so a caller can hand over a record array without staging it.
  bool Append(uint16_t type, const void* head, size_t head_size, const void* tail,
              size_t tail_size, bool checkpoint);

  void Close();
  // Crash-semantics close: drops the buffer unflushed, leaving exactly what
  // a process death here would (a valid prefix ending at the last flush).
  void Abandon();

  // 0 flushes every frame (a crash tears at most the frame being written);
  // the 1 MiB default costs ~one write syscall per megabyte.
  void set_flush_threshold(size_t bytes) { flush_threshold_ = bytes; }

  bool ok() const { return fd_ >= 0 && !failed_; }
  // Bytes not yet handed to the OS: zero means a crash would lose nothing.
  size_t buffered_bytes() const { return buf_.size(); }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  bool OpenFd(const std::string& path, int flags, Counter* bytes_counter);
  // Writes the buffer, then `tail`, in one vectored write (retried across
  // short writes) and clears the buffer.
  bool Flush(const void* tail = nullptr, size_t tail_size = 0);

  int fd_ = -1;
  bool failed_ = false;
  Counter* bytes_counter_ = nullptr;
  uint64_t bytes_written_ = 0;
  size_t flush_threshold_ = 1u << 20;
  std::vector<uint8_t> buf_;
};

// Per-vocabulary loss hook: the record count a damaged frame's surviving
// head declares (payload_available may fall short of payload_size), or 0.
using FrameLostKnownFn = uint64_t (*)(const SpoolFrameView& damaged);

// The one streaming salvage scan, reading one frame at a time into a reused
// buffer. It ends at clean EOF, a torn header, a damaged payload, a frame
// the vocabulary cannot decode (Reject) or the vocabulary's seal (Seal).
class FrameFileReader {
 public:
  // False for a missing file or a header that does not match (which
  // discards the whole file); salvage() tells the two apart.
  bool Open(const std::string& path, uint64_t magic, uint32_t version,
            FrameLostKnownFn lost_known = nullptr);
  // The next intact frame, counted valid; its payload is borrowed until the
  // next call. False once the scan has ended.
  bool Next(SpoolFrameView* view);
  // The frame Next just returned does not decode: it ends the scan damaged.
  void Reject();
  // The frame Next just returned is the seal: bytes after it are discarded.
  void Seal();

  const FrameFileHeader& header() const { return header_; }
  const FrameSalvage& salvage() const { return salvage_; }
  // File offset just past the last valid frame.
  uint64_t valid_end() const { return valid_end_; }

 private:
  bool Damaged(uint64_t records_lost_known);
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  std::unique_ptr<std::FILE, Closer> file_;
  FrameLostKnownFn lost_known_ = nullptr;
  FrameFileHeader header_;
  FrameSalvage salvage_;
  bool done_ = true;
  uint64_t file_size_ = 0;
  uint64_t frame_start_ = 0;
  uint64_t valid_end_ = 0;
  std::vector<uint8_t> frame_;
};

}  // namespace ntrace

#endif  // SRC_TRACE_FRAME_FILE_H_
