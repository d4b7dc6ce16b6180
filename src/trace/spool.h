// The durable trace spool: a versioned, block-structured, checksummed
// on-disk format for in-flight trace collection (DESIGN.md §10).
//
// The paper's collection ran unattended for four weeks on machines that
// crashed, rebooted and dropped off the network; the study survived because
// partial data was salvageable. The spool gives the reproduction the same
// property: every shipment a system delivers to its collection server is
// also appended to a per-system segment file as a length-prefixed,
// CRC-32C-protected frame, so a worker crash at any point leaves a valid
// prefix on disk. A segment is *sealed* by a final frame carrying the
// system's run summary; only sealed segments count as checkpoints.
//
// On-disk v1 layout (all integers little-endian):
//
//   file header   u64 magic "NTSPOOL1" | u32 version | u32 system_id
//                 u64 config_fingerprint
//   frame         u32 frame magic | u16 type | u16 reserved
//                 u32 payload_size | u32 crc32c(payload)
//                 u32 crc32c(first 16 header bytes)
//                 payload bytes
//
// The separate header CRC lets the salvage reader distinguish "frame header
// torn/corrupt" (stop: the length field cannot be trusted) from "payload
// damaged" (the frame's record count is still known, so the loss can be
// counted). SpoolReader recovers every record up to the last valid frame
// and never crashes on damaged input: truncation, bit flips and garbage
// tails all degrade to a shorter valid prefix plus loss accounting
// (tests/spool_test.cc fuzzes exactly this contract).

#ifndef SRC_TRACE_SPOOL_H_
#define SRC_TRACE_SPOOL_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "src/trace/trace_buffer.h"
#include "src/trace/trace_record.h"

namespace ntrace {

class CollectionServer;

// Format constants, shared by writer, reader and the golden-format test.
inline constexpr uint64_t kSpoolMagic = 0x314C4F4F5053544EULL;  // "NTSPOOL1" LE.
inline constexpr uint32_t kSpoolVersion = 1;
inline constexpr uint32_t kSpoolFrameMagic = 0xC5B10733u;
inline constexpr size_t kSpoolFileHeaderSize = 24;
inline constexpr size_t kSpoolFrameHeaderSize = 20;
// A frame payload larger than this is treated as corruption by the reader
// (the writer never produces one: a shipment is at most a few thousand
// fixed-size records).
inline constexpr uint32_t kSpoolMaxPayload = 64u << 20;

enum class SpoolFrameType : uint16_t {
  kShipment = 1,    // ShipmentHeader + TraceRecord array.
  kName = 2,        // One NameRecord.
  kRecords = 3,     // Header-less legacy delivery: bare TraceRecord array.
  kCompletion = 4,  // Opaque run-summary blob (the fleet owns the encoding).
  kSeal = 5,        // Terminates a complete segment; carries delivery totals.
  kManifest = 6,    // Checkpoint-manifest entry (completed-system log).
};

// ---------------------------------------------------------------------------
// Shared v1 frame codec.
//
// The networked collection tier (src/net) speaks the spool frame format on
// the wire: same 20-byte header, same CRC split, same payload encodings.
// These helpers are the single implementation both layers use, so a frame
// captured off the wire is bit-compatible with a frame read from disk.
// ---------------------------------------------------------------------------

// Little-endian scalar codec of every byte format in the tree (spool and
// wire frames, extent store, the fleet's completion blob): the formats are
// explicitly LE so the golden-byte tests pin identical bytes on every
// platform.
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

// Payload codecs for the v1 frame types. Encoders append; decoders read a
// complete payload span and return false on a structurally short payload.
// Shipment/records payloads carry the TraceRecord array as raw bytes after
// the encoded head, so the encoder only produces the head span.
void SpoolEncodeShipmentHead(std::vector<uint8_t>* out, const ShipmentHeader& header);
bool SpoolDecodeShipment(const uint8_t* payload, size_t size, ShipmentHeader* header,
                         std::vector<TraceRecord>* records);
void SpoolEncodeRecordsHead(std::vector<uint8_t>* out, uint64_t record_count);
bool SpoolDecodeRecords(const uint8_t* payload, size_t size, std::vector<TraceRecord>* records);
void SpoolEncodeNamePayload(std::vector<uint8_t>* out, const NameRecord& name);
bool SpoolDecodeName(const uint8_t* payload, size_t size, NameRecord* name);

// Payload of a kSeal frame: what the live run delivered in total, so a
// salvage pass over a damaged sealed segment can count exactly what it
// failed to recover.
struct SpoolSeal {
  uint64_t records_delivered = 0;  // Shipment/legacy records, duplicates included.
  uint64_t records_collected = 0;  // After server-side dedup (live run's view).
  uint64_t name_count = 0;
  uint64_t frame_count = 0;  // Frames preceding the seal.
};

// Payload of a kManifest frame: one completed system.
struct SpoolManifestEntry {
  uint32_t system_id = 0;
  uint64_t records_collected = 0;
  std::string segment_file;  // Basename, relative to the spool directory.
};

// Appends frames to one segment (or manifest) file. Not thread-safe; the
// fleet gives each worker its own writer and serializes manifest appends.
class SpoolWriter {
 public:
  SpoolWriter() = default;
  ~SpoolWriter() { Close(); }
  SpoolWriter(const SpoolWriter&) = delete;
  SpoolWriter& operator=(const SpoolWriter&) = delete;

  // Creates/truncates `path` and writes the file header.
  bool Open(const std::string& path, uint32_t system_id, uint64_t config_fingerprint);
  // Opens `path` for appending, validating the existing file header; a
  // missing, empty or mismatching file is recreated. Used by the manifest,
  // which accumulates entries across fleet invocations.
  bool OpenAppend(const std::string& path, uint32_t system_id, uint64_t config_fingerprint);

  bool AppendShipment(const ShipmentHeader& header, const std::vector<TraceRecord>& records);
  bool AppendRecords(const std::vector<TraceRecord>& records);
  bool AppendName(const NameRecord& name);
  // Run summary; the blob's encoding is the caller's (versioned by the file
  // format: a v1 reader hands back exactly the bytes a v1 writer stored).
  bool AppendCompletion(const void* blob, size_t size);
  // Appends an already-encoded payload as one frame of `type`, without
  // re-encoding. The networked tier persists delivered wire payloads this
  // way (wire and disk share the v1 payload encodings, so the bytes pass
  // straight through). `record_count` keeps the seal's running totals
  // truthful for shipment/records payloads.
  bool AppendRawFrame(uint16_t type, const void* payload, size_t size, bool checkpoint,
                      uint64_t record_count = 0);
  bool AppendManifestEntry(const SpoolManifestEntry& entry);
  // Writes the seal frame from the writer's own running totals and flushes.
  // After sealing, the segment is a complete checkpoint.
  bool Seal(uint64_t records_collected);

  void Close();

  // Crash-semantics close: the file is closed WITHOUT flushing the batched
  // frame buffer, so on-disk state is exactly what a process death at this
  // point would have left (a valid frame prefix ending at the last flush).
  // Used by the networked collection tier to model a server kill.
  void Abandon();

  // How many frame bytes may accumulate in the writer's own buffer before
  // a non-checkpoint frame forces them out to the OS. 0 flushes after
  // every frame (maximum durability: a crash tears at most the frame being
  // written); the default trades a bounded unflushed tail for ~one write
  // syscall per megabyte on the durable hot path. Checkpoint frames
  // (completion/seal/manifest) always flush regardless.
  void set_flush_threshold(size_t bytes) { flush_threshold_ = bytes; }

  bool ok() const { return file_ != nullptr && !failed_; }
  // Frame bytes batched in the writer's own buffer, not yet handed to the
  // OS. Zero right after a flush: everything appended so far would survive
  // a process crash. The net tier derives its durable-ack watermark here.
  size_t buffered_bytes() const { return buf_.size(); }
  const std::string& path() const { return path_; }
  uint64_t frames_written() const { return frames_written_; }
  uint64_t records_written() const { return records_written_; }
  uint64_t names_written() const { return names_written_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  bool WriteHeader(uint32_t system_id, uint64_t config_fingerprint);
  // Appends one frame -- header plus a payload that is the concatenation of
  // two spans (the second lets AppendShipment hand the record array over
  // without copying it into a staging buffer; the payload CRC is extended
  // across both) -- to buf_. `checkpoint` frames are flushed to the OS
  // unconditionally; others go out once flush_threshold_ bytes have
  // accumulated. A crash can cost the unflushed tail, and the salvage
  // contract (longest valid prefix) is unaffected.
  bool WriteFrame(SpoolFrameType type, const void* head, size_t head_size, const void* tail,
                  size_t tail_size, bool checkpoint);
  // Writes buf_ to the (unbuffered) FILE in one call and clears it.
  bool FlushBuffer();
  // Same, but appends `tail` after the buffer via one vectored write, so a
  // large payload tail (a shipment's record array) reaches the kernel
  // without a staging copy.
  bool FlushBufferWithTail(const uint8_t* tail, size_t tail_size);

  std::FILE* file_ = nullptr;
  std::string path_;
  bool failed_ = false;
  uint64_t frames_written_ = 0;
  uint64_t records_written_ = 0;
  uint64_t names_written_ = 0;
  uint64_t bytes_written_ = 0;
  size_t flush_threshold_ = 1u << 20;
  // Frame assembly buffer: a typical frame is well under a kilobyte (one
  // name record, or one shipment), so the durable hot path batches frames
  // here with plain memcpy and hands the OS ~one write per megabyte
  // instead of three stdio calls per frame.
  std::vector<uint8_t> buf_;
  // Reused payload staging buffer: frame appends are the durable hot path,
  // one heap allocation per frame would dominate small frames.
  std::vector<uint8_t> scratch_;
};

// Everything a salvage pass recovers from one spool file: the valid frame
// prefix, decoded, plus damage accounting. Reading never fails hard -- a
// damaged or truncated file just yields a shorter prefix.
struct SpoolReadResult {
  bool file_opened = false;
  bool header_valid = false;
  uint32_t version = 0;
  uint32_t system_id = 0;
  uint64_t config_fingerprint = 0;
  bool sealed = false;
  SpoolSeal seal;

  struct Shipment {
    ShipmentHeader header;
    std::vector<TraceRecord> records;
  };
  std::vector<Shipment> shipments;             // kShipment frames, in file order.
  std::vector<std::vector<TraceRecord>> loose; // kRecords frames.
  std::vector<NameRecord> names;
  std::vector<uint8_t> completion;             // Empty if no completion frame.
  std::vector<SpoolManifestEntry> manifest;

  // Salvage accounting.
  uint64_t frames_valid = 0;
  uint64_t frames_damaged = 0;       // 0 or 1: the first damaged frame stops the scan.
  uint64_t records_recovered = 0;    // Shipment + legacy records in the valid prefix.
  uint64_t records_lost_known = 0;   // Record count of a damaged frame whose header survived.
  uint64_t bytes_discarded = 0;      // File bytes after the last valid frame.

  uint64_t TotalRecords() const { return records_recovered; }
};

class SpoolReader {
 public:
  // Salvage-reads `path`: decodes the longest valid frame prefix and stops
  // at the first torn, corrupt or truncated frame (or at the seal). Safe on
  // arbitrary bytes.
  static SpoolReadResult Read(const std::string& path);
};

// Basename of a system's segment in a spool directory. The fleet's
// in-process path and the network service share it, so a sealed segment
// is resumable by either.
std::string SpoolSegmentName(uint32_t system_id);

// The one way a segment turns back into collection state. If `segment`
// has a valid header naming `system_id` under `config_fingerprint`, moves
// its recovered deliveries into `server` -- shipments, then header-less
// record batches, then names, each in file order, the live delivery order
// -- so dedup, gap and out-of-order bookkeeping re-derive the live
// counters exactly, and returns true. Otherwise returns false and leaves
// `server` untouched.
bool SpoolReplaySegment(SpoolReadResult* segment, uint32_t system_id, uint64_t config_fingerprint,
                        CollectionServer* server);

}  // namespace ntrace

#endif  // SRC_TRACE_SPOOL_H_
