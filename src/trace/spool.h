// The durable trace spool (DESIGN.md §10): the delivery vocabulary of the
// trace-file container (src/trace/frame_file.h).
//
// The paper's collection ran unattended for four weeks on machines that
// crashed, rebooted and dropped off the network; the study survived because
// partial data was salvageable. Here every shipment a system delivers to its
// collection server is also appended to a per-system segment file as a
// CRC-32C-protected frame, so a worker crash at any point leaves a valid
// prefix on disk. A segment is *sealed* by a final frame carrying the run's
// delivery totals; only sealed segments count as checkpoints. The
// checkpoint manifest is a spool file of kManifest frames.
//
// This header owns what the frames mean (file magic, frame types, payload
// encodings, seal totals); the container does every byte of file I/O.
//
//   file header   u64 magic "NTSPOOL1" | u32 version | u32 system_id
//                 u64 config_fingerprint
//   frames        the container's v1 frames, spool types (< 16)

#ifndef SRC_TRACE_SPOOL_H_
#define SRC_TRACE_SPOOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/frame_file.h"
#include "src/trace/trace_buffer.h"
#include "src/trace/trace_record.h"

namespace ntrace {

class CollectionServer;

// Format constants, shared by writer, reader and the golden-format test.
inline constexpr uint64_t kSpoolMagic = 0x314C4F4F5053544EULL;  // "NTSPOOL1" LE.
inline constexpr uint32_t kSpoolVersion = 1;
inline constexpr size_t kSpoolFileHeaderSize = kFrameFileHeaderSize;

enum class SpoolFrameType : uint16_t {
  kShipment = 1,    // ShipmentHeader + TraceRecord array.
  kName = 2,        // One NameRecord.
  kRecords = 3,     // Header-less legacy delivery: bare TraceRecord array.
  kCompletion = 4,  // Opaque run-summary blob (the fleet owns the encoding).
  kSeal = 5,        // Terminates a complete segment; carries delivery totals.
  kManifest = 6,    // Checkpoint-manifest entry (completed-system log).
};

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

// Appends spool frames to one segment (or manifest) file through the
// container's frame writer. Not thread-safe; the fleet gives each worker its
// own writer and serializes manifest appends.
class SpoolWriter {
 public:
  // Creates/truncates `path` and writes the file header.
  bool Open(const std::string& path, uint32_t system_id, uint64_t config_fingerprint);
  // Appends after the longest intact frame prefix (FrameFileWriter::
  // OpenAppend): the manifest across fleet runs, a rebuilt net session.
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

  void Close() { file_.Close(); }
  void Abandon() { file_.Abandon(); }  // Models a net server kill.
  // Completion, seal and manifest frames are checkpoints: they always flush.
  void set_flush_threshold(size_t bytes) { file_.set_flush_threshold(bytes); }

  bool ok() const { return file_.ok(); }
  // The net tier derives its durable-ack watermark here.
  size_t buffered_bytes() const { return file_.buffered_bytes(); }
  uint64_t bytes_written() const { return file_.bytes_written(); }

 private:
  bool WriteFrame(SpoolFrameType type, const void* head, size_t head_size, const void* tail,
                  size_t tail_size, bool checkpoint);

  FrameFileWriter file_;
  uint64_t frames_written_ = 0;
  uint64_t records_written_ = 0;
  uint64_t names_written_ = 0;
  // Reused payload staging buffer: one allocation per frame would dominate.
  std::vector<uint8_t> scratch_;
};

// Everything a salvage pass recovers from one spool file: the valid frame
// prefix, decoded, plus the container's damage accounting (FrameSalvage).
// Reading never fails hard -- a damaged or truncated file just yields a
// shorter prefix.
struct SpoolReadResult : FrameSalvage {
  uint32_t system_id = 0;
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

  uint64_t records_recovered = 0;  // Shipment + legacy records in the valid prefix.
};

class SpoolReader {
 public:
  // Salvage-reads `path` in one streaming scan (FrameFileReader), one frame
  // at a time: decodes the longest valid frame prefix, up to the seal. Safe
  // on arbitrary bytes.
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
