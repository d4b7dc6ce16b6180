// The durable trace spool (DESIGN.md §10): the delivery vocabulary of the
// trace-file container (src/trace/frame_file.h).
//
// The paper's collection ran unattended for four weeks on machines that
// crashed, rebooted and dropped off the network; the study survived because
// partial data was salvageable. Here every delivery to a collection server
// is also appended to a per-system segment file in CRC-32C-protected
// frames, so a worker crash at any point leaves a valid prefix on disk. A
// segment is *sealed* by a final frame carrying the run's delivery totals;
// only sealed segments count as checkpoints. The checkpoint manifest is a
// spool file of kManifest frames.
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
inline constexpr uint32_t kSpoolVersion = 2;
inline constexpr size_t kSpoolFileHeaderSize = kFrameFileHeaderSize;

enum class SpoolFrameType : uint16_t {
  kShipment = 1,    // ShipmentHeader + TraceRecord array.
  kNames = 2,       // u32 count, then each NameRecord (SpoolNameBatch).
  kCompletion = 4,  // Opaque run-summary blob (the fleet owns the encoding).
  kSeal = 5,        // Terminates a complete segment; carries delivery totals.
  kManifest = 6,    // Checkpoint-manifest entry (completed-system log).
};

// A shipment payload carries its TraceRecord array as raw bytes after the
// encoded head, so the encoder only produces the head span.
void SpoolEncodeShipmentHead(std::vector<uint8_t>* out, const ShipmentHeader& header);

// The names delivered since a writer's previous frame, as one kNames
// payload: a u32 count, then per name u64 file_object | u32 system_id | u32
// path length | path bytes. The spool writer and the net agent stage names
// here, so a name shares its batch's frame header, CRC and ack. A batch is
// written once it reaches kSpoolNameBatchBytes, which bounds the frame.
inline constexpr size_t kSpoolNameBatchBytes = 64u << 10;
struct SpoolNameBatch {
  void Add(const NameRecord& name);
  bool full() const { return payload.size() >= kSpoolNameBatchBytes; }

  uint32_t count = 0;
  std::vector<uint8_t> payload;  // Empty until the first name.
};

// The one decoder of a delivery, for the segment reader and the net
// service: hands a kShipment or kNames payload to `server` (when non-null)
// and adds the shipment's records to *records. Other types deliver nothing.
// False, delivering nothing, if the payload is shorter than it claims.
bool SpoolDeliverFrame(uint16_t type, const uint8_t* payload, size_t size, CollectionServer* server,
                       uint64_t* records);

// Payload of a kSeal frame: what the live run delivered in total, so a
// salvage pass over a damaged sealed segment can count exactly what it
// failed to recover.
struct SpoolSeal {
  uint64_t records_delivered = 0;  // Shipment records, duplicates included.
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
  ~SpoolWriter() { Close(); }
  // Creates/truncates `path` and writes the file header.
  bool Open(const std::string& path, uint32_t system_id, uint64_t config_fingerprint);
  // Appends after the longest intact frame prefix (FrameFileWriter::
  // OpenAppend): the manifest across fleet runs, a rebuilt net session.
  bool OpenAppend(const std::string& path, uint32_t system_id, uint64_t config_fingerprint);

  bool AppendShipment(const ShipmentHeader& header, const std::vector<TraceRecord>& records);
  // Stages `name`; the batch is written ahead of the next frame, at Close,
  // or once full.
  bool AppendName(const NameRecord& name);
  // Run summary; the blob's encoding is the caller's (versioned by the file
  // format: a reader hands back exactly the bytes its version's writer
  // stored).
  bool AppendCompletion(const void* blob, size_t size);
  // Appends an already-encoded payload as one frame of `type`, without
  // re-encoding. The networked tier persists delivered wire payloads this
  // way (wire and disk share the payload encodings, so the bytes pass
  // straight through). `record_count` keeps the seal's running totals
  // truthful for shipments; a kNames payload's head gives its name count.
  bool AppendRawFrame(uint16_t type, const void* payload, size_t size, bool checkpoint,
                      uint64_t record_count = 0);
  bool AppendManifestEntry(const SpoolManifestEntry& entry);
  // Writes the seal frame from the writer's own running totals and flushes.
  // After sealing, the segment is a complete checkpoint.
  bool Seal(uint64_t records_collected);

  void Close() {
    WriteNames();
    file_.Close();
  }
  // Drops the staged names and the unflushed tail: models a net server kill.
  void Abandon() {
    names_ = {};
    file_.Abandon();
  }
  // Completion, seal and manifest frames are checkpoints: they always flush.
  void set_flush_threshold(size_t bytes) { file_.set_flush_threshold(bytes); }

  bool ok() const { return file_.ok(); }
  // The net tier derives its durable-ack watermark here.
  size_t buffered_bytes() const { return file_.buffered_bytes(); }
  uint64_t bytes_written() const { return file_.bytes_written(); }

 private:
  // Writes the staged names, then the frame.
  bool WriteFrame(SpoolFrameType type, const void* head, size_t head_size, const void* tail,
                  size_t tail_size, bool checkpoint);
  bool WriteNames();

  FrameFileWriter file_;
  SpoolNameBatch names_;
  uint64_t frames_written_ = 0;
  uint64_t records_written_ = 0;
  uint64_t names_written_ = 0;
  // Reused payload staging buffer: one allocation per frame would dominate.
  std::vector<uint8_t> scratch_;
};

// What a salvage pass recovers from one spool file besides its deliveries:
// the run's bookkeeping frames plus the container's damage accounting
// (FrameSalvage). Reading never fails hard -- a damaged or truncated file
// just yields a shorter prefix.
struct SpoolReadResult : FrameSalvage {
  uint32_t system_id = 0;
  SpoolSeal seal;
  std::vector<uint8_t> completion;  // Empty if no completion frame.
  std::vector<SpoolManifestEntry> manifest;

  uint64_t records_recovered = 0;  // Shipment records in the valid prefix.

  // Only a segment of this system and run replays to its collection.
  bool Matches(uint32_t id, uint64_t fingerprint) const {
    return header_valid && system_id == id && config_fingerprint == fingerprint;
  }
};

class SpoolReader {
 public:
  // Salvage-reads `path` in one streaming scan (FrameFileReader), one frame
  // at a time: decodes the longest valid frame prefix, up to the seal. Safe
  // on arbitrary bytes. Each delivery goes to `replay_into` (when non-null)
  // in file order, the live delivery order, so its dedup, gap and
  // out-of-order counters re-derive the live ones. Restores replay into a
  // scratch server and adopt it only if the result Matches.
  static SpoolReadResult Read(const std::string& path, CollectionServer* replay_into = nullptr);
};

// Basename of a system's segment in a spool directory. The fleet's
// in-process path and the network service share it, so a sealed segment
// is resumable by either.
std::string SpoolSegmentName(uint32_t system_id);

}  // namespace ntrace

#endif  // SRC_TRACE_SPOOL_H_
