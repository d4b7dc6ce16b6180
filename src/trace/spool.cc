#include "src/trace/spool.h"

#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <sys/uio.h>
#include <unistd.h>
#endif

#include "src/base/crc32c.h"
#include "src/metrics/metrics.h"
#include "src/trace/collection_server.h"

namespace ntrace {
namespace {

// Spool I/O and salvage counters (DESIGN.md §8/§10). Aggregated across every
// writer/reader in the process; wall-clock bookkeeping only, never part of
// the bit-identical output contract.
struct SpoolMetrics {
  Counter& frames_written;
  Counter& bytes_written;
  Counter& frames_salvaged;
  Counter& frames_damaged;
  Counter& records_recovered;
  Counter& bytes_discarded;

  static SpoolMetrics& Get() {
    static SpoolMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return SpoolMetrics{
          r.GetCounter("ntrace_spool_frames_written_total",
                       "Frames appended to trace spool segments"),
          r.GetCounter("ntrace_spool_bytes_written_total",
                       "Bytes appended to trace spool segments (headers included)"),
          r.GetCounter("ntrace_spool_frames_salvaged_total",
                       "Valid frames decoded by the spool salvage reader"),
          r.GetCounter("ntrace_spool_frames_damaged_total",
                       "Torn/corrupt/truncated frames the salvage reader stopped at"),
          r.GetCounter("ntrace_spool_records_recovered_total",
                       "Trace records recovered from spool segments"),
          r.GetCounter("ntrace_spool_bytes_discarded_total",
                       "Spool bytes discarded past the last valid frame"),
      };
    }();
    return m;
  }
};

bool GetRecords(const uint8_t* data, size_t size, size_t* pos, uint64_t count,
                std::vector<TraceRecord>* out) {
  if (count > kSpoolMaxPayload / sizeof(TraceRecord) ||
      size - *pos < count * sizeof(TraceRecord)) {
    return false;
  }
  out->resize(static_cast<size_t>(count));
  return count == 0 ||
         GetBytes(data, size, pos, out->data(), static_cast<size_t>(count) * sizeof(TraceRecord));
}

void Store32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint32_t Load32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared v1 frame codec (also the wire format of src/net).
// ---------------------------------------------------------------------------

void SpoolFillFrameHeader(uint8_t* header, uint16_t type, uint32_t payload_size,
                          uint32_t payload_crc) {
  Store32(header, kSpoolFrameMagic);
  header[4] = static_cast<uint8_t>(type);
  header[5] = static_cast<uint8_t>(type >> 8);
  header[6] = header[7] = 0;  // Reserved.
  Store32(header + 8, payload_size);
  Store32(header + 12, payload_crc);
  Store32(header + 16, Crc32c(header, kSpoolFrameHeaderSize - 4));
}

void SpoolAppendFrame(std::vector<uint8_t>* out, uint16_t type, const void* head,
                      size_t head_size, const void* tail, size_t tail_size) {
  const size_t at = out->size();
  out->resize(at + kSpoolFrameHeaderSize);
  SpoolFillFrameHeader(out->data() + at, type, static_cast<uint32_t>(head_size + tail_size),
                       Crc32cExtend(Crc32cExtend(0, head, head_size), tail, tail_size));
  PutBytes(out, head, head_size);
  PutBytes(out, tail, tail_size);
}

SpoolFrameStatus SpoolParseFrame(const uint8_t* data, size_t size, SpoolFrameView* view,
                                 size_t* consumed) {
  *view = SpoolFrameView{};
  *consumed = 0;
  if (size < kSpoolFrameHeaderSize) {
    return SpoolFrameStatus::kTruncatedHeader;
  }
  const uint32_t magic = Load32(data);
  const uint16_t type = static_cast<uint16_t>(data[4] | (data[5] << 8));
  const uint32_t payload_size = Load32(data + 8);
  const uint32_t payload_crc = Load32(data + 12);
  const uint32_t header_crc = Load32(data + 16);
  if (magic != kSpoolFrameMagic || Crc32c(data, kSpoolFrameHeaderSize - 4) != header_crc ||
      payload_size > kSpoolMaxPayload) {
    return SpoolFrameStatus::kBadHeader;
  }
  view->type = type;
  view->payload_size = payload_size;
  view->payload = data + kSpoolFrameHeaderSize;
  view->payload_available =
      size - kSpoolFrameHeaderSize < payload_size ? size - kSpoolFrameHeaderSize : payload_size;
  if (size - kSpoolFrameHeaderSize < payload_size) {
    return SpoolFrameStatus::kTruncatedPayload;
  }
  if (Crc32c(view->payload, payload_size) != payload_crc) {
    return SpoolFrameStatus::kBadPayload;
  }
  *consumed = kSpoolFrameHeaderSize + payload_size;
  return SpoolFrameStatus::kOk;
}

void SpoolEncodeShipmentHead(std::vector<uint8_t>* out, const ShipmentHeader& h) {
  PutScalar<uint32_t>(out, h.system_id);
  PutScalar<uint64_t>(out, h.sequence);
  PutScalar<uint32_t>(out, h.attempt);
  PutScalar<uint64_t>(out, h.record_count);
}

bool SpoolDecodeShipment(const uint8_t* payload, size_t size, ShipmentHeader* header,
                         std::vector<TraceRecord>* records) {
  size_t pos = 0;
  return GetScalar(payload, size, &pos, &header->system_id) &&
         GetScalar(payload, size, &pos, &header->sequence) &&
         GetScalar(payload, size, &pos, &header->attempt) &&
         GetScalar(payload, size, &pos, &header->record_count) &&
         GetRecords(payload, size, &pos, header->record_count, records);
}

void SpoolEncodeRecordsHead(std::vector<uint8_t>* out, uint64_t record_count) {
  PutScalar<uint64_t>(out, record_count);
}

bool SpoolDecodeRecords(const uint8_t* payload, size_t size, std::vector<TraceRecord>* records) {
  size_t pos = 0;
  uint64_t count = 0;
  return GetScalar(payload, size, &pos, &count) && GetRecords(payload, size, &pos, count, records);
}

void SpoolEncodeNamePayload(std::vector<uint8_t>* out, const NameRecord& name) {
  PutScalar<uint64_t>(out, name.file_object);
  PutScalar<uint32_t>(out, name.system_id);
  PutScalar<uint32_t>(out, static_cast<uint32_t>(name.path.size()));
  out->insert(out->end(), name.path.begin(), name.path.end());
}

bool SpoolDecodeName(const uint8_t* payload, size_t size, NameRecord* name) {
  size_t pos = 0;
  uint32_t len = 0;
  if (!GetScalar(payload, size, &pos, &name->file_object) ||
      !GetScalar(payload, size, &pos, &name->system_id) ||
      !GetScalar(payload, size, &pos, &len) || size - pos < len) {
    return false;
  }
  name->path.assign(reinterpret_cast<const char*>(payload + pos), len);
  return true;
}

bool SpoolWriter::Open(const std::string& path, uint32_t system_id,
                       uint64_t config_fingerprint) {
  Close();
  failed_ = false;
  frames_written_ = records_written_ = names_written_ = bytes_written_ = 0;
  buf_.clear();
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    failed_ = true;
    return false;
  }
  // The writer batches frames in buf_ itself; an stdio buffer on top would
  // only add a second memcpy between buf_ and the write syscall.
  std::setvbuf(file_, nullptr, _IONBF, 0);
  path_ = path;
  return WriteHeader(system_id, config_fingerprint);
}

bool SpoolWriter::OpenAppend(const std::string& path, uint32_t system_id,
                             uint64_t config_fingerprint) {
  // Validate the existing header; anything short or mismatching (including a
  // previous run with a different config fingerprint) starts the file over.
  SpoolReadResult existing = SpoolReader::Read(path);
  if (!existing.header_valid || existing.system_id != system_id ||
      existing.config_fingerprint != config_fingerprint) {
    return Open(path, system_id, config_fingerprint);
  }
  Close();
  failed_ = false;
  frames_written_ = records_written_ = names_written_ = bytes_written_ = 0;
  buf_.clear();
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    failed_ = true;
    return false;
  }
  std::setvbuf(file_, nullptr, _IONBF, 0);
  path_ = path;
  return true;
}

bool SpoolWriter::WriteHeader(uint32_t system_id, uint64_t config_fingerprint) {
  std::vector<uint8_t> header;
  header.reserve(kSpoolFileHeaderSize);
  PutScalar<uint64_t>(&header, kSpoolMagic);
  PutScalar<uint32_t>(&header, kSpoolVersion);
  PutScalar<uint32_t>(&header, system_id);
  PutScalar<uint64_t>(&header, config_fingerprint);
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
    failed_ = true;
    return false;
  }
  bytes_written_ += header.size();
  return true;
}

namespace {
// A payload tail at least this large (a shipment's record array) skips the
// assembly buffer: the accumulated frames and the tail go to the kernel in
// one writev, so the dominant record bytes are copied user-to-kernel once
// instead of twice.
constexpr size_t kSpoolDirectTail = 32u << 10;
}  // namespace

bool SpoolWriter::FlushBuffer() {
  if (buf_.empty()) {
    return true;
  }
  const bool written = std::fwrite(buf_.data(), 1, buf_.size(), file_) == buf_.size();
  buf_.clear();
  return written;
}

bool SpoolWriter::FlushBufferWithTail(const uint8_t* tail, size_t tail_size) {
#if defined(__unix__) || defined(__APPLE__)
  // The FILE is unbuffered (see Open), so writing through the descriptor
  // keeps byte order and file offset consistent with fwrite.
  struct iovec iov[2];
  iov[0].iov_base = buf_.data();
  iov[0].iov_len = buf_.size();
  iov[1].iov_base = const_cast<uint8_t*>(tail);
  iov[1].iov_len = tail_size;
  const int fd = ::fileno(file_);
  int idx = 0;
  while (idx < 2) {
    if (iov[idx].iov_len == 0) {
      ++idx;
      continue;
    }
    const ssize_t n = ::writev(fd, &iov[idx], 2 - idx);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      buf_.clear();
      return false;
    }
    size_t left = static_cast<size_t>(n);
    while (idx < 2 && left >= iov[idx].iov_len) {
      left -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < 2) {
      iov[idx].iov_base = static_cast<uint8_t*>(iov[idx].iov_base) + left;
      iov[idx].iov_len -= left;
    }
  }
  buf_.clear();
  return true;
#else
  if (!FlushBuffer()) {
    return false;
  }
  return tail_size == 0 || std::fwrite(tail, 1, tail_size, file_) == tail_size;
#endif
}

bool SpoolWriter::WriteFrame(SpoolFrameType type, const void* head, size_t head_size,
                             const void* tail, size_t tail_size, bool checkpoint) {
  const size_t size = head_size + tail_size;
  if (!ok() || size > kSpoolMaxPayload) {
    failed_ = true;
    return false;
  }
  // Assemble the frame directly in buf_ (`head` may point into scratch_,
  // never into buf_). The header goes first so its offset is known before
  // the payload lands.
  const size_t frame_at = buf_.size();
  buf_.resize(frame_at + kSpoolFrameHeaderSize);
  SpoolFillFrameHeader(buf_.data() + frame_at, static_cast<uint16_t>(type),
                       static_cast<uint32_t>(size),
                       Crc32cExtend(Crc32cExtend(0, head, head_size), tail, tail_size));
  const uint8_t* head_bytes = static_cast<const uint8_t*>(head);
  const uint8_t* tail_bytes = static_cast<const uint8_t*>(tail);
  buf_.insert(buf_.end(), head_bytes, head_bytes + head_size);
  if (tail_size >= kSpoolDirectTail) {
    // Everything buffered so far (frames before this one, plus this frame's
    // header and head span) goes out ahead of the tail in one vectored
    // write; the tail itself never passes through buf_.
    if (!FlushBufferWithTail(tail_bytes, tail_size)) {
      failed_ = true;
      return false;
    }
  } else {
    buf_.insert(buf_.end(), tail_bytes, tail_bytes + tail_size);
    // Flushing bounds what a simulated crash can tear; checkpoint frames
    // always flush so a seal on disk implies everything before it is too,
    // ordinary frames batch up to the threshold (0 = flush every frame).
    if (checkpoint || buf_.size() > flush_threshold_) {
      if (!FlushBuffer()) {
        failed_ = true;
        return false;
      }
    }
  }
  ++frames_written_;
  bytes_written_ += kSpoolFrameHeaderSize + size;
  SpoolMetrics& m = SpoolMetrics::Get();
  m.frames_written.Inc();
  m.bytes_written.Inc(kSpoolFrameHeaderSize + size);
  return true;
}

bool SpoolWriter::AppendShipment(const ShipmentHeader& header,
                                 const std::vector<TraceRecord>& records) {
  // The record array is handed to WriteFrame as the payload tail: no
  // staging copy of the (dominant) record bytes, only the 24-byte shipment
  // header goes through scratch. TraceRecord is POD with no implicit
  // padding (static_assert in trace_record.h); raw bytes are the
  // serialized form.
  scratch_.clear();
  SpoolEncodeShipmentHead(&scratch_, header);
  if (!WriteFrame(SpoolFrameType::kShipment, scratch_.data(), scratch_.size(), records.data(),
                  records.size() * sizeof(TraceRecord), /*checkpoint=*/false)) {
    return false;
  }
  records_written_ += records.size();
  return true;
}

bool SpoolWriter::AppendRecords(const std::vector<TraceRecord>& records) {
  scratch_.clear();
  SpoolEncodeRecordsHead(&scratch_, records.size());
  if (!WriteFrame(SpoolFrameType::kRecords, scratch_.data(), scratch_.size(), records.data(),
                  records.size() * sizeof(TraceRecord), /*checkpoint=*/false)) {
    return false;
  }
  records_written_ += records.size();
  return true;
}

bool SpoolWriter::AppendName(const NameRecord& name) {
  scratch_.clear();
  PutScalar<uint64_t>(&scratch_, name.file_object);
  PutScalar<uint32_t>(&scratch_, name.system_id);
  PutScalar<uint32_t>(&scratch_, static_cast<uint32_t>(name.path.size()));
  if (!WriteFrame(SpoolFrameType::kName, scratch_.data(), scratch_.size(), name.path.data(),
                  name.path.size(), /*checkpoint=*/false)) {
    return false;
  }
  ++names_written_;
  return true;
}

void SpoolWriter::Abandon() {
  if (file_ != nullptr) {
    buf_.clear();  // Unflushed frames die with the "process", as in a crash.
    std::fclose(file_);
    file_ = nullptr;
  }
  failed_ = true;
}

bool SpoolWriter::AppendCompletion(const void* blob, size_t size) {
  return WriteFrame(SpoolFrameType::kCompletion, blob, size, nullptr, 0, /*checkpoint=*/true);
}

bool SpoolWriter::AppendRawFrame(uint16_t type, const void* payload, size_t size, bool checkpoint,
                                 uint64_t record_count) {
  if (!WriteFrame(static_cast<SpoolFrameType>(type), payload, size, nullptr, 0, checkpoint)) {
    return false;
  }
  records_written_ += record_count;
  if (static_cast<SpoolFrameType>(type) == SpoolFrameType::kName) {
    ++names_written_;
  }
  return true;
}

bool SpoolWriter::AppendManifestEntry(const SpoolManifestEntry& entry) {
  scratch_.clear();
  PutScalar<uint32_t>(&scratch_, entry.system_id);
  PutScalar<uint64_t>(&scratch_, entry.records_collected);
  PutScalar<uint32_t>(&scratch_, static_cast<uint32_t>(entry.segment_file.size()));
  return WriteFrame(SpoolFrameType::kManifest, scratch_.data(), scratch_.size(),
                    entry.segment_file.data(), entry.segment_file.size(), /*checkpoint=*/true);
}

bool SpoolWriter::Seal(uint64_t records_collected) {
  scratch_.clear();
  PutScalar<uint64_t>(&scratch_, records_written_);
  PutScalar<uint64_t>(&scratch_, records_collected);
  PutScalar<uint64_t>(&scratch_, names_written_);
  PutScalar<uint64_t>(&scratch_, frames_written_);
  return WriteFrame(SpoolFrameType::kSeal, scratch_.data(), scratch_.size(), nullptr, 0,
                    /*checkpoint=*/true);
}

void SpoolWriter::Close() {
  if (file_ != nullptr) {
    if (!FlushBuffer()) {
      failed_ = true;
    }
    std::fclose(file_);
    file_ = nullptr;
  }
}

SpoolReadResult SpoolReader::Read(const std::string& path) {
  SpoolReadResult result;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return result;
  }
  result.file_opened = true;
  std::vector<uint8_t> bytes;
  {
    uint8_t buf[1 << 16];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + n);
    }
  }
  std::fclose(f);

  const uint8_t* data = bytes.data();
  const size_t size = bytes.size();
  size_t pos = 0;
  SpoolMetrics& metrics = SpoolMetrics::Get();

  {
    uint64_t magic = 0;
    uint32_t version = 0;
    if (!GetScalar(data, size, &pos, &magic) || magic != kSpoolMagic ||
        !GetScalar(data, size, &pos, &version) || version != kSpoolVersion ||
        !GetScalar(data, size, &pos, &result.system_id) ||
        !GetScalar(data, size, &pos, &result.config_fingerprint)) {
      result.bytes_discarded = size;
      metrics.bytes_discarded.Inc(size);
      return result;
    }
    result.version = version;
    result.header_valid = true;
  }

  // Frame scan: decode until EOF, seal, or the first frame that fails any
  // check. The prefix up to that point is the salvage.
  while (pos < size) {
    const size_t frame_start = pos;
    SpoolFrameView view;
    size_t consumed = 0;
    const SpoolFrameStatus status = SpoolParseFrame(data + pos, size - pos, &view, &consumed);
    if (status == SpoolFrameStatus::kTruncatedHeader || status == SpoolFrameStatus::kBadHeader) {
      // Torn or corrupt header: the length field cannot be trusted, so the
      // scan cannot continue past it.
      result.frames_damaged = 1;
      result.bytes_discarded = size - frame_start;
      break;
    }
    if (status == SpoolFrameStatus::kTruncatedPayload ||
        status == SpoolFrameStatus::kBadPayload) {
      // Damaged payload under an intact header. Whether the payload was cut
      // short (truncation, including the boundary case where the declared
      // length runs exactly to or past EOF) or fails its CRC in place (torn
      // write, bit flip), the header -- and so the shipment head at the
      // front of whatever payload bytes survive -- is trustworthy: count
      // the known loss, then stop.
      result.frames_damaged = 1;
      result.bytes_discarded = size - frame_start;
      if (static_cast<SpoolFrameType>(view.type) == SpoolFrameType::kShipment) {
        size_t p = 0;
        ShipmentHeader h;
        if (GetScalar(view.payload, view.payload_available, &p, &h.system_id) &&
            GetScalar(view.payload, view.payload_available, &p, &h.sequence) &&
            GetScalar(view.payload, view.payload_available, &p, &h.attempt) &&
            GetScalar(view.payload, view.payload_available, &p, &h.record_count) &&
            h.record_count <= view.payload_size / sizeof(TraceRecord)) {
          result.records_lost_known = h.record_count;
        }
      }
      break;
    }
    pos += consumed;

    // Frame is intact; decode by type. A decode failure (payload shorter
    // than its own structure claims) is corruption the CRC cannot have
    // missed unless the writer was broken -- treat it as damage all the same.
    const uint8_t* payload = view.payload;
    const size_t payload_size = view.payload_size;
    bool decoded = true;
    switch (static_cast<SpoolFrameType>(view.type)) {
      case SpoolFrameType::kShipment: {
        SpoolReadResult::Shipment s;
        decoded = SpoolDecodeShipment(payload, payload_size, &s.header, &s.records);
        if (decoded) {
          result.records_recovered += s.records.size();
          result.shipments.push_back(std::move(s));
        }
        break;
      }
      case SpoolFrameType::kRecords: {
        std::vector<TraceRecord> records;
        decoded = SpoolDecodeRecords(payload, payload_size, &records);
        if (decoded) {
          result.records_recovered += records.size();
          result.loose.push_back(std::move(records));
        }
        break;
      }
      case SpoolFrameType::kName: {
        NameRecord n;
        decoded = SpoolDecodeName(payload, payload_size, &n);
        if (decoded) {
          result.names.push_back(std::move(n));
        }
        break;
      }
      case SpoolFrameType::kCompletion:
        result.completion.assign(payload, payload + payload_size);
        break;
      case SpoolFrameType::kSeal: {
        size_t p = 0;
        decoded = GetScalar(payload, payload_size, &p, &result.seal.records_delivered) &&
                  GetScalar(payload, payload_size, &p, &result.seal.records_collected) &&
                  GetScalar(payload, payload_size, &p, &result.seal.name_count) &&
                  GetScalar(payload, payload_size, &p, &result.seal.frame_count);
        result.sealed = decoded;
        break;
      }
      case SpoolFrameType::kManifest: {
        SpoolManifestEntry e;
        uint32_t len = 0;
        size_t p = 0;
        decoded = GetScalar(payload, payload_size, &p, &e.system_id) &&
                  GetScalar(payload, payload_size, &p, &e.records_collected) &&
                  GetScalar(payload, payload_size, &p, &len) && payload_size - p >= len;
        if (decoded) {
          e.segment_file.assign(reinterpret_cast<const char*>(payload + p), len);
          result.manifest.push_back(std::move(e));
        }
        break;
      }
      default:
        // Unknown type under a valid CRC: a future writer. Skip the frame
        // but keep scanning -- forward compatibility within v1.
        break;
    }
    if (!decoded) {
      result.frames_damaged = 1;
      result.bytes_discarded = size - frame_start;
      break;
    }
    ++result.frames_valid;
    if (result.sealed) {
      // Anything after the seal is not part of the segment.
      result.bytes_discarded = size - pos;
      break;
    }
  }

  metrics.frames_salvaged.Inc(result.frames_valid);
  metrics.frames_damaged.Inc(result.frames_damaged);
  metrics.records_recovered.Inc(result.records_recovered);
  metrics.bytes_discarded.Inc(result.bytes_discarded);
  return result;
}

std::string SpoolSegmentName(uint32_t system_id) {
  return "sys_" + std::to_string(system_id) + ".ntspool";
}

bool SpoolReplaySegment(SpoolReadResult* segment, uint32_t system_id, uint64_t config_fingerprint,
                        CollectionServer* server) {
  if (!segment->header_valid || segment->system_id != system_id ||
      segment->config_fingerprint != config_fingerprint) {
    return false;
  }
  for (SpoolReadResult::Shipment& s : segment->shipments) {
    server->DeliverShipment(s.header, std::move(s.records));
  }
  for (std::vector<TraceRecord>& loose : segment->loose) {
    server->DeliverRecords(std::move(loose));
  }
  for (NameRecord& n : segment->names) {
    server->DeliverName(std::move(n));
  }
  return true;
}

}  // namespace ntrace
