#include "src/trace/spool.h"

#include <algorithm>
#include <cstring>
#include <utility>

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

bool GetShipmentHead(const uint8_t* data, size_t size, size_t* pos, ShipmentHeader* h) {
  return GetScalar(data, size, pos, &h->system_id) && GetScalar(data, size, pos, &h->sequence) &&
         GetScalar(data, size, pos, &h->attempt) && GetScalar(data, size, pos, &h->record_count);
}

// A damaged shipment frame whose head survived still declares how many
// records it carried.
uint64_t ShipmentLostKnown(const SpoolFrameView& damaged) {
  size_t p = 0;
  ShipmentHeader h;
  if (static_cast<SpoolFrameType>(damaged.type) == SpoolFrameType::kShipment &&
      GetShipmentHead(damaged.payload, damaged.payload_available, &p, &h) &&
      h.record_count <= damaged.payload_size / sizeof(TraceRecord)) {
    return h.record_count;
  }
  return 0;
}

bool DecodeShipment(const uint8_t* payload, size_t size, CollectionServer* server,
                    uint64_t* records) {
  size_t pos = 0;
  ShipmentHeader h;
  if (!GetShipmentHead(payload, size, &pos, &h) ||
      h.record_count > (size - pos) / sizeof(TraceRecord)) {
    return false;
  }
  if (server != nullptr) {
    // TraceRecord is POD without padding (static_assert in trace_record.h):
    // the raw bytes are the serialized form.
    std::vector<TraceRecord> batch(static_cast<size_t>(h.record_count));
    if (!batch.empty()) {
      std::memcpy(batch.data(), payload + pos, batch.size() * sizeof(TraceRecord));
    }
    server->DeliverShipment(h, std::move(batch));
  }
  *records += h.record_count;
  return true;
}

// The whole batch decodes before any name is delivered.
bool DecodeNames(const uint8_t* payload, size_t size, CollectionServer* server) {
  size_t pos = 0;
  uint32_t count = 0;
  uint32_t len = 0;
  std::vector<NameRecord> names;
  if (!GetScalar(payload, size, &pos, &count)) {
    return false;
  }
  while (names.size() < count) {
    NameRecord& name = names.emplace_back();
    if (!GetScalar(payload, size, &pos, &name.file_object) ||
        !GetScalar(payload, size, &pos, &name.system_id) ||
        !GetScalar(payload, size, &pos, &len) || size - pos < len) {
      return false;
    }
    name.path.assign(reinterpret_cast<const char*>(payload + pos), len);
    pos += len;
  }
  if (server != nullptr) {
    for (NameRecord& name : names) {
      server->DeliverName(std::move(name));
    }
  }
  return true;
}

}  // namespace

void SpoolEncodeShipmentHead(std::vector<uint8_t>* out, const ShipmentHeader& h) {
  PutScalar<uint32_t>(out, h.system_id);
  PutScalar<uint64_t>(out, h.sequence);
  PutScalar<uint32_t>(out, h.attempt);
  PutScalar<uint64_t>(out, h.record_count);
}

void SpoolNameBatch::Add(const NameRecord& name) {
  payload.resize(std::max(payload.size(), sizeof(count)));  // Room for the head.
  PutScalar<uint64_t>(&payload, name.file_object);
  PutScalar<uint32_t>(&payload, name.system_id);
  PutScalar<uint32_t>(&payload, static_cast<uint32_t>(name.path.size()));
  PutBytes(&payload, name.path.data(), name.path.size());
  ++count;
  for (size_t i = 0; i < sizeof(count); ++i) {  // The head, kept current.
    payload[i] = static_cast<uint8_t>(count >> (8 * i));
  }
}

bool SpoolDeliverFrame(uint16_t type, const uint8_t* payload, size_t size, CollectionServer* server,
                       uint64_t* records) {
  switch (static_cast<SpoolFrameType>(type)) {
    case SpoolFrameType::kShipment:
      return DecodeShipment(payload, size, server, records);
    case SpoolFrameType::kNames:
      return DecodeNames(payload, size, server);
    default:
      return true;
  }
}

bool SpoolWriter::Open(const std::string& path, uint32_t system_id,
                       uint64_t config_fingerprint) {
  frames_written_ = records_written_ = names_written_ = 0;
  return file_.Open(path, {kSpoolMagic, kSpoolVersion, system_id, config_fingerprint},
                    &SpoolMetrics::Get().bytes_written);
}

bool SpoolWriter::OpenAppend(const std::string& path, uint32_t system_id,
                             uint64_t config_fingerprint) {
  frames_written_ = records_written_ = names_written_ = 0;
  return file_.OpenAppend(path, {kSpoolMagic, kSpoolVersion, system_id, config_fingerprint},
                          &SpoolMetrics::Get().bytes_written);
}

bool SpoolWriter::WriteFrame(SpoolFrameType type, const void* head, size_t head_size,
                             const void* tail, size_t tail_size, bool checkpoint) {
  if (!WriteNames() ||
      !file_.Append(static_cast<uint16_t>(type), head, head_size, tail, tail_size, checkpoint)) {
    return false;
  }
  ++frames_written_;
  SpoolMetrics::Get().frames_written.Inc();
  return true;
}

bool SpoolWriter::WriteNames() {
  if (names_.count == 0) {
    return true;
  }
  const uint32_t count = std::exchange(names_.count, 0);  // The nested WriteFrame sees none.
  const bool ok = WriteFrame(SpoolFrameType::kNames, names_.payload.data(), names_.payload.size(),
                             nullptr, 0, /*checkpoint=*/false);
  names_.payload.clear();
  names_written_ += ok ? count : 0;
  return ok;
}

bool SpoolWriter::AppendShipment(const ShipmentHeader& header,
                                 const std::vector<TraceRecord>& records) {
  // The record array is the payload tail, never staged. TraceRecord is POD
  // without padding (static_assert in trace_record.h): raw bytes are the
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

bool SpoolWriter::AppendName(const NameRecord& name) {
  if (!file_.ok()) {
    return false;
  }
  names_.Add(name);
  return !names_.full() || WriteNames();
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
  size_t pos = 0;
  uint32_t names = 0;
  if (static_cast<SpoolFrameType>(type) == SpoolFrameType::kNames &&
      GetScalar(static_cast<const uint8_t*>(payload), size, &pos, &names)) {
    names_written_ += names;
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
  if (!WriteNames()) {  // The totals count the staged names and their frame.
    return false;
  }
  scratch_.clear();
  PutScalar<uint64_t>(&scratch_, records_written_);
  PutScalar<uint64_t>(&scratch_, records_collected);
  PutScalar<uint64_t>(&scratch_, names_written_);
  PutScalar<uint64_t>(&scratch_, frames_written_);
  return WriteFrame(SpoolFrameType::kSeal, scratch_.data(), scratch_.size(), nullptr, 0,
                    /*checkpoint=*/true);
}

namespace {

// Decodes one intact frame into `result`, a delivery into `replay_into`.
// False means the payload is shorter than its own structure claims --
// corruption the CRC cannot have missed unless the writer was broken, so
// the scan treats it as damage.
bool DecodeSpoolFrame(const SpoolFrameView& view, SpoolReadResult* result,
                      CollectionServer* replay_into) {
  const uint8_t* payload = view.payload;
  const size_t payload_size = view.payload_size;
  if (!SpoolDeliverFrame(view.type, payload, payload_size, replay_into,
                         &result->records_recovered)) {
    return false;
  }
  switch (static_cast<SpoolFrameType>(view.type)) {
    case SpoolFrameType::kCompletion:
      result->completion.assign(payload, payload + payload_size);
      return true;
    case SpoolFrameType::kSeal: {
      size_t p = 0;
      return GetScalar(payload, payload_size, &p, &result->seal.records_delivered) &&
             GetScalar(payload, payload_size, &p, &result->seal.records_collected) &&
             GetScalar(payload, payload_size, &p, &result->seal.name_count) &&
             GetScalar(payload, payload_size, &p, &result->seal.frame_count);
    }
    case SpoolFrameType::kManifest: {
      SpoolManifestEntry e;
      uint32_t len = 0;
      size_t p = 0;
      if (!GetScalar(payload, payload_size, &p, &e.system_id) ||
          !GetScalar(payload, payload_size, &p, &e.records_collected) ||
          !GetScalar(payload, payload_size, &p, &len) || payload_size - p < len) {
        return false;
      }
      e.segment_file.assign(reinterpret_cast<const char*>(payload + p), len);
      result->manifest.push_back(std::move(e));
      return true;
    }
    default:
      // A delivery, or an unknown type from a future writer under a valid
      // CRC: skip the frame but keep scanning.
      return true;
  }
}

}  // namespace

SpoolReadResult SpoolReader::Read(const std::string& path, CollectionServer* replay_into) {
  SpoolReadResult result;
  FrameFileReader file;
  if (file.Open(path, kSpoolMagic, kSpoolVersion, &ShipmentLostKnown)) {
    result.system_id = file.header().param;
    SpoolFrameView view;
    while (file.Next(&view)) {
      if (!DecodeSpoolFrame(view, &result, replay_into)) {
        file.Reject();
      } else if (static_cast<SpoolFrameType>(view.type) == SpoolFrameType::kSeal) {
        file.Seal();
      }
    }
  }
  static_cast<FrameSalvage&>(result) = file.salvage();

  SpoolMetrics& metrics = SpoolMetrics::Get();
  metrics.frames_salvaged.Inc(result.frames_valid);
  metrics.frames_damaged.Inc(result.frames_damaged);
  metrics.records_recovered.Inc(result.records_recovered);
  metrics.bytes_discarded.Inc(result.bytes_discarded);
  return result;
}

std::string SpoolSegmentName(uint32_t system_id) {
  return "sys_" + std::to_string(system_id) + ".ntspool";
}

}  // namespace ntrace
