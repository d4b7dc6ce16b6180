#include "src/trace/spool.h"

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

}  // namespace

void SpoolEncodeShipmentHead(std::vector<uint8_t>* out, const ShipmentHeader& h) {
  PutScalar<uint32_t>(out, h.system_id);
  PutScalar<uint64_t>(out, h.sequence);
  PutScalar<uint32_t>(out, h.attempt);
  PutScalar<uint64_t>(out, h.record_count);
}

bool SpoolDecodeShipment(const uint8_t* payload, size_t size, ShipmentHeader* header,
                         std::vector<TraceRecord>* records) {
  size_t pos = 0;
  return GetShipmentHead(payload, size, &pos, header) &&
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
  if (!file_.Append(static_cast<uint16_t>(type), head, head_size, tail, tail_size,
                    checkpoint)) {
    return false;
  }
  ++frames_written_;
  SpoolMetrics::Get().frames_written.Inc();
  return true;
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
  SpoolEncodeNamePayload(&scratch_, name);
  if (!WriteFrame(SpoolFrameType::kName, scratch_.data(), scratch_.size(), nullptr, 0,
                  /*checkpoint=*/false)) {
    return false;
  }
  ++names_written_;
  return true;
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

namespace {

// Decodes one intact frame into `result`. False means the payload is
// shorter than its own structure claims -- corruption the CRC cannot have
// missed unless the writer was broken, so the scan treats it as damage.
bool DecodeSpoolFrame(const SpoolFrameView& view, SpoolReadResult* result) {
  const uint8_t* payload = view.payload;
  const size_t payload_size = view.payload_size;
  switch (static_cast<SpoolFrameType>(view.type)) {
    case SpoolFrameType::kShipment: {
      SpoolReadResult::Shipment s;
      if (!SpoolDecodeShipment(payload, payload_size, &s.header, &s.records)) {
        return false;
      }
      result->records_recovered += s.records.size();
      result->shipments.push_back(std::move(s));
      return true;
    }
    case SpoolFrameType::kRecords: {
      std::vector<TraceRecord> records;
      if (!SpoolDecodeRecords(payload, payload_size, &records)) {
        return false;
      }
      result->records_recovered += records.size();
      result->loose.push_back(std::move(records));
      return true;
    }
    case SpoolFrameType::kName: {
      NameRecord n;
      if (!SpoolDecodeName(payload, payload_size, &n)) {
        return false;
      }
      result->names.push_back(std::move(n));
      return true;
    }
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
      // Unknown type under a valid CRC: a future writer. Skip the frame
      // but keep scanning -- forward compatibility within v1.
      return true;
  }
}

}  // namespace

SpoolReadResult SpoolReader::Read(const std::string& path) {
  SpoolReadResult result;
  FrameFileReader file;
  if (file.Open(path, kSpoolMagic, kSpoolVersion, &ShipmentLostKnown)) {
    result.system_id = file.header().param;
    SpoolFrameView view;
    while (file.Next(&view)) {
      if (!DecodeSpoolFrame(view, &result)) {
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
