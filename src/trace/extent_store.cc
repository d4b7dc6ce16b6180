#include "src/trace/extent_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/metrics/metrics.h"

namespace ntrace {
namespace {

// Extent-store I/O and salvage counters. Wall-clock bookkeeping only, never
// part of the bit-identical output contract.
struct ExtentMetrics {
  Counter& extents_written;
  Counter& records_written;
  Counter& bytes_written;
  Counter& extents_recovered;
  Counter& records_recovered;
  Counter& frames_damaged;

  static ExtentMetrics& Get() {
    static ExtentMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return ExtentMetrics{
          r.GetCounter("ntrace_extent_extents_written_total",
                       "Column extents appended to extent-store files"),
          r.GetCounter("ntrace_extent_records_written_total",
                       "Trace records appended to extent-store files"),
          r.GetCounter("ntrace_extent_bytes_written_total",
                       "Bytes appended to extent-store files (headers included)"),
          r.GetCounter("ntrace_extent_extents_recovered_total",
                       "Valid column extents decoded by the extent stream reader"),
          r.GetCounter("ntrace_extent_records_recovered_total",
                       "Trace records recovered from extent-store files"),
          r.GetCounter("ntrace_extent_frames_damaged_total",
                       "Torn/corrupt/truncated frames the extent reader stopped at"),
      };
    }();
    return m;
  }
};

// --- Varint / zigzag primitives (the delta and RLE codecs) ------------------

inline size_t VarintLen(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

inline void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

inline bool GetVarint(const uint8_t* data, size_t size, size_t* pos, uint64_t* out) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64 && *pos < size; shift += 7) {
    const uint8_t b = data[(*pos)++];
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}

inline uint64_t ZigZag(uint64_t delta) {
  return (delta << 1) ^ static_cast<uint64_t>(static_cast<int64_t>(delta) >> 63);
}

inline uint64_t UnZigZag(uint64_t z) { return (z >> 1) ^ (~(z & 1) + 1); }

// --- Per-codec encoders, decoders and exact size predictors -----------------
// All arithmetic is wrapping u64: signed columns pass through
// static_cast<uint64_t> unchanged, so deltas and ranges are exact mod 2^64.

template <typename T>
size_t DeltaVarintSize(const std::vector<T>& c) {
  size_t bytes = 0;
  uint64_t prev = 0;
  for (T v : c) {
    const uint64_t u = static_cast<uint64_t>(v);
    bytes += VarintLen(ZigZag(u - prev));
    prev = u;
  }
  return bytes;
}

template <typename T>
void EncodeDeltaVarint(std::vector<uint8_t>* out, const std::vector<T>& c) {
  uint64_t prev = 0;
  for (T v : c) {
    const uint64_t u = static_cast<uint64_t>(v);
    PutVarint(out, ZigZag(u - prev));
    prev = u;
  }
}

template <typename T>
bool DecodeDeltaVarint(const uint8_t* data, size_t end, size_t* pos, size_t count,
                       std::vector<T>* c) {
  c->resize(count);
  uint64_t prev = 0;
  for (size_t i = 0; i < count; ++i) {
    uint64_t z = 0;
    if (!GetVarint(data, end, pos, &z)) {
      return false;
    }
    prev += UnZigZag(z);
    (*c)[i] = static_cast<T>(prev);
  }
  return true;
}

inline uint8_t BitsFor(uint64_t range) {
  return range == 0 ? 0 : static_cast<uint8_t>(64 - __builtin_clzll(range));
}

template <typename T>
void EncodeBitPack(std::vector<uint8_t>* out, const std::vector<T>& c, T min, uint8_t bits) {
  PutScalar<uint64_t>(out, static_cast<uint64_t>(min));
  out->push_back(bits);
  unsigned __int128 acc = 0;
  int nbits = 0;
  for (T v : c) {
    const uint64_t d = static_cast<uint64_t>(v) - static_cast<uint64_t>(min);
    acc |= static_cast<unsigned __int128>(d) << nbits;
    nbits += bits;
    while (nbits >= 8) {
      out->push_back(static_cast<uint8_t>(acc));
      acc >>= 8;
      nbits -= 8;
    }
  }
  if (nbits > 0) {
    out->push_back(static_cast<uint8_t>(acc));
  }
}

template <typename T>
bool DecodeBitPack(const uint8_t* data, size_t end, size_t* pos, size_t count,
                   std::vector<T>* c) {
  uint64_t min = 0;
  uint8_t bits = 0;
  if (!GetScalar(data, end, pos, &min) || !GetScalar(data, end, pos, &bits) ||
      bits > 8 * sizeof(T)) {
    return false;
  }
  const size_t packed = (count * bits + 7) / 8;
  if (end - *pos < packed) {
    return false;
  }
  const uint64_t mask = bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
  const uint8_t* p = data + *pos;
  c->resize(count);
  unsigned __int128 acc = 0;
  int nbits = 0;
  size_t byte = 0;
  for (size_t i = 0; i < count; ++i) {
    while (nbits < bits) {
      acc |= static_cast<unsigned __int128>(p[byte++]) << nbits;
      nbits += 8;
    }
    (*c)[i] = static_cast<T>(min + (static_cast<uint64_t>(acc) & mask));
    acc >>= bits;
    nbits -= bits;
  }
  *pos += packed;
  return true;
}

template <typename T>
size_t RleSize(const std::vector<T>& c) {
  size_t bytes = 0;
  size_t i = 0;
  while (i < c.size()) {
    size_t j = i + 1;
    while (j < c.size() && c[j] == c[i]) {
      ++j;
    }
    bytes += VarintLen(j - i) + sizeof(T);
    i = j;
  }
  return bytes;
}

template <typename T>
void EncodeRle(std::vector<uint8_t>* out, const std::vector<T>& c) {
  size_t i = 0;
  while (i < c.size()) {
    size_t j = i + 1;
    while (j < c.size() && c[j] == c[i]) {
      ++j;
    }
    PutVarint(out, j - i);
    PutScalar<T>(out, c[i]);
    i = j;
  }
}

template <typename T>
bool DecodeRle(const uint8_t* data, size_t end, size_t* pos, size_t count,
               std::vector<T>* c) {
  c->clear();
  c->reserve(count);
  while (c->size() < count) {
    uint64_t run = 0;
    T value{};
    if (!GetVarint(data, end, pos, &run) || run == 0 || run > count - c->size() ||
        !GetScalar(data, end, pos, &value)) {
      return false;
    }
    c->insert(c->end(), static_cast<size_t>(run), value);
  }
  return true;
}

// Appends one column to an extent payload as `u8 encoding | u32 encoded
// bytes | bytes`. With compress on, every applicable codec's exact output
// size is computed and the smallest wins (ties resolve to the lowest
// encoding id, keeping the bytes deterministic); compress off restricts the
// field to the raw/const pair, the uncompressed baseline.
template <typename T>
void PutColumn(std::vector<uint8_t>* out, const std::vector<T>& column, bool compress) {
  const size_t n = column.size();
  const auto emit = [&](ColumnEncoding enc, auto&& body) {
    out->push_back(static_cast<uint8_t>(enc));
    const size_t len_pos = out->size();
    PutScalar<uint32_t>(out, 0);  // Patched below.
    const size_t base = out->size();
    body();
    const uint32_t enc_bytes = static_cast<uint32_t>(out->size() - base);
    for (size_t b = 0; b < 4; ++b) {
      (*out)[len_pos + b] = static_cast<uint8_t>(enc_bytes >> (8 * b));
    }
  };
  const auto emit_raw = [&] {
    emit(ColumnEncoding::kRaw, [&] {
      const size_t base = out->size();
      out->resize(base + n * sizeof(T));
      // The format is explicitly little-endian; raw memcpy matches on every
      // platform this builds for (the spool serializes records the same way).
      std::memcpy(out->data() + base, column.data(), n * sizeof(T));
    });
  };
  if (n == 0) {
    emit(ColumnEncoding::kRaw, [] {});
    return;
  }
  T mn = column.front();
  T mx = column.front();
  for (T v : column) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  const bool all_equal = mn == mx;
  if (!compress) {
    if (all_equal) {
      emit(ColumnEncoding::kConst, [&] { PutScalar<T>(out, column.front()); });
    } else {
      emit_raw();
    }
    return;
  }
  size_t best_size = n * sizeof(T);
  ColumnEncoding best = ColumnEncoding::kRaw;
  const auto consider = [&](ColumnEncoding enc, size_t size) {
    if (size < best_size) {
      best_size = size;
      best = enc;
    }
  };
  if (all_equal) {
    consider(ColumnEncoding::kConst, sizeof(T));
  }
  consider(ColumnEncoding::kDeltaVarint, DeltaVarintSize(column));
  const uint8_t bits = BitsFor(static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn));
  consider(ColumnEncoding::kBitPack, 9 + (n * bits + 7) / 8);
  consider(ColumnEncoding::kRle, RleSize(column));
  switch (best) {
    case ColumnEncoding::kRaw:
      emit_raw();
      break;
    case ColumnEncoding::kConst:
      emit(ColumnEncoding::kConst, [&] { PutScalar<T>(out, column.front()); });
      break;
    case ColumnEncoding::kDeltaVarint:
      emit(ColumnEncoding::kDeltaVarint, [&] { EncodeDeltaVarint(out, column); });
      break;
    case ColumnEncoding::kBitPack:
      emit(ColumnEncoding::kBitPack, [&] { EncodeBitPack(out, column, mn, bits); });
      break;
    case ColumnEncoding::kRle:
      emit(ColumnEncoding::kRle, [&] { EncodeRle(out, column); });
      break;
  }
}

// Decodes (or, when !wanted, skips over) one column. Every violation --
// unknown encoding, a length field past the payload, a codec consuming
// anything but exactly its declared bytes -- reports damage to the caller;
// the salvage contract turns that into a prefix, never a crash.
template <typename T>
bool GetColumn(const uint8_t* data, size_t size, size_t* pos, size_t count,
               std::vector<T>* column, bool wanted) {
  uint8_t encoding = 0;
  uint32_t enc_bytes = 0;
  if (!GetScalar(data, size, pos, &encoding) || !GetScalar(data, size, pos, &enc_bytes) ||
      size - *pos < enc_bytes) {
    return false;
  }
  const size_t col_end = *pos + enc_bytes;
  if (!wanted) {
    column->clear();
    *pos = col_end;
    return true;
  }
  bool ok = false;
  switch (static_cast<ColumnEncoding>(encoding)) {
    case ColumnEncoding::kRaw:
      ok = enc_bytes == count * sizeof(T);
      if (ok) {
        column->resize(count);
        std::memcpy(column->data(), data + *pos, enc_bytes);
        *pos = col_end;
      }
      break;
    case ColumnEncoding::kConst: {
      T value{};
      ok = enc_bytes == sizeof(T) && GetScalar(data, col_end, pos, &value);
      if (ok) {
        column->assign(count, value);
      }
      break;
    }
    case ColumnEncoding::kDeltaVarint:
      ok = DecodeDeltaVarint(data, col_end, pos, count, column);
      break;
    case ColumnEncoding::kBitPack:
      ok = DecodeBitPack(data, col_end, pos, count, column);
      break;
    case ColumnEncoding::kRle:
      ok = DecodeRle(data, col_end, pos, count, column);
      break;
    default:
      return false;
  }
  return ok && *pos == col_end;
}

}  // namespace

// ---------------------------------------------------------------------------
// ColumnarExtent
// ---------------------------------------------------------------------------

void ColumnarExtent::Reserve(size_t n) {
#define NTRACE_X(name, type) name.reserve(n);
  NTRACE_EXTENT_COLUMNS(NTRACE_X)
#undef NTRACE_X
}

void ColumnarExtent::Clear() {
#define NTRACE_X(name, type) name.clear();
  NTRACE_EXTENT_COLUMNS(NTRACE_X)
#undef NTRACE_X
  min_start_ticks = 0;
  max_start_ticks = 0;
  min_complete_ticks = 0;
  max_complete_ticks = 0;
}

void ColumnarExtent::AppendRow(const TraceRecord& r) {
  if (empty()) {
    min_start_ticks = max_start_ticks = r.start_ticks;
    min_complete_ticks = max_complete_ticks = r.complete_ticks;
  } else {
    min_start_ticks = std::min(min_start_ticks, r.start_ticks);
    max_start_ticks = std::max(max_start_ticks, r.start_ticks);
    min_complete_ticks = std::min(min_complete_ticks, r.complete_ticks);
    max_complete_ticks = std::max(max_complete_ticks, r.complete_ticks);
  }
#define NTRACE_X(name, type) name.push_back(r.name);
  NTRACE_EXTENT_COLUMNS(NTRACE_X)
#undef NTRACE_X
}

TraceRecord ColumnarExtent::RowAt(size_t i) const {
  TraceRecord r;
#define NTRACE_X(name, type) r.name = name[i];
  NTRACE_EXTENT_COLUMNS(NTRACE_X)
#undef NTRACE_X
  return r;
}

ColumnBatch ColumnBatch::Of(const ColumnarExtent& e, size_t begin, size_t count) {
  ColumnBatch b;
  b.count = count;
#define NTRACE_X(name, type) b.name = e.name.data() + begin;
  NTRACE_EXTENT_COLUMNS(NTRACE_X)
#undef NTRACE_X
  return b;
}

// ---------------------------------------------------------------------------
// ExtentStoreWriter
// ---------------------------------------------------------------------------

bool ExtentStoreWriter::Open(const std::string& path, uint32_t extent_records,
                             uint64_t config_fingerprint, bool compress) {
  sealed_ = false;
  compress_ = compress;
  config_fingerprint_ = config_fingerprint;
  records_written_ = 0;
  extents_written_ = 0;
  frames_written_ = 0;
  pending_.Clear();
  dict_.clear();
  dict_index_.clear();
  names_.clear();
  procs_.clear();
  extent_records_ = std::max<uint32_t>(1, std::min(extent_records, kMaxExtentRecords));
  if (!file_.Open(path,
                  FrameFileHeader{kExtentStoreMagic, kExtentStoreVersion, extent_records_,
                                  config_fingerprint},
                  &ExtentMetrics::Get().bytes_written)) {
    return false;
  }
  pending_.Reserve(extent_records_);
  return true;
}

bool ExtentStoreWriter::WriteFrame(ExtentFrameType type) {
  if (!file_.Append(static_cast<uint16_t>(type), nullptr, 0, payload_.data(), payload_.size(),
                    /*checkpoint=*/type == ExtentFrameType::kSeal)) {
    return false;
  }
  ++frames_written_;
  return true;
}

bool ExtentStoreWriter::FlushExtent() {
  if (pending_.empty()) {
    return true;
  }
  payload_.clear();
  PutScalar<uint32_t>(&payload_, static_cast<uint32_t>(pending_.size()));
  PutScalar<int64_t>(&payload_, pending_.min_start_ticks);
  PutScalar<int64_t>(&payload_, pending_.max_start_ticks);
  PutScalar<int64_t>(&payload_, pending_.min_complete_ticks);
  PutScalar<int64_t>(&payload_, pending_.max_complete_ticks);
#define NTRACE_X(name, type) PutColumn<type>(&payload_, pending_.name, compress_);
  NTRACE_EXTENT_COLUMNS(NTRACE_X)
#undef NTRACE_X
  const auto records = static_cast<uint32_t>(pending_.size());
  pending_.Clear();
  return WriteExtent(payload_.data(), payload_.size(), records);
}

bool ExtentStoreWriter::WriteExtent(const uint8_t* payload, size_t size, uint32_t records) {
  // The payload rides as the tail: a full extent is never staged.
  if (!file_.Append(static_cast<uint16_t>(ExtentFrameType::kExtent), nullptr, 0, payload, size,
                    /*checkpoint=*/false)) {
    return false;
  }
  ExtentMetrics& m = ExtentMetrics::Get();
  m.extents_written.Inc();
  m.records_written.Inc(records);
  records_written_ += records;
  ++extents_written_;
  ++frames_written_;
  return true;
}

bool ExtentStoreWriter::AppendEncodedExtent(const uint8_t* payload, size_t size,
                                            uint32_t records) {
  return FlushExtent() && WriteExtent(payload, size, records);
}

bool ExtentStoreWriter::AppendRecord(const TraceRecord& r) {
  pending_.AppendRow(r);
  return pending_.size() < extent_records_ || FlushExtent();
}

bool ExtentStoreWriter::AppendRecords(const TraceRecord* rows, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!AppendRecord(rows[i])) {
      return false;
    }
  }
  return true;
}

void ExtentStoreWriter::AddName(const NameRecord& name) {
  auto [it, inserted] = dict_index_.emplace(name.path, static_cast<uint32_t>(dict_.size()));
  if (inserted) {
    dict_.push_back(name.path);
  }
  names_.push_back(NameEntry{name.file_object, name.system_id, it->second});
}

void ExtentStoreWriter::AddProcessName(uint32_t pid, const std::string& name) {
  auto [it, inserted] = dict_index_.emplace(name, static_cast<uint32_t>(dict_.size()));
  if (inserted) {
    dict_.push_back(name);
  }
  procs_.push_back(ProcEntry{pid, it->second});
}

bool ExtentStoreWriter::Seal() {
  if (sealed_) {
    return ok();
  }
  if (!FlushExtent()) {
    return false;
  }
  // Dictionary chunks: bounded well under the codec's payload cap so one
  // pathological path population cannot produce an unreadable frame.
  constexpr size_t kDictChunkBytes = 8u << 20;
  size_t i = 0;
  while (i < dict_.size()) {
    payload_.clear();
    const size_t count_pos = payload_.size();
    PutScalar<uint32_t>(&payload_, 0);  // Patched below.
    uint32_t in_chunk = 0;
    while (i < dict_.size() && payload_.size() < kDictChunkBytes) {
      PutScalar<uint32_t>(&payload_, static_cast<uint32_t>(dict_[i].size()));
      payload_.insert(payload_.end(), dict_[i].begin(), dict_[i].end());
      ++in_chunk;
      ++i;
    }
    for (size_t b = 0; b < 4; ++b) {
      payload_[count_pos + b] = static_cast<uint8_t>(in_chunk >> (8 * b));
    }
    if (!WriteFrame(ExtentFrameType::kDict)) {
      return false;
    }
  }
  // Name records, columnar, chunked the same way.
  constexpr size_t kNameChunk = 1u << 20;
  size_t base = 0;
  do {  // At least one frame, even for an empty table.
    const size_t n = std::min(kNameChunk, names_.size() - base);
    payload_.clear();
    PutScalar<uint32_t>(&payload_, static_cast<uint32_t>(n));
    for (size_t k = 0; k < n; ++k) {
      PutScalar<uint64_t>(&payload_, names_[base + k].file_object);
    }
    for (size_t k = 0; k < n; ++k) {
      PutScalar<uint32_t>(&payload_, names_[base + k].system_id);
    }
    for (size_t k = 0; k < n; ++k) {
      PutScalar<uint32_t>(&payload_, names_[base + k].dict);
    }
    if (!WriteFrame(ExtentFrameType::kNames)) {
      return false;
    }
    base += n;
  } while (base < names_.size());
  payload_.clear();
  PutScalar<uint32_t>(&payload_, static_cast<uint32_t>(procs_.size()));
  for (const ProcEntry& p : procs_) {
    PutScalar<uint32_t>(&payload_, p.pid);
  }
  for (const ProcEntry& p : procs_) {
    PutScalar<uint32_t>(&payload_, p.dict);
  }
  if (!WriteFrame(ExtentFrameType::kProcs)) {
    return false;
  }
  payload_.clear();
  PutScalar<uint64_t>(&payload_, records_written_);
  PutScalar<uint64_t>(&payload_, extents_written_);
  PutScalar<uint64_t>(&payload_, static_cast<uint64_t>(names_.size()));
  PutScalar<uint64_t>(&payload_, static_cast<uint64_t>(procs_.size()));
  PutScalar<uint64_t>(&payload_, static_cast<uint64_t>(dict_.size()));
  if (!WriteFrame(ExtentFrameType::kSeal)) {
    return false;
  }
  sealed_ = true;
  return true;
}

ExtentReadStats ExtentStoreWriter::SealedStats() const {
  ExtentReadStats s;
  s.file_opened = s.header_valid = s.sealed = true;
  s.version = kExtentStoreVersion;
  s.config_fingerprint = config_fingerprint_;
  s.frames_valid = frames_written_;
  s.extent_capacity = extent_records_;
  s.extents_recovered = s.seal_extents = extents_written_;
  s.records_recovered = s.seal_records = records_written_;
  s.names_recovered = s.seal_names = names_.size();
  s.seal_procs = procs_.size();
  s.seal_dict_entries = dict_.size();
  return s;
}

// ---------------------------------------------------------------------------
// ExtentStreamReader
// ---------------------------------------------------------------------------

namespace {

// A damaged extent frame whose head survived still declares its record
// count: it rides at the front of the payload.
uint64_t ExtentLostKnown(const SpoolFrameView& damaged) {
  size_t p = 0;
  uint32_t record_count = 0;
  if (static_cast<ExtentFrameType>(damaged.type) == ExtentFrameType::kExtent &&
      GetScalar(damaged.payload, damaged.payload_available, &p, &record_count) &&
      record_count <= kMaxExtentRecords) {
    return record_count;
  }
  return 0;
}

}  // namespace

bool ExtentStreamReader::Open(const std::string& path) {
  const bool opened = file_.Open(path, kExtentStoreMagic, kExtentStoreVersion, &ExtentLostKnown);
  static_cast<FrameSalvage&>(stats_) = file_.salvage();
  stats_.extent_capacity = file_.header().param;
  return opened;
}

bool ExtentStreamReader::DecodeExtent(const SpoolFrameView& view, uint32_t mask,
                                      ColumnarExtent* out) {
  const uint8_t* payload = view.payload;
  const size_t size = view.payload_size;
  size_t pos = 0;
  uint32_t count = 0;
  bool decoded = GetScalar(payload, size, &pos, &count) && count <= kMaxExtentRecords &&
                 GetScalar(payload, size, &pos, &out->min_start_ticks) &&
                 GetScalar(payload, size, &pos, &out->max_start_ticks) &&
                 GetScalar(payload, size, &pos, &out->min_complete_ticks) &&
                 GetScalar(payload, size, &pos, &out->max_complete_ticks);
#define NTRACE_X(name, type)                                                   \
  decoded = decoded && GetColumn<type>(payload, size, &pos, count, &out->name, \
                                       (mask & (1u << kExtentCol_##name)) != 0);
  NTRACE_EXTENT_COLUMNS(NTRACE_X)
#undef NTRACE_X
  if (!decoded) {
    return false;
  }
  ++stats_.extents_recovered;
  stats_.records_recovered += count;
  ExtentMetrics& m = ExtentMetrics::Get();
  m.extents_recovered.Inc();
  m.records_recovered.Inc(count);
  return true;
}

bool ExtentStreamReader::DecodeTail(const SpoolFrameView& view) {
  const uint8_t* payload = view.payload;
  const size_t size = view.payload_size;
  size_t pos = 0;
  switch (static_cast<ExtentFrameType>(view.type)) {
    case ExtentFrameType::kDict: {
      uint32_t count = 0;
      if (!GetScalar(payload, size, &pos, &count)) {
        return false;
      }
      for (uint32_t i = 0; i < count; ++i) {
        uint32_t len = 0;
        if (!GetScalar(payload, size, &pos, &len) || size - pos < len) {
          return false;
        }
        dict_.emplace_back(reinterpret_cast<const char*>(payload + pos), len);
        pos += len;
      }
      return true;
    }
    case ExtentFrameType::kNames: {
      uint32_t count = 0;
      if (!GetScalar(payload, size, &pos, &count) ||
          size - pos < static_cast<size_t>(count) * 16) {
        return false;
      }
      const size_t base = names_.size();
      names_.resize(base + count);
      for (uint32_t i = 0; i < count; ++i) {
        if (!GetScalar(payload, size, &pos, &names_[base + i].file_object)) {
          return false;
        }
      }
      for (uint32_t i = 0; i < count; ++i) {
        if (!GetScalar(payload, size, &pos, &names_[base + i].system_id)) {
          return false;
        }
      }
      for (uint32_t i = 0; i < count; ++i) {
        uint32_t dict = 0;
        if (!GetScalar(payload, size, &pos, &dict) || dict >= dict_.size()) {
          return false;
        }
        names_[base + i].path = dict_[dict];
      }
      stats_.names_recovered += count;
      return true;
    }
    case ExtentFrameType::kProcs: {
      uint32_t count = 0;
      if (!GetScalar(payload, size, &pos, &count) ||
          size - pos < static_cast<size_t>(count) * 8) {
        return false;
      }
      std::vector<uint32_t> pids(count);
      for (uint32_t i = 0; i < count; ++i) {
        if (!GetScalar(payload, size, &pos, &pids[i])) {
          return false;
        }
      }
      for (uint32_t i = 0; i < count; ++i) {
        uint32_t dict = 0;
        if (!GetScalar(payload, size, &pos, &dict) || dict >= dict_.size()) {
          return false;
        }
        process_names_.emplace_back(pids[i], dict_[dict]);
      }
      return true;
    }
    case ExtentFrameType::kSeal:
      return GetScalar(payload, size, &pos, &stats_.seal_records) &&
             GetScalar(payload, size, &pos, &stats_.seal_extents) &&
             GetScalar(payload, size, &pos, &stats_.seal_names) &&
             GetScalar(payload, size, &pos, &stats_.seal_procs) &&
             GetScalar(payload, size, &pos, &stats_.seal_dict_entries);
    default:
      return true;  // Unknown type under a valid CRC: future writer; skip.
  }
}

bool ExtentStreamReader::NextExtent(ColumnarExtent* out, uint32_t column_mask,
                                    SpoolFrameView* frame) {
  // The event column carries the extent's row count for every consumer
  // (ColumnarExtent::size() is event.size()); no projection drops it.
  const uint32_t mask = column_mask | (1u << kExtentCol_event);
  bool got_extent = false;
  SpoolFrameView view;
  while (!got_extent && file_.Next(&view)) {
    const auto type = static_cast<ExtentFrameType>(view.type);
    got_extent = type == ExtentFrameType::kExtent;
    if (!(got_extent ? DecodeExtent(view, mask, out) : DecodeTail(view))) {
      got_extent = false;
      file_.Reject();
    } else if (type == ExtentFrameType::kSeal) {
      file_.Seal();
    }
  }
  if (got_extent && frame != nullptr) {
    *frame = view;
  }
  const bool was_damaged = stats_.frames_damaged > 0;
  static_cast<FrameSalvage&>(stats_) = file_.salvage();
  if (!was_damaged && stats_.frames_damaged > 0) {
    ExtentMetrics::Get().frames_damaged.Inc();
  }
  return got_extent;
}

// ---------------------------------------------------------------------------
// ColumnarTraceSet
// ---------------------------------------------------------------------------

void ColumnarTraceSet::ForEachBatch(const std::function<void(const ColumnBatch&)>& fn,
                                    uint32_t column_mask) const {
  ExtentStreamReader reader;
  if (!reader.Open(spill_path_)) {
    return;
  }
  ColumnarExtent extent;
  while (reader.NextExtent(&extent, column_mask)) {
    if (!extent.empty()) {
      fn(ColumnBatch::Of(extent));
    }
  }
}

ColumnarTraceSet ColumnarTraceSet::FromFile(const std::string& path) {
  ColumnarTraceSet out;
  ExtentStreamReader reader;
  uint64_t records = 0;
  if (reader.Open(path)) {
    ColumnarExtent extent;
    // Counting prescan: only the spine column is decoded; the per-column
    // length fields let everything else skip in O(1).
    while (reader.NextExtent(&extent, 1u << kExtentCol_event)) {
      records += extent.size();
    }
    out.names = reader.names();
    out.process_names = reader.process_names();
  }
  out.spill_path_ = path;
  out.record_count_ = records;
  out.read_stats_ = reader.stats();
  return out;
}

ColumnarTraceSet ColumnarTraceSet::WriteMerged(
    const std::string& path, const std::vector<std::string>& inputs, std::vector<NameRecord> names,
    std::vector<std::pair<uint32_t, std::string>> process_names, uint32_t extent_records,
    uint64_t config_fingerprint) {
  ExtentStoreWriter writer;
  writer.Open(path, extent_records, config_fingerprint);
  MergeExtentStreams(inputs, &writer);
  for (const NameRecord& n : names) {
    writer.AddName(n);
  }
  for (const auto& [pid, name] : process_names) {
    writer.AddProcessName(pid, name);
  }
  const bool sealed = writer.Seal();
  writer.Close();
  if (!sealed) {
    return FromFile(path);
  }
  ColumnarTraceSet out;
  out.names = std::move(names);
  out.process_names = std::move(process_names);
  out.spill_path_ = path;
  out.read_stats_ = writer.SealedStats();
  out.record_count_ = out.read_stats_.records_recovered;
  return out;
}

TraceSet ColumnarTraceSet::ToRows() const {
  TraceSet out;
  out.records.reserve(static_cast<size_t>(record_count_));
  ForEachBatch([&](const ColumnBatch& b) {
    const size_t base = out.records.size();
    out.records.resize(base + b.count);
    for (size_t i = 0; i < b.count; ++i) {
      TraceRecord& r = out.records[base + i];
#define NTRACE_X(name, type) r.name = b.name[i];
      NTRACE_EXTENT_COLUMNS(NTRACE_X)
#undef NTRACE_X
    }
  });
  out.names = names;
  for (const auto& [pid, name] : process_names) {
    out.process_names.emplace(pid, name);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Extent-stream merge
// ---------------------------------------------------------------------------

ExtentMergeResult MergeExtentStreams(const std::vector<std::string>& inputs,
                                     ExtentStoreWriter* writer) {
  ExtentMergeResult result;
  ColumnarExtent spine;
  SpoolFrameView frame;
  for (const std::string& path : inputs) {
    ExtentStreamReader reader;
    reader.Open(path);
    while (reader.NextExtent(&spine, 1u << kExtentCol_event, &frame)) {
      writer->AppendEncodedExtent(frame.payload, frame.payload_size,
                                  static_cast<uint32_t>(spine.size()));
      result.records += spine.size();
    }
    if (reader.stats().frames_damaged > 0) {
      ++result.inputs_damaged;
      result.records_lost_known += reader.stats().records_lost_known;
    }
  }
  return result;
}

}  // namespace ntrace
