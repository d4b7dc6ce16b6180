// Columnar extent trace store (DESIGN.md §12) -- the DataSeries move.
//
// The row-structured TraceSet keeps every record as an 80-byte struct in one
// giant vector: fine at the 2.3M-record standard run, hopeless at the
// paper's real ~190M-record scale, and every analysis sweep drags all 80
// bytes of each record through the cache to read the handful of columns it
// needs. This store keeps the same data column-major in fixed-capacity
// *extents* (one typed array per TraceRecord column, 64K records each by
// default), which makes three things possible:
//
//   * out-of-core runs: extents stream to disk as they fill and stream back
//     one at a time, so a 1,000-system fleet is analyzed on a memory budget
//     of O(one extent), not O(total records);
//   * columnar analysis: the batch scan (src/analysis/scan_kernels.h)
//     reads only the columns it needs, straight from the column arrays;
//   * cheap re-scans: per-extent min/max timestamps let time-windowed
//     consumers skip extents wholesale, and constant-encoded columns
//     (system_id in a per-system segment, the always-zero pad word) cost
//     eight bytes instead of four per record.
//
// On disk a store is a frame vocabulary of the trace-file container
// (src/trace/frame_file.h), with its salvage contract: a damaged store
// degrades to its longest intact frame prefix plus loss accounting, never
// a hard failure (tests/extent_store_test.cc fuzzes this).
//
//   file header   u64 magic "NTCOLX01" | u32 version | u32 extent_capacity
//                 u64 config_fingerprint
//   frames        the container's v1 frames, extent-store types (>= 32):
//     kExtent     u32 record_count | i64 min/max start | i64 min/max complete
//                 | per column: u8 encoding | u32 encoded_bytes | column bytes
//     kDict       string dictionary chunk: u32 count | (u32 len, bytes)*
//     kNames      columnar NameRecords: u32 count | file_object[] u64
//                 | system_id[] u32 | dict index[] u32
//     kProcs      process names in insertion order: u32 count | pid[] u32
//                 | dict index[] u32
//     kSeal       totals: records, extents, names, procs, dict entries
//
// Columns compress independently (DESIGN.md §15): besides the raw and
// constant encodings, near-sorted integer columns (ticks, offsets) take
// zigzag-varint deltas, narrow-range columns take frame-of-reference
// bitpacking, and low-cardinality columns (event, status, disposition,
// create_action) take run-length encoding. The writer computes the exact
// encoded size of every applicable codec per column per extent and keeps
// the smallest (ties resolve to the lowest encoding id, so output bytes are
// deterministic). The u32 encoded-length field makes every column
// skippable without decoding, which is what lets a scan decode only the
// columns it reads (NextExtent's column_mask). Compression changes nothing
// about the frame contract: payloads still ride the container's CRC-32C
// frames and a damaged store still degrades to its longest intact prefix.
//
// Extent frames stream out as records arrive; the dictionary, name and
// process tables follow at Seal() time (names are consulted per lookup, not
// per record, so they ride at the tail where a partial write costs lookups
// but never scanned records). An encoded extent frame is self-contained, so
// stores concatenate by copying frames: a fleet's merged store is its
// per-system spills' extent frames end to end (MergeExtentStreams), and a
// record is encoded once, on the worker that completes its system. The
// fleet hands its name and process tables to ColumnarTraceSet::WriteMerged,
// which writes and seals that store and owns the tables from then on.

#ifndef SRC_TRACE_EXTENT_STORE_H_
#define SRC_TRACE_EXTENT_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/trace/frame_file.h"
#include "src/trace/trace_record.h"
#include "src/trace/trace_set.h"

namespace ntrace {

// Format constants, shared by writer, reader and the golden-format test.
inline constexpr uint64_t kExtentStoreMagic = 0x3130584C4F43544EULL;  // "NTCOLX01" LE.
inline constexpr uint32_t kExtentStoreVersion = 1;
inline constexpr uint32_t kExtentStoreHeaderSize = kFrameFileHeaderSize;
// Default records per extent: 64K records x 80 column bytes = 5 MB, the
// streaming unit for both the writer and the analysis scan.
inline constexpr uint32_t kDefaultExtentRecords = 64 * 1024;
// Hard cap: an extent frame must fit the container's payload limit.
inline constexpr uint32_t kMaxExtentRecords = 512 * 1024;

// Extent-store frame types live above the spool (< 16) and net (< 32)
// ranges of the shared v1 frame-type space.
enum class ExtentFrameType : uint16_t {
  kExtent = 32,
  kDict = 33,
  kNames = 34,
  kProcs = 35,
  kSeal = 36,
};

// Per-column encodings inside a kExtent payload.
enum class ColumnEncoding : uint8_t {
  kRaw = 0,          // record_count * width bytes, little-endian.
  kConst = 1,        // width bytes: one value repeated record_count times.
  kDeltaVarint = 2,  // Zigzag varint of wrapping deltas (first delta from 0).
  kBitPack = 3,      // u64 min | u8 bit width | LSB-first packed (v - min).
  kRle = 4,          // Runs of varint length + width raw value bytes.
};

// The column schema: one X(name, type) per TraceRecord field, in on-disk
// order; ColumnarExtent and ColumnBatch declare their columns from it. This
// order is pinned byte-for-byte by the golden test -- extend only by
// appending (and bump the store version when you do).
#define NTRACE_EXTENT_COLUMNS(X) \
  X(file_object, uint64_t)       \
  X(start_ticks, int64_t)        \
  X(complete_ticks, int64_t)     \
  X(offset, uint64_t)            \
  X(file_size, uint64_t)         \
  X(length, uint32_t)            \
  X(returned, uint32_t)          \
  X(process_id, uint32_t)        \
  X(irp_flags, uint32_t)         \
  X(create_options, uint32_t)    \
  X(file_attributes, uint32_t)   \
  X(event, uint16_t)             \
  X(status, uint16_t)            \
  X(disposition, uint8_t)        \
  X(create_action, uint8_t)      \
  X(info_class, uint8_t)         \
  X(fsctl, uint8_t)              \
  X(system_id, uint32_t)         \
  X(reserved, uint32_t)

// Column ids in on-disk order, for building projection masks.
enum ExtentColumn : uint32_t {
#define NTRACE_X(name, type) kExtentCol_##name,
  NTRACE_EXTENT_COLUMNS(NTRACE_X)
#undef NTRACE_X
      kExtentColumnCount
};

// Bitmask over ExtentColumn: bit (1u << kExtentCol_<name>) selects a column
// for decoding. The event column is the extent's spine (record counts and
// batch sizes derive from it), so readers force it into every mask.
inline constexpr uint32_t kExtentColumnMaskAll = (1u << kExtentColumnCount) - 1;

// One extent of column arrays (SoA). All vectors share the same length;
// min/max are maintained by AppendRow and serve as the extent's time index.
struct ColumnarExtent {
#define NTRACE_X(name, type) std::vector<type> name;
  NTRACE_EXTENT_COLUMNS(NTRACE_X)
#undef NTRACE_X

  int64_t min_start_ticks = 0;
  int64_t max_start_ticks = 0;
  int64_t min_complete_ticks = 0;
  int64_t max_complete_ticks = 0;

  size_t size() const { return event.size(); }
  bool empty() const { return event.empty(); }
  void Reserve(size_t n);
  void Clear();
  // Appends one row, updating min/max.
  void AppendRow(const TraceRecord& r);
  // Reconstructs row i exactly (every column, pad word included).
  TraceRecord RowAt(size_t i) const;
};

// Borrowed pointer view of `count` records starting at row `begin` of an
// extent -- what the columnar scan consumes. Plain arrays only: constant
// columns are materialized by the reader before a batch is formed.
struct ColumnBatch {
  size_t count = 0;
#define NTRACE_X(name, type) const type* name = nullptr;
  NTRACE_EXTENT_COLUMNS(NTRACE_X)
#undef NTRACE_X

  static ColumnBatch Of(const ColumnarExtent& e, size_t begin, size_t count);
  static ColumnBatch Of(const ColumnarExtent& e) { return Of(e, 0, e.size()); }
};

// Salvage accounting for one extent-store file: the container's, plus what
// the extent frames held.
struct ExtentReadStats : FrameSalvage {
  uint32_t extent_capacity = 0;
  uint64_t extents_recovered = 0;
  uint64_t records_recovered = 0;
  uint64_t names_recovered = 0;

  // Seal totals (valid when sealed).
  uint64_t seal_records = 0;
  uint64_t seal_extents = 0;
  uint64_t seal_names = 0;
  uint64_t seal_procs = 0;
  uint64_t seal_dict_entries = 0;

  // Records known lost: a damaged extent's declared count or, when a seal
  // survived, its total beyond the recovered records (whole extents lost
  // without their headers), whichever is larger.
  uint64_t KnownLost() const {
    const uint64_t seal_missing =
        sealed && seal_records > records_recovered ? seal_records - records_recovered : 0;
    return seal_missing > records_lost_known ? seal_missing : records_lost_known;
  }
};

// Appends extents (and, at Seal, the name/dictionary tables) to one store
// file. Not thread-safe; each fleet worker owns its own writer.
class ExtentStoreWriter {
 public:
  // Creates/truncates `path`. extent_records is clamped to
  // [1, kMaxExtentRecords]; it is the flush granularity of AppendRecord(s).
  // With compress on (the default) every column picks the smallest of its
  // applicable encodings; compress=false restricts the choice to raw/const
  // (the uncompressed baseline the scan-parity and format tests compare
  // against).
  bool Open(const std::string& path, uint32_t extent_records,
            uint64_t config_fingerprint, bool compress = true);

  // Row appends: rows transpose into the pending extent, which flushes as a
  // kExtent frame each time it reaches extent_records.
  bool AppendRecord(const TraceRecord& r);
  bool AppendRecords(const TraceRecord* rows, size_t n);
  // Appends an already-encoded kExtent payload of `records` records as one
  // frame, byte for byte, after flushing any pending rows. The caller
  // vouches for the payload (MergeExtentStreams checks it the way
  // ColumnarTraceSet::FromFile's prescan does).
  bool AppendEncodedExtent(const uint8_t* payload, size_t size, uint32_t records);

  // Name/process tables, buffered until Seal. Paths dictionary-encode:
  // each distinct string is stored once, in first-appearance order.
  void AddName(const NameRecord& name);
  void AddProcessName(uint32_t pid, const std::string& name);

  // Flushes the pending partial extent, then the dictionary/name/process
  // frames and the seal. The file is complete after Seal.
  bool Seal();
  void Close() { file_.Close(); }

  bool ok() const { return file_.ok(); }
  uint64_t records_written() const { return records_written_; }
  uint64_t extents_written() const { return extents_written_; }
  uint64_t bytes_written() const { return file_.bytes_written(); }

  // Once Seal succeeded: what a reader of the file reports at the end of
  // its scan (ColumnarTraceSet::FromFile's read_stats), from the writer's
  // own account of the frames it wrote.
  ExtentReadStats SealedStats() const;

 private:
  bool FlushExtent();
  bool WriteExtent(const uint8_t* payload, size_t size, uint32_t records);
  bool WriteFrame(ExtentFrameType type);  // payload_ as one frame.

  FrameFileWriter file_;
  bool sealed_ = false;
  bool compress_ = true;
  uint32_t extent_records_ = kDefaultExtentRecords;
  uint64_t config_fingerprint_ = 0;
  uint64_t records_written_ = 0;
  uint64_t extents_written_ = 0;
  uint64_t frames_written_ = 0;

  ColumnarExtent pending_;
  std::vector<std::string> dict_;  // First-appearance order.
  std::unordered_map<std::string, uint32_t> dict_index_;
  struct NameEntry {
    uint64_t file_object;
    uint32_t system_id;
    uint32_t dict;
  };
  std::vector<NameEntry> names_;
  struct ProcEntry {
    uint32_t pid;
    uint32_t dict;
  };
  std::vector<ProcEntry> procs_;
  std::vector<uint8_t> payload_;  // Reused frame-payload staging buffer.
};

// Decodes one kExtent frame payload into *out (replacing its contents).
// column_mask projects the decode: columns whose bit is clear are skipped
// over (their per-column length field makes the skip O(1)) and left empty
// in *out. The event column is always decoded -- it is the extent spine.
// A function of the payload bytes alone (it only counts the extent in the
// process-wide metrics), so any thread may call it: the scan decodes
// extents on its workers. False when the payload does not decode: damage
// under valid CRCs, i.e. a broken writer.
bool DecodeExtentPayload(const uint8_t* payload, size_t size, uint32_t column_mask,
                         ColumnarExtent* out);

// Streams extents out of a store file one frame at a time on a memory
// budget of O(one extent). Salvage semantics: the first torn, corrupt or
// truncated frame ends the stream; stats() reports what was recovered and
// what is known lost. Safe on arbitrary bytes.
class ExtentStreamReader {
 public:
  bool Open(const std::string& path);

  // The one frame loop of every store read: advances to the next kExtent
  // frame and hands it over undecoded in *frame, borrowed until the next
  // call. Returns false at end of stream -- seal, damage or EOF; stats()
  // distinguishes which. Tail tables (dict/names/procs) met on the way are
  // decoded and retained for TakeNames()/TakeProcessNames(). The store
  // scan (TraceScan::Run) reads through it and decodes on its workers.
  bool NextExtentFrame(SpoolFrameView* frame);

  // NextExtentFrame, then DecodeExtentPayload into *out. A frame that does
  // not decode ends the stream as damage, its CRCs notwithstanding. A
  // non-null `frame` receives the extent's encoded frame, borrowed until
  // the next call.
  bool NextExtent(ColumnarExtent* out, uint32_t column_mask = kExtentColumnMaskAll,
                  SpoolFrameView* frame = nullptr);

  // Once the stream ended: the decoded name/process tables, moved out.
  std::vector<NameRecord> TakeNames() { return std::move(names_); }
  std::vector<std::pair<uint32_t, std::string>> TakeProcessNames() {
    return std::move(process_names_);
  }
  const ExtentReadStats& stats() const { return stats_; }

 private:
  bool DecodeTail(const SpoolFrameView& view);
  // Ends the stream at the current frame, as damage.
  void Reject();
  // Copies the container's salvage into stats(), counting the first damage.
  void SyncSalvage();

  FrameFileReader file_;
  ExtentReadStats stats_;
  std::vector<std::string> dict_;
  std::vector<NameRecord> names_;
  std::vector<std::pair<uint32_t, std::string>> process_names_;
};

// A trace in columnar form, backed by a store file whose extents stream
// from `spill_path`. This is TraceSet's columnar twin: ToRows converts
// exactly (every column round-trips bit-for-bit, names and process tables
// included), and the analysis layer consumes it through ForEachBatch
// without ever materializing rows.
class ColumnarTraceSet {
 public:
  // Name/process tables (resident; they are consulted per lookup, not per
  // record). process_names preserves insertion order so a row-mode rebuild
  // reproduces TraceSet::process_names exactly.
  std::vector<NameRecord> names;
  std::vector<std::pair<uint32_t, std::string>> process_names;

  uint64_t record_count() const { return record_count_; }
  const std::string& spill_path() const { return spill_path_; }
  const ExtentReadStats& read_stats() const { return read_stats_; }

  // Invokes fn over every record batch in stream order, decoding one extent
  // at a time. column_mask projects the decode (see DecodeExtentPayload):
  // batches expose valid pointers only for the selected columns plus
  // `event`.
  void ForEachBatch(const std::function<void(const ColumnBatch&)>& fn,
                    uint32_t column_mask = kExtentColumnMaskAll) const;

  // Opens a sealed (or salvageable) store file without loading extents;
  // name/process tables and the record count are read up front. Never
  // fails hard: a damaged file yields its longest intact prefix and
  // read_stats() carries the loss accounting.
  static ColumnarTraceSet FromFile(const std::string& path);

  // Builds a merged store and opens it: writes `path` as the extent frames
  // of `inputs` end to end (MergeExtentStreams), then `names` and
  // `process_names` (in insertion order) as its tail tables, sealed, under
  // a header declaring `extent_records` and `config_fingerprint`. The store
  // layer owns the tables from here: the result holds them, and equals
  // FromFile(path) -- tables, record count and read stats -- without
  // reading a store it wrote whole back. An input that ends damaged adds
  // its intact prefix; the store itself is still whole. A failed write
  // returns FromFile's salvage of what reached the disk.
  static ColumnarTraceSet WriteMerged(const std::string& path,
                                      const std::vector<std::string>& inputs,
                                      std::vector<NameRecord> names,
                                      std::vector<std::pair<uint32_t, std::string>> process_names,
                                      uint32_t extent_records, uint64_t config_fingerprint);

  // Full row materialization (the parity oracle; memory O(records)).
  TraceSet ToRows() const;

 private:
  std::string spill_path_;
  uint64_t record_count_ = 0;
  ExtentReadStats read_stats_;
};

// Appends the extent frames of each input store to `writer`, inputs end to
// end in the order given, each frame's payload copied verbatim: no record
// is decoded past its spine or encoded again. Every frame is checked the
// way FromFile's prescan checks it (the event spine decodes and every
// column's length field stays inside the payload); the first frame that
// fails, or any torn or corrupt frame, ends its input as damaged with its
// known loss counted, and the next input follows. Inputs' tail tables are
// not copied: the caller adds names and process names. Memory: O(one
// frame).
struct ExtentMergeResult {
  uint64_t records = 0;
  uint64_t inputs_damaged = 0;       // Inputs that ended at a damaged frame.
  uint64_t records_lost_known = 0;   // Summed from damaged inputs.
};
ExtentMergeResult MergeExtentStreams(const std::vector<std::string>& inputs,
                                     ExtentStoreWriter* writer);

}  // namespace ntrace

#endif  // SRC_TRACE_EXTENT_STORE_H_
