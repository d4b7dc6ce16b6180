#include "src/analysis/scan_kernels.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <string>

#include "src/base/parallel.h"
#include "src/base/time.h"
#include "src/ntio/irp.h"
#include "src/tracedb/dimensions.h"

namespace ntrace {
namespace {

// Dense last-second table cap: fleet system ids are small integers; a
// synthetic trace with wild ids falls back to the exact hash set.
constexpr uint32_t kDenseSystems = 1u << 20;

// Dense pid-classification cap, same rationale as kDenseSystems.
constexpr uint32_t kDensePids = 1u << 20;

constexpr size_t kTallyEvents = 64;
constexpr size_t kTallyStatuses = 64;

inline size_t TallyIndex(uint16_t event, uint16_t status) {
  const size_t ev = std::min<size_t>(event, kTallyEvents - 1);
  const size_t st = std::min<size_t>(status, kTallyStatuses - 1);
  return ev * kTallyStatuses + st;
}

// The 14 output distributions of a scan (`Scan` is TraceScan or const
// TraceScan), in one fixed order.
template <typename Scan>
auto Cdfs(Scan& s) {
  return std::array{&s.read_sizes,          &s.write_sizes,           &s.fastio_read_latency_us,
                    &s.fastio_write_latency_us, &s.irp_read_latency_us, &s.irp_write_latency_us,
                    &s.fastio_read_size,    &s.fastio_write_size,     &s.irp_read_size,
                    &s.irp_write_size,      &s.read_runs_by_count,    &s.read_runs_by_bytes,
                    &s.write_runs_by_count, &s.write_runs_by_bytes};
}

// The counters a chunk's fold writes directly; Absorb sums them. The rest
// derive from the tally in Finish.
#define NTRACE_SCAN_SUMS(X)                                                               \
  X(records_scanned)                                                                      \
  X(reads_512_or_4096)                                                                    \
  X(reads_small) X(reads_48k_plus) X(volume_mounted_checks) X(seteof_ops) X(attributed)   \
  X(non_interactive) X(paging_reads) X(paging_read_bytes) X(paging_writes)                \
  X(paging_write_bytes) X(readahead_records) X(readahead_bytes) X(lazywrite_records)      \
  X(lazywrite_bytes)

// One closed run: a sample in both run CDFs of its direction.
void EmitRun(bool write, uint64_t bytes, TraceScan* s) {
  const double v = static_cast<double>(bytes);
  (write ? s->write_runs_by_count : s->read_runs_by_count).Add(v, 1.0);
  (write ? s->write_runs_by_bytes : s->read_runs_by_bytes).Add(v, v);
}

// The row sweep's chain step (`off == end` extends the run, anything else
// closes it) inside one chunk, keeping the chunk's first run apart: only
// Absorb knows whether it continues the chain before the chunk.
inline void ExtendRuns(ScanAccumulator::ChunkRuns& r, bool write, uint64_t off, uint32_t len,
                       TraceScan* s) {
  if (!r.any) {
    r.any = true;
    r.first_offset = off;
    r.last_bytes = 0;
  } else if (off != r.last_end) {
    if (r.first_closed) {
      EmitRun(write, r.last_bytes, s);
    } else {
      r.first_closed = true;
      r.first_bytes = r.last_bytes;
    }
    r.last_bytes = 0;
  }
  r.last_bytes += len;
  r.last_end = off + len;
}

// The 12 scan columns of rows [0, n) into e's column arrays; the other
// columns stay empty.
void TransposeScanColumns(const TraceRecord* rows, size_t n, ColumnarExtent* e) {
  e->event.resize(n);
  e->status.resize(n);
  e->irp_flags.resize(n);
  e->length.resize(n);
  e->offset.resize(n);
  e->file_object.resize(n);
  e->complete_ticks.resize(n);
  e->start_ticks.resize(n);
  e->system_id.resize(n);
  e->process_id.resize(n);
  e->fsctl.resize(n);
  e->info_class.resize(n);
  uint16_t* const event = e->event.data();
  uint16_t* const status = e->status.data();
  uint32_t* const irp_flags = e->irp_flags.data();
  uint32_t* const length = e->length.data();
  uint64_t* const offset = e->offset.data();
  uint64_t* const file_object = e->file_object.data();
  int64_t* const complete_ticks = e->complete_ticks.data();
  int64_t* const start_ticks = e->start_ticks.data();
  uint32_t* const system_id = e->system_id.data();
  uint32_t* const process_id = e->process_id.data();
  uint8_t* const fsctl = e->fsctl.data();
  uint8_t* const info_class = e->info_class.data();
  for (size_t i = 0; i < n; ++i) {
    const TraceRecord& r = rows[i];
    event[i] = r.event;
    status[i] = r.status;
    irp_flags[i] = r.irp_flags;
    length[i] = r.length;
    offset[i] = r.offset;
    file_object[i] = r.file_object;
    complete_ticks[i] = r.complete_ticks;
    start_ticks[i] = r.start_ticks;
    system_id[i] = r.system_id;
    process_id[i] = r.process_id;
    fsctl[i] = r.fsctl;
    info_class[i] = r.info_class;
  }
}

// One pool slot of a scan window: a chunk's encoded payload (store form),
// its scan columns and its partial, all reused from window to window.
struct ScanSlot {
  std::vector<uint8_t> payload;
  ColumnarExtent columns;
  ScanAccumulator::Partial partial;
  bool folded = false;
};

// ParallelFor, except that one worker runs the items on the calling
// thread: a scan nested in another pool's task (the policy sweep scans
// each replayed run on its replay worker) then starts no thread, and its
// buffers stay in that worker's heap.
template <typename Fn>
void RunItems(int items, int workers, const Fn& fn) {
  if (workers > 1) {
    ParallelFor(items, workers, fn);
    return;
  }
  for (int i = 0; i < items; ++i) {
    fn(i, 0);
  }
}

// Folds slots [0, filled) on the pool -- fold(i, slot) folds the window's
// chunk i into slot.partial, false when the chunk does not decode -- then
// absorbs their partials in slot order. Returns false, having absorbed only
// the slots before it, at the first slot whose chunk did not decode.
template <typename FoldChunk>
bool FoldWindow(ScanAccumulator& acc, std::vector<ScanSlot>& slots, int filled,
                const FoldChunk& fold) {
  RunItems(filled, filled, [&](int i, int) {
    ScanSlot& slot = slots[static_cast<size_t>(i)];
    slot.partial.Clear();
    slot.folded = fold(i, slot);
  });
  for (int i = 0; i < filled; ++i) {
    const ScanSlot& slot = slots[static_cast<size_t>(i)];
    if (!slot.folded) {
      return false;
    }
    acc.Absorb(slot.partial);
  }
  return true;
}

}  // namespace

ScanAccumulator::ScanAccumulator() : tally_(kTallyEvents * kTallyStatuses, 0) {}

void ScanAccumulator::AddProcessName(uint32_t pid, std::string_view name) {
  const uint8_t cls =
      ProcessDimension::Classify(name) != ProcessClass::kInteractive ? uint8_t{2} : uint8_t{1};
  if (pid < kDensePids) {
    if (pid >= pid_class_dense_.size()) {
      pid_class_dense_.resize(static_cast<size_t>(pid) + 1, 0);
    }
    if (pid_class_dense_[pid] == 0) {
      pid_class_dense_[pid] = cls;
    }
  } else {
    pid_class_.emplace(pid, cls);
  }
}

void ScanAccumulator::SpillCdfsTo(const std::string& path_prefix) {
  const auto cdfs = Cdfs(out_);
  for (size_t i = 0; i < cdfs.size(); ++i) {
    cdfs[i]->SpillTo(path_prefix + "." + std::to_string(i));
  }
}

void ScanAccumulator::Partial::Clear() {
#define NTRACE_X(f) scan.f = 0;
  NTRACE_SCAN_SUMS(NTRACE_X)
#undef NTRACE_X
  for (WeightedCdf* cdf : Cdfs(scan)) {
    cdf->Clear();
  }
  scan.flushed_files.clear();
  tally.assign(kTallyEvents * kTallyStatuses, 0);
  active_seconds.clear();
  std::fill(last_sec.begin(), last_sec.end(), 0);
  runs.clear();
}

void ScanAccumulator::Fold(const ColumnBatch& b, Partial* p) const {
  TraceScan& out = p->scan;
  out.records_scanned += b.count;
  // Same record order and per-record arithmetic as a record-at-a-time sweep.
  constexpr uint16_t kEvRead = static_cast<uint16_t>(TraceEvent::kIrpRead);
  constexpr uint16_t kEvWrite = static_cast<uint16_t>(TraceEvent::kIrpWrite);
  constexpr uint16_t kEvFlush = static_cast<uint16_t>(TraceEvent::kIrpFlushBuffers);
  constexpr uint16_t kEvFsctl = static_cast<uint16_t>(TraceEvent::kIrpFileSystemControl);
  constexpr uint16_t kEvDevctl = static_cast<uint16_t>(TraceEvent::kIrpDeviceControl);
  constexpr uint16_t kEvSetInfo = static_cast<uint16_t>(TraceEvent::kIrpSetInformation);
  constexpr uint16_t kEvFastRead = static_cast<uint16_t>(TraceEvent::kFastIoRead);
  constexpr uint16_t kEvFastWrite = static_cast<uint16_t>(TraceEvent::kFastIoWrite);
  WeightedCdf* const lat_cdf[4] = {&out.irp_read_latency_us, &out.irp_write_latency_us,
                                   &out.fastio_read_latency_us, &out.fastio_write_latency_us};
  WeightedCdf* const size_cdf[4] = {&out.irp_read_size, &out.irp_write_size,
                                    &out.fastio_read_size, &out.fastio_write_size};
  std::vector<uint64_t>& last_sec = p->last_sec;

  for (size_t i = 0; i < b.count; ++i) {
    const uint16_t ev = b.event[i];
    if (ev == kEvFlush) {
      out.flushed_files.emplace(b.file_object[i], uint8_t{1});
    }
    const uint32_t flags = b.irp_flags[i];
    if ((flags & kIrpPagingIo) != 0) {
      // Cc/Mm-originated transfer: the cache mix only.
      const uint32_t len = b.length[i];
      if (ev == kEvRead) {
        ++out.paging_reads;
        out.paging_read_bytes += len;
        if ((flags & kIrpReadAhead) != 0) {
          ++out.readahead_records;
          out.readahead_bytes += len;
        }
      } else if (ev == kEvWrite) {
        ++out.paging_writes;
        out.paging_write_bytes += len;
        if ((flags & kIrpLazyWrite) != 0) {
          ++out.lazywrite_records;
          out.lazywrite_bytes += len;
        }
      }
      continue;
    }

    // Active (system, second) pairs: the dense last-second table bypasses
    // the hash set while a system stays within one second (the common case
    // on a time-sorted trace); the set keeps the count exact otherwise.
    const uint64_t second =
        static_cast<uint64_t>(b.complete_ticks[i] / SimDuration::kTicksPerSecond);
    const uint32_t sys = b.system_id[i];
    if (sys < kDenseSystems) {
      if (sys >= last_sec.size()) {
        last_sec.resize(static_cast<size_t>(sys) + 1, 0);
      }
      if (last_sec[sys] != second + 1) {
        last_sec[sys] = second + 1;
        p->active_seconds.emplace((static_cast<uint64_t>(sys) << 32) | second, uint8_t{1});
      }
    } else {
      p->active_seconds.emplace((static_cast<uint64_t>(sys) << 32) | second, uint8_t{1});
    }

    // Section 7 attribution, via the per-pid classification memo.
    const uint32_t pid = b.process_id[i];
    uint8_t cls;
    if (pid < kDensePids) {
      cls = pid < pid_class_dense_.size() ? pid_class_dense_[pid] : uint8_t{0};
    } else {
      const auto it = pid_class_.find(pid);
      cls = it == pid_class_.end() ? uint8_t{0} : it->second;
    }
    out.attributed += cls != 0 ? 1 : 0;
    out.non_interactive += cls == 2 ? 1 : 0;

    // One increment replaces the row switch; the named counters fold out of
    // the table in Finish(). The two argument predicates count here.
    ++p->tally[TallyIndex(ev, b.status[i])];
    if ((ev == kEvFsctl || ev == kEvDevctl) &&
        b.fsctl[i] == static_cast<uint8_t>(FsctlCode::kIsVolumeMounted)) {
      ++out.volume_mounted_checks;
    }
    if (ev == kEvSetInfo && b.info_class[i] == static_cast<uint8_t>(FileInfoClass::kEndOfFile)) {
      ++out.seteof_ops;
    }

    // Transfers: run-chain state, size buckets, size/latency CDF appends.
    const bool is_write = ev == kEvWrite || ev == kEvFastWrite;
    const bool is_read = ev == kEvRead || ev == kEvFastRead;
    if (!(is_read || is_write)) {
      continue;
    }
    const uint32_t len = b.length[i];
    FileRuns& runs = p->runs[b.file_object[i]];
    ExtendRuns(is_write ? runs.write : runs.read, is_write, b.offset[i], len, &out);
    const double size = static_cast<double>(len);
    const double latency_us = SimDuration(b.complete_ticks[i] - b.start_ticks[i]).ToMicrosF();
    const size_t mech = (ev >= kEvFastRead ? 2u : 0u) | (is_write ? 1u : 0u);
    if (is_write) {
      out.write_sizes.Add(size);
    } else {
      out.read_sizes.Add(size);
      if (len == 512 || len == 4096) {
        ++out.reads_512_or_4096;
      } else if (len >= 2 && len <= 8) {
        ++out.reads_small;
      } else if (len >= 48 * 1024) {
        ++out.reads_48k_plus;
      }
    }
    lat_cdf[mech]->Add(latency_us);
    size_cdf[mech]->Add(size);
  }
}

void ScanAccumulator::Stitch(const ChunkRuns& r, bool write, Chain* c) {
  if (!r.any) {
    return;
  }
  const bool joins = c->open && r.first_offset == c->end;
  if (c->open && !joins) {
    EmitRun(write, c->bytes, &out_);
  }
  const uint64_t head = joins ? c->bytes : 0;
  if (r.first_closed) {
    EmitRun(write, head + r.first_bytes, &out_);
    c->bytes = r.last_bytes;
  } else {
    c->bytes = head + r.last_bytes;
  }
  c->end = r.last_end;
  c->open = true;
}

void ScanAccumulator::Absorb(const Partial& p) {
  const TraceScan& in = p.scan;
#define NTRACE_X(f) out_.f += in.f;
  NTRACE_SCAN_SUMS(NTRACE_X)
#undef NTRACE_X
  const auto into = Cdfs(out_);
  const auto from = Cdfs(in);
  for (size_t i = 0; i < into.size(); ++i) {
    into[i]->Append(*from[i]);
  }
  for (const auto& [file_object, tag] : in.flushed_files) {
    out_.flushed_files.emplace(file_object, tag);
  }
  for (size_t i = 0; i < tally_.size(); ++i) {
    tally_[i] += p.tally[i];
  }
  for (const auto& [key, tag] : p.active_seconds) {
    active_seconds_.emplace(key, tag);
  }
  for (const auto& [file_object, chunk] : p.runs) {
    OpenRuns& open = runs_[file_object];
    Stitch(chunk.read, false, &open.read);
    Stitch(chunk.write, true, &open.write);
  }
}

TraceScan ScanAccumulator::Finish(int workers) {
  // Fold the (event, status) tally into the named counters with exactly
  // the row switch's predicates. NtError == "not a success-class status";
  // clamped codes (>= 63) stay errors and match no special status.
  const auto row = [&](TraceEvent ev) {
    return &tally_[static_cast<size_t>(ev) * kTallyStatuses];
  };
  const auto sum_all = [](const uint64_t* r) {
    uint64_t t = 0;
    for (size_t s = 0; s < kTallyStatuses; ++s) {
      t += r[s];
    }
    return t;
  };
  const auto sum_error = [](const uint64_t* r) {
    uint64_t t = 0;
    for (size_t s = 0; s < kTallyStatuses; ++s) {
      if (NtError(static_cast<NtStatus>(s))) {
        t += r[s];
      }
    }
    return t;
  };

  const uint64_t* irp_read = row(TraceEvent::kIrpRead);
  const uint64_t* fast_read = row(TraceEvent::kFastIoRead);
  out_.irp_reads = sum_all(irp_read);
  out_.fastio_reads = sum_all(fast_read);
  out_.reads = out_.irp_reads + out_.fastio_reads;
  out_.read_failures = sum_error(irp_read) + sum_error(fast_read) +
                       irp_read[static_cast<size_t>(NtStatus::kEndOfFile)] +
                       fast_read[static_cast<size_t>(NtStatus::kEndOfFile)];

  const uint64_t* irp_write = row(TraceEvent::kIrpWrite);
  const uint64_t* fast_write = row(TraceEvent::kFastIoWrite);
  out_.irp_writes = sum_all(irp_write);
  out_.fastio_writes = sum_all(fast_write);
  out_.writes = out_.irp_writes + out_.fastio_writes;
  out_.write_failures = sum_error(irp_write) + sum_error(fast_write);

  const uint64_t* creates = row(TraceEvent::kIrpCreate);
  out_.opens = sum_all(creates);
  out_.open_failures = sum_error(creates);
  out_.open_notfound = creates[static_cast<size_t>(NtStatus::kObjectNameNotFound)] +
                       creates[static_cast<size_t>(NtStatus::kObjectPathNotFound)];
  out_.open_collision = creates[static_cast<size_t>(NtStatus::kObjectNameCollision)];

  out_.directory_ops = sum_all(row(TraceEvent::kIrpDirectoryControl));
  constexpr TraceEvent kControlEvents[] = {
      TraceEvent::kIrpFileSystemControl,    TraceEvent::kIrpDeviceControl,
      TraceEvent::kIrpQueryInformation,     TraceEvent::kIrpQueryVolumeInformation,
      TraceEvent::kIrpFlushBuffers,         TraceEvent::kIrpLockControl,
      TraceEvent::kFastIoQueryBasicInfo,    TraceEvent::kFastIoQueryStandardInfo,
      TraceEvent::kIrpSetInformation,
  };
  out_.control_ops = 0;
  out_.control_failures = sum_error(row(TraceEvent::kIrpDirectoryControl));
  for (TraceEvent ev : kControlEvents) {
    out_.control_ops += sum_all(row(ev));
    out_.control_failures += sum_error(row(ev));
  }
  out_.control_total = out_.control_ops + out_.directory_ops;

  out_.read_fallbacks = sum_all(row(TraceEvent::kFastIoReadNotPossible));
  out_.write_fallbacks = sum_all(row(TraceEvent::kFastIoWriteNotPossible));

  // Close the still-open run chains. Emission order follows the FlatMap
  // walk, but WeightedCdf sorts on Finalize and run samples carry
  // value-determined weights, so the distributions are identical.
  for (const auto& [file_object, open] : runs_) {
    if (open.read.open) {
      EmitRun(false, open.read.bytes, &out_);
    }
    if (open.write.open) {
      EmitRun(true, open.write.bytes, &out_);
    }
  }

  out_.active_seconds = active_seconds_.size();

  const auto cdfs = Cdfs(out_);
  const int n = static_cast<int>(cdfs.size());
  RunItems(n, WorkerCount(workers, n),
           [&cdfs](int i, int) { cdfs[static_cast<size_t>(i)]->Finalize(); });
  return std::move(out_);
}

TraceScan TraceScan::Run(const TraceSet& trace, int workers) {
  ScanAccumulator acc;
  for (const auto& [pid, name] : trace.process_names) {
    acc.AddProcessName(pid, name);
  }
  // Row chunks the size of a store extent. A worker transposes its chunk
  // kTransposeRows rows at a time, folding each piece into the chunk's
  // partial, so the column buffers stay in cache and a slot holds 221 KB
  // of them, not a whole chunk's 3.5 MB.
  constexpr size_t kChunk = kDefaultExtentRecords;
  constexpr size_t kTransposeRows = 4096;
  const size_t records = trace.records.size();
  const int chunks = static_cast<int>((records + kChunk - 1) / kChunk);
  const int width = WorkerCount(workers, chunks);
  std::vector<ScanSlot> slots(static_cast<size_t>(width));
  for (int first = 0; first < chunks; first += width) {
    FoldWindow(acc, slots, std::min(width, chunks - first), [&](int i, ScanSlot& slot) {
      const size_t begin = static_cast<size_t>(first + i) * kChunk;
      const size_t end = std::min(begin + kChunk, records);
      for (size_t piece = begin; piece < end; piece += kTransposeRows) {
        TransposeScanColumns(trace.records.data() + piece, std::min(kTransposeRows, end - piece),
                             &slot.columns);
        acc.Fold(ColumnBatch::Of(slot.columns), &slot.partial);
      }
      return true;
    });
  }
  return acc.Finish(workers);
}

TraceScan TraceScan::Run(const ColumnarTraceSet& trace, int workers) {
  ScanAccumulator acc;
  // Out-of-core scan: the store streams extent by extent, so the CDF samples
  // are what's left of peak RSS -- spill them beside the store (pid-suffixed
  // so concurrent scans of one store never collide).
  acc.SpillCdfsTo(trace.spill_path() + ".cdfspill." + std::to_string(getpid()));
  for (const auto& [pid, name] : trace.process_names) {
    acc.AddProcessName(pid, name);
  }
  // The calling thread reads and CRC-checks frames and copies each payload
  // into a slot; a full window decodes and folds on the pool. An extent
  // whose payload does not decode ends the scan there, as NextExtent's
  // Reject ends the reader's stream.
  const uint64_t extents = trace.read_stats().extents_recovered;
  const int width = WorkerCount(workers, static_cast<int>(std::min<uint64_t>(extents, 1u << 20)));
  std::vector<ScanSlot> slots(static_cast<size_t>(width));
  const auto decode = [&acc](int, ScanSlot& slot) {
    if (!DecodeExtentPayload(slot.payload.data(), slot.payload.size(), kScanColumnMask,
                             &slot.columns)) {
      return false;
    }
    acc.Fold(ColumnBatch::Of(slot.columns), &slot.partial);
    return true;
  };
  ExtentStreamReader reader;
  SpoolFrameView frame;
  int filled = 0;
  bool intact = reader.Open(trace.spill_path());
  while (intact && reader.NextExtentFrame(&frame)) {
    slots[static_cast<size_t>(filled)].payload.assign(frame.payload,
                                                      frame.payload + frame.payload_size);
    if (++filled == width) {
      intact = FoldWindow(acc, slots, filled, decode);
      filled = 0;
    }
  }
  if (intact && filled > 0) {
    FoldWindow(acc, slots, filled, decode);
  }
  TraceScan out = acc.Finish(workers);
  // Salvage accounting rides with the store (DESIGN.md §16): what the reader
  // knows was lost is what the figures above do not cover.
  out.records_lost_known = trace.read_stats().KnownLost();
  return out;
}

}  // namespace ntrace
