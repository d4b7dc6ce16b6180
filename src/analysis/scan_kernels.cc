#include "src/analysis/scan_kernels.h"

#include <unistd.h>

#include <algorithm>
#include <string>

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
  out_.read_sizes.SpillTo(path_prefix + ".read_sizes");
  out_.write_sizes.SpillTo(path_prefix + ".write_sizes");
  out_.irp_read_latency_us.SpillTo(path_prefix + ".irp_read_lat");
  out_.irp_write_latency_us.SpillTo(path_prefix + ".irp_write_lat");
  out_.fastio_read_latency_us.SpillTo(path_prefix + ".fastio_read_lat");
  out_.fastio_write_latency_us.SpillTo(path_prefix + ".fastio_write_lat");
  out_.irp_read_size.SpillTo(path_prefix + ".irp_read_size");
  out_.irp_write_size.SpillTo(path_prefix + ".irp_write_size");
  out_.fastio_read_size.SpillTo(path_prefix + ".fastio_read_size");
  out_.fastio_write_size.SpillTo(path_prefix + ".fastio_write_size");
  out_.read_runs_by_count.SpillTo(path_prefix + ".read_runs_n");
  out_.read_runs_by_bytes.SpillTo(path_prefix + ".read_runs_b");
  out_.write_runs_by_count.SpillTo(path_prefix + ".write_runs_n");
  out_.write_runs_by_bytes.SpillTo(path_prefix + ".write_runs_b");
}

void ScanAccumulator::EmitRead(RunState& s) {
  if (s.read_ops > 0) {
    const double bytes = static_cast<double>(s.read_bytes);
    out_.read_runs_by_count.Add(bytes, 1.0);
    out_.read_runs_by_bytes.Add(bytes, bytes);
    s.read_ops = 0;
    s.read_bytes = 0;
  }
}

void ScanAccumulator::EmitWrite(RunState& s) {
  if (s.write_ops > 0) {
    const double bytes = static_cast<double>(s.write_bytes);
    out_.write_runs_by_count.Add(bytes, 1.0);
    out_.write_runs_by_bytes.Add(bytes, bytes);
    s.write_ops = 0;
    s.write_bytes = 0;
  }
}

void ScanAccumulator::Consume(const ColumnBatch& b) {
  out_.records_scanned += b.count;
  // Same record order and per-record arithmetic as the row sweep.
  constexpr uint16_t kEvRead = static_cast<uint16_t>(TraceEvent::kIrpRead);
  constexpr uint16_t kEvWrite = static_cast<uint16_t>(TraceEvent::kIrpWrite);
  constexpr uint16_t kEvFlush = static_cast<uint16_t>(TraceEvent::kIrpFlushBuffers);
  constexpr uint16_t kEvFsctl = static_cast<uint16_t>(TraceEvent::kIrpFileSystemControl);
  constexpr uint16_t kEvDevctl = static_cast<uint16_t>(TraceEvent::kIrpDeviceControl);
  constexpr uint16_t kEvSetInfo = static_cast<uint16_t>(TraceEvent::kIrpSetInformation);
  constexpr uint16_t kEvFastRead = static_cast<uint16_t>(TraceEvent::kFastIoRead);
  constexpr uint16_t kEvFastWrite = static_cast<uint16_t>(TraceEvent::kFastIoWrite);
  WeightedCdf* const lat_cdf[4] = {&out_.irp_read_latency_us, &out_.irp_write_latency_us,
                                   &out_.fastio_read_latency_us, &out_.fastio_write_latency_us};
  WeightedCdf* const size_cdf[4] = {&out_.irp_read_size, &out_.irp_write_size,
                                    &out_.fastio_read_size, &out_.fastio_write_size};

  for (size_t i = 0; i < b.count; ++i) {
    const uint16_t ev = b.event[i];
    if (ev == kEvFlush) {
      out_.flushed_files.emplace(b.file_object[i], uint8_t{1});
    }
    const uint32_t flags = b.irp_flags[i];
    if ((flags & kIrpPagingIo) != 0) {
      // Cc/Mm-originated transfer: the cache mix only.
      const uint32_t len = b.length[i];
      if (ev == kEvRead) {
        ++out_.paging_reads;
        out_.paging_read_bytes += len;
        if ((flags & kIrpReadAhead) != 0) {
          ++out_.readahead_records;
          out_.readahead_bytes += len;
        }
      } else if (ev == kEvWrite) {
        ++out_.paging_writes;
        out_.paging_write_bytes += len;
        if ((flags & kIrpLazyWrite) != 0) {
          ++out_.lazywrite_records;
          out_.lazywrite_bytes += len;
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
      if (sys >= last_sec_.size()) {
        last_sec_.resize(static_cast<size_t>(sys) + 1, 0);
      }
      if (last_sec_[sys] != second + 1) {
        last_sec_[sys] = second + 1;
        active_seconds_.emplace((static_cast<uint64_t>(sys) << 32) | second, uint8_t{1});
      }
    } else {
      active_seconds_.emplace((static_cast<uint64_t>(sys) << 32) | second, uint8_t{1});
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
    out_.attributed += cls != 0 ? 1 : 0;
    out_.non_interactive += cls == 2 ? 1 : 0;

    // One increment replaces the row switch; the named counters fold out of
    // the table in Finish(). The two argument predicates count here.
    ++tally_[TallyIndex(ev, b.status[i])];
    if ((ev == kEvFsctl || ev == kEvDevctl) &&
        b.fsctl[i] == static_cast<uint8_t>(FsctlCode::kIsVolumeMounted)) {
      ++out_.volume_mounted_checks;
    }
    if (ev == kEvSetInfo && b.info_class[i] == static_cast<uint8_t>(FileInfoClass::kEndOfFile)) {
      ++out_.seteof_ops;
    }

    // Transfers: run-chain state, size buckets, size/latency CDF appends.
    const bool is_write = ev == kEvWrite || ev == kEvFastWrite;
    const bool is_read = ev == kEvRead || ev == kEvFastRead;
    if (!(is_read || is_write)) {
      continue;
    }
    const uint32_t len = b.length[i];
    const uint64_t off = b.offset[i];
    RunState& s = runs_[b.file_object[i]];
    const double size = static_cast<double>(len);
    const double latency_us = SimDuration(b.complete_ticks[i] - b.start_ticks[i]).ToMicrosF();
    const size_t mech = (ev >= kEvFastRead ? 2u : 0u) | (is_write ? 1u : 0u);
    if (is_write) {
      if (s.write_ops > 0 && off != s.write_end) {
        EmitWrite(s);
      }
      ++s.write_ops;
      s.write_bytes += len;
      s.write_end = off + len;
      out_.write_sizes.Add(size);
    } else {
      if (s.read_ops > 0 && off != s.read_end) {
        EmitRead(s);
      }
      ++s.read_ops;
      s.read_bytes += len;
      s.read_end = off + len;
      out_.read_sizes.Add(size);
      if (len == 512 || len == 4096) {
        ++out_.reads_512_or_4096;
      } else if (len >= 2 && len <= 8) {
        ++out_.reads_small;
      } else if (len >= 48 * 1024) {
        ++out_.reads_48k_plus;
      }
    }
    lat_cdf[mech]->Add(latency_us);
    size_cdf[mech]->Add(size);
  }
}

TraceScan ScanAccumulator::Finish() {
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

  // Close the still-open run chains. Emission order differs from the row
  // path's FlatMap walk, but WeightedCdf sorts on Finalize and run samples
  // carry value-determined weights, so the distributions are identical.
  for (auto& [file_object, s] : runs_) {
    EmitRead(s);
    EmitWrite(s);
  }

  out_.active_seconds = active_seconds_.size();

  out_.read_sizes.Finalize();
  out_.write_sizes.Finalize();
  out_.fastio_read_latency_us.Finalize();
  out_.fastio_write_latency_us.Finalize();
  out_.irp_read_latency_us.Finalize();
  out_.irp_write_latency_us.Finalize();
  out_.fastio_read_size.Finalize();
  out_.fastio_write_size.Finalize();
  out_.irp_read_size.Finalize();
  out_.irp_write_size.Finalize();
  out_.read_runs_by_count.Finalize();
  out_.read_runs_by_bytes.Finalize();
  out_.write_runs_by_count.Finalize();
  out_.write_runs_by_bytes.Finalize();
  return std::move(out_);
}

TraceScan TraceScan::Run(const ColumnarTraceSet& trace) {
  ScanAccumulator acc;
  // Out-of-core scan: the store streams extent by extent, so the CDF samples
  // are what's left of peak RSS -- spill them beside the store (pid-suffixed
  // so concurrent scans of one store never collide).
  acc.SpillCdfsTo(trace.spill_path() + ".cdfspill." + std::to_string(getpid()));
  for (const auto& [pid, name] : trace.process_names) {
    acc.AddProcessName(pid, name);
  }
  trace.ForEachBatch([&acc](const ColumnBatch& b) { acc.Consume(b); }, kScanColumnMask);
  TraceScan out = acc.Finish();
  // Salvage accounting rides with the store (DESIGN.md §16): what the reader
  // knows was lost is what the figures above do not cover.
  out.records_lost_known = trace.read_stats().KnownLost();
  return out;
}

}  // namespace ntrace
