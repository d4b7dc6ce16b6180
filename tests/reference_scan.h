// The scan's reference: a record-at-a-time sweep over a row trace, kept in
// the test tree as the oracle that tests/scan_parity_test.cc holds the
// production scan (src/analysis/scan_kernels.h) against, for both trace
// forms at every worker count. It is separate code on purpose: it shares
// nothing with the chunk fold but the TraceScan struct and the process
// classifier.

#ifndef TESTS_REFERENCE_SCAN_H_
#define TESTS_REFERENCE_SCAN_H_

#include "src/analysis/trace_scan.h"
#include "src/tracedb/dimensions.h"

namespace ntrace {

namespace reference_scan {

// Streaming run state for one file object: the pending read and write chains.
struct RunState {
  uint64_t read_end = 0;
  uint32_t read_ops = 0;
  uint64_t read_bytes = 0;
  uint64_t write_end = 0;
  uint32_t write_ops = 0;
  uint64_t write_bytes = 0;
};

inline void EmitRead(TraceScan& out, RunState& s) {
  if (s.read_ops > 0) {
    const double bytes = static_cast<double>(s.read_bytes);
    out.read_runs_by_count.Add(bytes, 1.0);
    out.read_runs_by_bytes.Add(bytes, bytes);
    s.read_ops = 0;
    s.read_bytes = 0;
  }
}

inline void EmitWrite(TraceScan& out, RunState& s) {
  if (s.write_ops > 0) {
    const double bytes = static_cast<double>(s.write_bytes);
    out.write_runs_by_count.Add(bytes, 1.0);
    out.write_runs_by_bytes.Add(bytes, bytes);
    s.write_ops = 0;
    s.write_bytes = 0;
  }
}

}  // namespace reference_scan

// The record-at-a-time sweep: one pass over the row-major records with the
// per-record event switch, emitting each run as it closes.
inline TraceScan ReferenceScan(const TraceSet& trace) {
  using reference_scan::EmitRead;
  using reference_scan::EmitWrite;
  using reference_scan::RunState;
  TraceScan out;
  out.records_scanned = trace.records.size();

  // (system_id << 32 | second) pairs with app-level activity. Seconds fit in
  // 32 bits for any simulated span under ~136 years.
  FlatMap<uint64_t, uint8_t> active_seconds;
  FlatMap<uint64_t, RunState> runs;

  for (const TraceRecord& r : trace.records) {
    const TraceEvent event = r.Event();

    // Flush users are collected over the full record stream (the section-9
    // flush-user analysis predates the paging skip below).
    if (event == TraceEvent::kIrpFlushBuffers) {
      out.flushed_files.emplace(r.file_object, uint8_t{1});
    }

    if (r.IsPagingIo()) {
      // Cc/Mm-originated transfer: feed the cache mix and move on; paging
      // I/O is excluded from the app-level aggregates below.
      if (event == TraceEvent::kIrpRead) {
        ++out.paging_reads;
        out.paging_read_bytes += r.length;
        if ((r.irp_flags & kIrpReadAhead) != 0) {
          ++out.readahead_records;
          out.readahead_bytes += r.length;
        }
      } else if (event == TraceEvent::kIrpWrite) {
        ++out.paging_writes;
        out.paging_write_bytes += r.length;
        if ((r.irp_flags & kIrpLazyWrite) != 0) {
          ++out.lazywrite_records;
          out.lazywrite_bytes += r.length;
        }
      }
      continue;
    }

    const uint64_t second = static_cast<uint64_t>(r.complete_ticks / SimDuration::kTicksPerSecond);
    active_seconds.emplace((static_cast<uint64_t>(r.system_id) << 32) | second, uint8_t{1});

    // Section 7: attribution to processes that take no direct user input.
    const std::string* pname = trace.ProcessNameOf(r.process_id);
    if (pname != nullptr) {
      ++out.attributed;
      if (ProcessDimension::Classify(*pname) != ProcessClass::kInteractive) {
        ++out.non_interactive;
      }
    }

    // Sequential runs: a transfer extends its chain when it starts where the
    // previous same-direction transfer ended; anything else (seek, direction
    // change handled per direction) closes the chain.
    if (IsDataTransfer(event)) {
      RunState& s = runs[r.file_object];
      if (IsWriteEvent(event)) {
        if (s.write_ops > 0 && r.offset != s.write_end) {
          EmitWrite(out, s);
        }
        ++s.write_ops;
        s.write_bytes += r.length;
        s.write_end = r.offset + r.length;
      } else {
        if (s.read_ops > 0 && r.offset != s.read_end) {
          EmitRead(out, s);
        }
        ++s.read_ops;
        s.read_bytes += r.length;
        s.read_end = r.offset + r.length;
      }
    }

    const double latency_us = r.Latency().ToMicrosF();
    const double size = static_cast<double>(r.length);

    switch (event) {
      case TraceEvent::kIrpRead:
      case TraceEvent::kFastIoRead: {
        ++out.reads;
        out.read_sizes.Add(size);
        if (r.length == 512 || r.length == 4096) {
          ++out.reads_512_or_4096;
        } else if (r.length >= 2 && r.length <= 8) {
          ++out.reads_small;
        } else if (r.length >= 48 * 1024) {
          ++out.reads_48k_plus;
        }
        if (NtError(r.Status()) || r.Status() == NtStatus::kEndOfFile) {
          ++out.read_failures;
        }
        if (event == TraceEvent::kFastIoRead) {
          ++out.fastio_reads;
          out.fastio_read_latency_us.Add(latency_us);
          out.fastio_read_size.Add(size);
        } else {
          ++out.irp_reads;
          out.irp_read_latency_us.Add(latency_us);
          out.irp_read_size.Add(size);
        }
        break;
      }
      case TraceEvent::kIrpWrite:
      case TraceEvent::kFastIoWrite:
        ++out.writes;
        out.write_sizes.Add(size);
        if (NtError(r.Status())) {
          ++out.write_failures;
        }
        if (event == TraceEvent::kFastIoWrite) {
          ++out.fastio_writes;
          out.fastio_write_latency_us.Add(latency_us);
          out.fastio_write_size.Add(size);
        } else {
          ++out.irp_writes;
          out.irp_write_latency_us.Add(latency_us);
          out.irp_write_size.Add(size);
        }
        break;
      case TraceEvent::kIrpCreate:
        ++out.opens;
        if (NtError(r.Status())) {
          ++out.open_failures;
          if (r.Status() == NtStatus::kObjectNameNotFound ||
              r.Status() == NtStatus::kObjectPathNotFound) {
            ++out.open_notfound;
          } else if (r.Status() == NtStatus::kObjectNameCollision) {
            ++out.open_collision;
          }
        }
        break;
      case TraceEvent::kIrpDirectoryControl:
        ++out.directory_ops;
        ++out.control_total;
        if (NtError(r.Status())) {
          ++out.control_failures;
        }
        break;
      case TraceEvent::kIrpFileSystemControl:
      case TraceEvent::kIrpDeviceControl:
        ++out.control_ops;
        ++out.control_total;
        if (static_cast<FsctlCode>(r.fsctl) == FsctlCode::kIsVolumeMounted) {
          ++out.volume_mounted_checks;
        }
        if (NtError(r.Status())) {
          ++out.control_failures;
        }
        break;
      case TraceEvent::kIrpQueryInformation:
      case TraceEvent::kIrpQueryVolumeInformation:
      case TraceEvent::kIrpFlushBuffers:
      case TraceEvent::kIrpLockControl:
      case TraceEvent::kFastIoQueryBasicInfo:
      case TraceEvent::kFastIoQueryStandardInfo:
        ++out.control_ops;
        ++out.control_total;
        if (NtError(r.Status())) {
          ++out.control_failures;
        }
        break;
      case TraceEvent::kIrpSetInformation:
        ++out.control_ops;
        ++out.control_total;
        if (static_cast<FileInfoClass>(r.info_class) == FileInfoClass::kEndOfFile) {
          ++out.seteof_ops;
        }
        if (NtError(r.Status())) {
          ++out.control_failures;
        }
        break;
      case TraceEvent::kFastIoReadNotPossible:
        ++out.read_fallbacks;
        break;
      case TraceEvent::kFastIoWriteNotPossible:
        ++out.write_fallbacks;
        break;
      default:
        break;
    }
  }

  // Close the still-open chains. FlatMap iteration order is unspecified, but
  // WeightedCdf sorts on Finalize, so the distributions are deterministic.
  for (auto& [file_object, s] : runs) {
    EmitRead(out, s);
    EmitWrite(out, s);
  }

  out.active_seconds = active_seconds.size();

  out.read_sizes.Finalize();
  out.write_sizes.Finalize();
  out.fastio_read_latency_us.Finalize();
  out.fastio_write_latency_us.Finalize();
  out.irp_read_latency_us.Finalize();
  out.irp_write_latency_us.Finalize();
  out.fastio_read_size.Finalize();
  out.fastio_write_size.Finalize();
  out.irp_read_size.Finalize();
  out.irp_write_size.Finalize();
  out.read_runs_by_count.Finalize();
  out.read_runs_by_bytes.Finalize();
  out.write_runs_by_count.Finalize();
  out.write_runs_by_bytes.Finalize();
  return out;
}

}  // namespace ntrace

#endif  // TESTS_REFERENCE_SCAN_H_
