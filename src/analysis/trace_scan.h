// Single-pass trace scan (DESIGN.md §9).
//
// The section-8, section-9 and section-10 analyses each used to make their
// own sweep over TraceSet::records -- for a multi-million-record fleet trace
// that is three full passes over hundreds of megabytes of records, and the
// record vector falls out of cache between passes. TraceScan computes every
// per-record aggregate those analyses need in ONE sweep:
//
//   * operation mix -- request counts, size distributions and modes, the
//     control/directory dominance, the error mix, and the section-7 process
//     attribution (operations.cc);
//   * FastIO vs IRP shares -- per-mechanism latency and size distributions
//     and the fallback counts (fastio.cc);
//   * cache ratios -- the paging/app transfer mix, read-ahead and lazy-write
//     record shares, and the set of flushed file objects (cache_analysis.cc);
//   * sequential run lengths -- maximal same-direction contiguous transfer
//     chains per file object, computed streaming (figures 1-2 cross-check).
//
// The analyzers consume a shared, memoized TraceScan (Study::Scan()). One
// accumulator (scan_kernels.h) scans both trace forms, as an ordered fold
// of extent-sized chunks on the worker pool: a store's extents, or a row
// trace's 64K-record chunks transposed to their scan columns. Its result
// equals one record-at-a-time sweep in trace order at every worker count.

#ifndef SRC_ANALYSIS_TRACE_SCAN_H_
#define SRC_ANALYSIS_TRACE_SCAN_H_

#include <cstdint>

#include "src/base/flat_map.h"
#include "src/stats/descriptive.h"
#include "src/trace/trace_set.h"

namespace ntrace {

class ColumnarTraceSet;

struct TraceScan {
  // --- Operation mix (non-paging records; section 8) -------------------------
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t reads_512_or_4096 = 0;
  uint64_t reads_small = 0;     // 2-8 bytes.
  uint64_t reads_48k_plus = 0;  // >= 48 KB.
  uint64_t read_failures = 0;   // Errors plus end-of-file reads.
  uint64_t write_failures = 0;
  uint64_t opens = 0;
  uint64_t open_failures = 0;
  uint64_t open_notfound = 0;
  uint64_t open_collision = 0;
  uint64_t directory_ops = 0;
  uint64_t control_ops = 0;
  uint64_t control_total = 0;  // control_ops + directory_ops.
  uint64_t control_failures = 0;
  uint64_t volume_mounted_checks = 0;
  uint64_t seteof_ops = 0;
  WeightedCdf read_sizes;   // Finalized.
  WeightedCdf write_sizes;  // Finalized.

  // --- Section 7 process attribution -----------------------------------------
  uint64_t attributed = 0;       // Records whose process name is known.
  uint64_t non_interactive = 0;  // Of those: non-interactive process class.

  // Distinct (system, wall-clock second) pairs with app-level activity.
  uint64_t active_seconds = 0;

  // --- FastIO vs IRP (section 10, figures 13-14) -----------------------------
  uint64_t fastio_reads = 0;
  uint64_t irp_reads = 0;
  uint64_t fastio_writes = 0;
  uint64_t irp_writes = 0;
  uint64_t read_fallbacks = 0;
  uint64_t write_fallbacks = 0;
  WeightedCdf fastio_read_latency_us;  // All finalized.
  WeightedCdf fastio_write_latency_us;
  WeightedCdf irp_read_latency_us;
  WeightedCdf irp_write_latency_us;
  WeightedCdf fastio_read_size;
  WeightedCdf fastio_write_size;
  WeightedCdf irp_read_size;
  WeightedCdf irp_write_size;

  // --- Cache / paging transfer mix (section 9) -------------------------------
  uint64_t paging_reads = 0;  // PagingIo-flagged transfers (Cc/Mm-issued).
  uint64_t paging_read_bytes = 0;
  uint64_t paging_writes = 0;
  uint64_t paging_write_bytes = 0;
  uint64_t readahead_records = 0;  // Speculative loads among paging reads.
  uint64_t readahead_bytes = 0;
  uint64_t lazywrite_records = 0;  // Write-behind among paging writes.
  uint64_t lazywrite_bytes = 0;

  // File objects that saw an explicit FLUSH_BUFFERS (membership only; the
  // value is unused and iteration order never observed).
  FlatMap<uint64_t, uint8_t> flushed_files;
  bool FileWasFlushed(uint64_t file_object) const {
    return flushed_files.count(file_object) != 0;
  }

  // --- Loss-aware coverage (DESIGN.md §16) -----------------------------------
  // Every figure a scan feeds is a share of the records the sweep visited;
  // when the input was salvaged, the storage/collection layers know how many
  // records the figures do NOT cover. records_lost_known is filled from the
  // columnar reader's salvage accounting (disk scans) or by Study from the
  // fleet's integrity report; zero for a clean input.
  uint64_t records_scanned = 0;
  uint64_t records_lost_known = 0;
  // Fraction of the known record population the figures were computed over.
  double KnownCoverage() const {
    const uint64_t total = records_scanned + records_lost_known;
    return total == 0 ? 1.0
                      : static_cast<double>(records_scanned) / static_cast<double>(total);
  }

  // --- Record-level sequential run lengths (figures 1-2 cross-check) ---------
  // A run is a maximal chain of same-direction app-level transfers on one
  // file object, each starting where the previous ended. Computed streaming
  // with O(open file objects) state instead of materializing per-session op
  // vectors. Value = run length in bytes; the by_count CDFs weight each run
  // once, the by_bytes CDFs weight by the bytes moved (figure 1 vs 2).
  WeightedCdf read_runs_by_count;  // Finalized.
  WeightedCdf read_runs_by_bytes;
  WeightedCdf write_runs_by_count;
  WeightedCdf write_runs_by_bytes;

  // Both scans run the accumulator's chunks on `workers` pool threads
  // (<= 0: all cores), with the same result at every count.
  //
  // A row trace scans in chunks of kDefaultExtentRecords records, each
  // transposed to its 12 scan columns on its worker. The trace's name
  // index and process-name table are only read, never mutated.
  static TraceScan Run(const TraceSet& trace, int workers = 0);

  // A store streams on the calling thread, which reads and CRC-checks its
  // frames; the workers decode and fold a window of up to `workers`
  // extents at a time, so memory stays O(workers x one extent). The CDF
  // samples spill beside the store. An extent whose payload does not
  // decode ends the scan there.
  static TraceScan Run(const ColumnarTraceSet& trace, int workers = 0);
};

}  // namespace ntrace

#endif  // SRC_ANALYSIS_TRACE_SCAN_H_
