// The scan (DESIGN.md §12): TraceScan over ColumnBatch column arrays, as an
// ordered chunk fold on the worker pool (src/base/parallel.h). It is the
// only scan, for both trace forms: a store's extents and a row trace's
// 64K-record chunks (transposed to their 12 scan columns on the worker)
// fold into partials side by side, and the calling thread absorbs the
// partials in chunk order, so the result is byte-identical at every worker
// count and memory stays O(workers x one extent).
//
// Per record, the fold pays what the column layout lets it:
//
//   * process classification memoizes per pid (one string hash per distinct
//     pid per trace, not per record) in a dense byte table;
//   * active seconds ride a dense per-system last-second table -- on a
//     time-sorted chunk the hash set is touched once per new second, not
//     once per record (and out-of-order input still counts exactly, the
//     set is only bypassed when the second repeats);
//   * the event switch becomes one increment into a 64x64 (event, status)
//     tally table, folded into the named counters once per scan.
//
// Run chains cross chunk edges: a partial keeps, per file object and
// direction, the chunk's first run (with the offset of its first transfer)
// and its open last run, and emits only the runs that close strictly inside
// the chunk. Absorb joins a chunk's first run to the running chain iff its
// first offset equals the chain's end -- the record-at-a-time rule
// `off == end` -- and emits the chain otherwise. Everything else is a sum
// or a set union, and CDF samples append (WeightedCdf sorts on Finalize, so
// emission order never shows). tests/scan_parity_test.cc holds both forms,
// at 1, 2 and 4 workers, equal to a record-at-a-time reference sweep that
// lives in the test tree.

#ifndef SRC_ANALYSIS_SCAN_KERNELS_H_
#define SRC_ANALYSIS_SCAN_KERNELS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/trace_scan.h"
#include "src/base/flat_map.h"
#include "src/trace/extent_store.h"

namespace ntrace {

// Register process names, then Fold() chunks on any threads, Absorb() their
// partials in trace order on one thread, then Finish().
class ScanAccumulator {
 public:
  // One direction's runs on one file object inside one chunk.
  struct ChunkRuns {
    bool any = false;           // The chunk has a transfer in this direction.
    bool first_closed = false;  // The chunk's first run closed inside it.
    uint64_t first_offset = 0;  // Offset of the chunk's first transfer.
    uint64_t first_bytes = 0;   // The first run's bytes, once closed.
    uint64_t last_bytes = 0;    // The open last run (the first, until it closes).
    uint64_t last_end = 0;
  };
  struct FileRuns {
    ChunkRuns read;
    ChunkRuns write;
  };

  // One chunk's share of the scan, reused from chunk to chunk.
  struct Partial {
    // Empties the partial for the next chunk, keeping its buffers.
    void Clear();

    // Counters, flushed files and every CDF sample of the chunk, the runs
    // that closed inside it included.
    TraceScan scan;
    std::vector<uint64_t> tally;                // (event, status), 64 x 64.
    FlatMap<uint64_t, uint8_t> active_seconds;  // system_id << 32 | second.
    std::vector<uint64_t> last_sec;             // Per system: second + 1, 0 = none.
    FlatMap<uint64_t, FileRuns> runs;           // Per file object.
  };

  ScanAccumulator();

  // Registers a process name (first registration of a pid wins, matching
  // unordered_map::emplace in the row-mode tables). Classification happens
  // here, once per distinct pid, before any Fold.
  void AddProcessName(uint32_t pid, std::string_view name);

  // Bounds CDF accumulation memory: every output distribution spills its
  // sample overflow to `path_prefix` + a per-CDF suffix and Finish()
  // external-merges the runs, byte-identical to the resident path. Call
  // before the first Absorb(). Used for store scans, where the CDF samples
  // -- not the trace -- dominate peak RSS.
  void SpillCdfsTo(const std::string& path_prefix);

  // Folds the next batch of one chunk into its partial (Clear()ed at the
  // chunk's start). Const and thread-safe: it reads only the pid class
  // tables.
  void Fold(const ColumnBatch& b, Partial* p) const;

  // Adds one chunk's partial. Partials must arrive in trace record order.
  void Absorb(const Partial& p);

  // Folds the tally table, closes open run chains and finalizes the 14
  // CDFs as pool tasks (`workers` <= 0: all cores). The accumulator is
  // spent afterwards.
  TraceScan Finish(int workers);

 private:
  // The running chain of one direction on one file object, across chunks.
  struct Chain {
    bool open = false;
    uint64_t bytes = 0;
    uint64_t end = 0;
  };
  struct OpenRuns {
    Chain read;
    Chain write;
  };

  // Joins a chunk's runs to the chain before them (the stitch rule above).
  void Stitch(const ChunkRuns& r, bool write, Chain* c);

  TraceScan out_;
  std::vector<uint64_t> tally_;  // 64 x 64, summed over partials.
  FlatMap<uint64_t, uint8_t> active_seconds_;
  FlatMap<uint64_t, OpenRuns> runs_;

  // pid -> 1 (interactive) | 2 (non-interactive), 0/absent = unattributed.
  // Small pids (every fleet trace) classify through a dense byte table --
  // one L1 load per record instead of a hash probe; wild pids fall back to
  // the exact map. First registration of a pid wins in both.
  std::vector<uint8_t> pid_class_dense_;
  FlatMap<uint32_t, uint8_t> pid_class_;
};

// The columns the scan actually reads. Store scans skip decoding the rest
// (7 of 19 columns: file_size, returned, create_options, file_attributes,
// disposition, create_action, reserved) -- the per-column length fields
// make the skip a seek, not a decode -- and a row chunk transposes only
// these.
inline constexpr uint32_t kScanColumnMask =
    (1u << kExtentCol_event) | (1u << kExtentCol_status) | (1u << kExtentCol_irp_flags) |
    (1u << kExtentCol_length) | (1u << kExtentCol_offset) | (1u << kExtentCol_file_object) |
    (1u << kExtentCol_complete_ticks) | (1u << kExtentCol_start_ticks) |
    (1u << kExtentCol_system_id) | (1u << kExtentCol_process_id) | (1u << kExtentCol_fsctl) |
    (1u << kExtentCol_info_class);

}  // namespace ntrace

#endif  // SRC_ANALYSIS_SCAN_KERNELS_H_
