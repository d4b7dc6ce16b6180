// The columnar scan (DESIGN.md §12): TraceScan over ColumnBatch column
// arrays, one scalar pass per batch.
//
// The row sweep (TraceScan::Run over a TraceSet) pays three per-record
// costs that the column layout lets this pass drop:
//
//   * process classification memoizes per pid (one string hash per distinct
//     pid per trace, not per record) in a dense byte table;
//   * active seconds ride a dense per-system last-second table -- on a
//     time-sorted trace the hash set is touched once per new second, not
//     once per record (and out-of-order input still counts exactly, the
//     set is only bypassed when the second repeats);
//   * the event switch becomes one increment into a 64x64 (event, status)
//     tally table, folded into the named counters once per scan.
//
// Everything parity-critical keeps the row sweep's exact arithmetic: the
// latency double is the same SimDuration expression, CDF sample multisets
// are identical (WeightedCdf sorts on Finalize, so per-file emission order
// never shows), and the (event, status) fold applies the same NtError /
// special-status predicates as the row switch. The two stay separate code
// so each is the other's oracle: tests/scan_parity_test.cc holds them equal.

#ifndef SRC_ANALYSIS_SCAN_KERNELS_H_
#define SRC_ANALYSIS_SCAN_KERNELS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/analysis/trace_scan.h"
#include "src/base/flat_map.h"
#include "src/trace/extent_store.h"

namespace ntrace {

// Streaming accumulator: feed process names once, then Consume() every
// batch in trace order, then Finish(). Produces a TraceScan identical to
// the row sweep, TraceScan::Run(const TraceSet&), over the same records.
class ScanAccumulator {
 public:
  ScanAccumulator();

  // Registers a process name (first registration of a pid wins, matching
  // unordered_map::emplace in the row-mode tables). Classification happens
  // here, once per distinct pid.
  void AddProcessName(uint32_t pid, std::string_view name);

  // Bounds CDF accumulation memory: every output distribution spills its
  // sample overflow to `path_prefix` + a per-CDF suffix and Finish()
  // external-merges the runs, byte-identical to the resident path. Call
  // before the first Consume(). Used for disk-backed (out-of-core) scans,
  // where the CDF samples -- not the trace -- dominate peak RSS.
  void SpillCdfsTo(const std::string& path_prefix);

  // Accumulates one batch. Batches must arrive in trace record order.
  void Consume(const ColumnBatch& b);

  // Folds the tally table, closes open run chains, finalizes every CDF.
  // The accumulator is spent afterwards.
  TraceScan Finish();

 private:
  // Streaming run state for one file object (same shape as the row path).
  struct RunState {
    uint64_t read_end = 0;
    uint32_t read_ops = 0;
    uint64_t read_bytes = 0;
    uint64_t write_end = 0;
    uint32_t write_ops = 0;
    uint64_t write_bytes = 0;
  };

  void EmitRead(RunState& s);
  void EmitWrite(RunState& s);

  TraceScan out_;

  // (event, status) occurrence counts for non-paging records; both axes
  // clamped to 63 (clamped codes fold into no named counter, exactly like
  // the row switch's default case).
  std::vector<uint64_t> tally_;  // 64 x 64.

  // Distinct (system_id << 32 | second) pairs, with a dense last-second
  // fast path per system: the hash set is consulted only when a system's
  // second changes. last_sec_ stores second + 1 (0 = none yet); systems
  // with ids beyond the dense cap fall back to the exact hash set.
  FlatMap<uint64_t, uint8_t> active_seconds_;
  std::vector<uint64_t> last_sec_;

  FlatMap<uint64_t, RunState> runs_;

  // pid -> 1 (interactive) | 2 (non-interactive), 0/absent = unattributed.
  // Small pids (every fleet trace) classify through a dense byte table --
  // one L1 load per record instead of a hash probe; wild pids fall back to
  // the exact map. First registration of a pid wins in both.
  std::vector<uint8_t> pid_class_dense_;
  FlatMap<uint32_t, uint8_t> pid_class_;
};

// The columns the scan actually reads. Disk-backed stores skip decoding
// the rest (7 of 19 columns: file_size, returned, create_options,
// file_attributes, disposition, create_action, reserved) -- the per-column
// length fields make the skip a seek, not a decode.
inline constexpr uint32_t kScanColumnMask =
    (1u << kExtentCol_event) | (1u << kExtentCol_status) | (1u << kExtentCol_irp_flags) |
    (1u << kExtentCol_length) | (1u << kExtentCol_offset) | (1u << kExtentCol_file_object) |
    (1u << kExtentCol_complete_ticks) | (1u << kExtentCol_start_ticks) |
    (1u << kExtentCol_system_id) | (1u << kExtentCol_process_id) | (1u << kExtentCol_fsctl) |
    (1u << kExtentCol_info_class);

}  // namespace ntrace

#endif  // SRC_ANALYSIS_SCAN_KERNELS_H_
