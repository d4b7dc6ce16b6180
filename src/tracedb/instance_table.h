// The instance fact table.
//
// "The second table (instance) holds the information related to each
// FileObject instance, which is associated with a single file open-close
// sequence, combined with summary data for all operations on the object
// during its life-time" (section 4). Virtually every measurement in the
// paper -- session lifetimes, access patterns, run lengths, control-only
// open fraction, FastIO shares -- is computed over this table; building it
// from the raw record stream is the first step of each analyzer.
//
// Row order is system-major: each system's rows form one contiguous range,
// the ranges in system-id order, and within a range the rows are in create
// order (trace order of the system's kIrpCreate records). A per-system fold
// (DESIGN.md §7) reads one range; a pass over rows() reads the systems one
// after another.

#ifndef SRC_TRACEDB_INSTANCE_TABLE_H_
#define SRC_TRACEDB_INSTANCE_TABLE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/time.h"
#include "src/ntio/irp.h"
#include "src/ntio/status.h"
#include "src/trace/trace_set.h"
#include "src/tracedb/dimensions.h"
#include "src/tracedb/system_index.h"

namespace ntrace {

// One data transfer within an open-close session (compact form retained for
// sequential-run and inter-arrival analysis).
struct RwOp {
  uint64_t offset = 0;
  uint32_t length = 0;
  bool write = false;
  bool fastio = false;
  int64_t start_ticks = 0;
  int64_t complete_ticks = 0;
};

// A file is a path on one system: one path on two machines is two files,
// so per-file analyses key by (system_id, path), never by the path alone.
// The view borrows the instance's path.
using FileKey = std::pair<uint32_t, std::string_view>;

struct FileKeyHash {
  size_t operator()(const FileKey& k) const noexcept {
    return std::hash<std::string_view>{}(k.second) ^ (k.first * 0x9E3779B97F4A7C15ULL);
  }
};

// One row per FileObject instance.
struct Instance {
  uint64_t file_object = 0;
  uint32_t system_id = 0;
  uint32_t process_id = 0;
  std::string path;
  FileTypeKey file_type;

  // Create outcome.
  NtStatus open_status = NtStatus::kSuccess;
  CreateDisposition disposition = CreateDisposition::kOpen;
  CreateAction create_action = CreateAction::kOpened;
  uint32_t create_options = 0;
  uint32_t file_attributes = 0;
  bool open_failed = false;

  // Lifecycle times (ticks; 0 when the event is absent from the trace).
  int64_t open_start = 0;
  int64_t open_complete = 0;
  int64_t cleanup_time = 0;
  int64_t close_time = 0;

  // Aggregates.
  uint32_t irp_reads = 0;
  uint32_t irp_writes = 0;
  uint32_t fastio_reads = 0;
  uint32_t fastio_writes = 0;
  uint32_t fastio_read_fallbacks = 0;   // FastIO attempted, not possible.
  uint32_t fastio_write_fallbacks = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint32_t control_ops = 0;    // Query/set info, FSCTL, flush, locks, volume query.
  uint32_t directory_ops = 0;
  uint32_t read_errors = 0;    // End-of-file reads etc.
  uint32_t control_errors = 0;
  uint32_t pagein_irps = 0;       // Cache-fault paging reads on this object.
  uint32_t readahead_irps = 0;    // Speculative paging reads.
  uint32_t lazywrite_irps = 0;    // Write-behind paging writes.
  uint32_t vm_paging_irps = 0;    // VM-originated paging (image/mapped).
  bool set_delete_disposition = false;  // Explicit delete through this handle.
  bool seteof_at_close = false;         // Cache-manager SetEndOfFile observed.

  uint64_t file_size_at_open = 0;
  uint64_t max_file_size = 0;

  // Data transfers in time order (excluding paging I/O).
  std::vector<RwOp> ops;

  // --- Derived helpers --------------------------------------------------------
  FileKey file() const { return {system_id, path}; }
  uint32_t reads() const { return irp_reads + fastio_reads; }
  uint32_t writes() const { return irp_writes + fastio_writes; }
  bool HasData() const { return reads() + writes() > 0; }
  bool ReadOnly() const { return reads() > 0 && writes() == 0; }
  bool WriteOnly() const { return writes() > 0 && reads() == 0; }
  bool ReadWrite() const { return reads() > 0 && writes() > 0; }
  // A session opened to perform only control/directory work (no data
  // transfer) -- the class that makes up 74% of opens in the paper.
  bool ControlOnly() const { return !open_failed && !HasData(); }
  bool delete_on_close() const { return (create_options & kOptDeleteOnClose) != 0; }
  bool temporary() const { return (file_attributes & kAttrTemporary) != 0; }
  // Open session duration (cleanup - open completion); 0 if never closed.
  SimDuration SessionLength() const {
    return cleanup_time > 0 ? SimDuration(cleanup_time - open_complete) : SimDuration(0);
  }
};

class InstanceTable {
 public:
  // Builds the table from a (time-sorted) trace set. Paging records are
  // attributed to the instance of the file object they were issued on (the
  // cache map holder). `index` is the trace's: each system's rows are one
  // pool task at WorkerCount(workers, index.systems()), written into that
  // system's slice of the one exactly-sized row vector, and the table has
  // the index's systems, in the same slots.
  static InstanceTable Build(const TraceSet& trace, const SystemIndex& index, int workers);
  // The same fold at one worker, over the trace's own index.
  static InstanceTable Build(const TraceSet& trace);
  // A table over rows made by hand: stably partitioned by system, so each
  // system keeps its rows' given order.
  static InstanceTable FromRows(std::vector<Instance> rows);

  const std::vector<Instance>& rows() const { return rows_; }

  // Slot s is the table's s-th lowest system id.
  int systems() const { return static_cast<int>(system_ids_.size()); }
  uint32_t system_id(int s) const { return system_ids_[static_cast<size_t>(s)]; }
  std::span<const Instance> system_rows(int s) const {
    return {rows_.data() + begin_[static_cast<size_t>(s)],
            rows_.data() + begin_[static_cast<size_t>(s) + 1]};
  }

  // fold(system_rows(s)) for every system, on the pool at
  // WorkerCount(workers, systems()), the system with the most rows first;
  // the partials come back in system-id order.
  template <typename Fold>
  auto FoldSystems(int workers, const Fold& fold) const {
    const auto size = [this](int s) { return system_rows(s).size(); };
    return ParallelFold(systems(), workers, size,
                        [this, &fold](int s) { return fold(system_rows(s)); });
  }

  // Rows with a successful open.
  std::vector<const Instance*> SuccessfulOpens() const;
  // Rows that transferred data.
  std::vector<const Instance*> DataSessions() const;

 private:
  std::vector<Instance> rows_;
  std::vector<uint32_t> system_ids_;
  std::vector<size_t> begin_{0};  // systems() + 1 offsets into rows_.
};

}  // namespace ntrace

#endif  // SRC_TRACEDB_INSTANCE_TABLE_H_
