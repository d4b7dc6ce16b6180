// Trace sets: the collected data of one tracing run, in row form. SaveTo
// publishes a run as an NTCOLX01 extent store (src/trace/extent_store.h),
// the one trace file format, which ColumnarTraceSet::FromFile reads back
// (ToRows() for the row form) -- fulfilling the paper's goal of a data
// collection "available for public inspection ... used as input for file
// system simulation studies".

#ifndef SRC_TRACE_TRACE_SET_H_
#define SRC_TRACE_TRACE_SET_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/flat_map.h"
#include "src/trace/trace_record.h"

namespace ntrace {

class TraceSet {
 public:
  TraceSet() = default;
  // The name index is per-instance state: copies and moved-to sets start
  // unindexed and rebuild on first lookup.
  TraceSet(const TraceSet& other);
  TraceSet(TraceSet&& other) noexcept;
  TraceSet& operator=(const TraceSet& other);
  TraceSet& operator=(TraceSet&& other) noexcept;

  std::vector<TraceRecord> records;
  std::vector<NameRecord> names;
  // Process id -> image name, captured at the end of the run.
  std::unordered_map<uint32_t, std::string> process_names;

  // Lookup helpers. The file-object index is built on first use, guarded so
  // concurrent PathOf calls from parallel analyses are safe; mutating
  // `names` after a lookup leaves the index stale (call EnsureNameIndex
  // from a single thread after the set is fully populated to avoid any
  // first-lookup contention).
  const std::string* PathOf(uint64_t file_object) const;
  const std::string* ProcessNameOf(uint32_t pid) const;

  // Builds the file_object -> path index now. Thread-safe and idempotent.
  void EnsureNameIndex() const;

  // Returns a copy without cache-manager-induced paging duplicates (the
  // paper's analysis-time filtering, section 3.3). VM-originated paging
  // (image loads, mapped faults) is retained.
  TraceSet WithoutCacheInducedPaging() const;

  // Returns only the records of one system.
  TraceSet ForSystem(uint32_t system_id) const;
  std::vector<uint32_t> SystemIds() const;

  // Stable sort by completion time (records arrive batched per system).
  void SortByTime();

  // Replaces `records` with the stable k-way merge of `runs`, each of which
  // must already be time-sorted. Equal completion times resolve to the
  // earlier run, and within one run input order is preserved -- the result
  // is byte-identical to SortByTime over the concatenation of the runs,
  // without the global O(n log n) sort. The fleet merge feeds this the
  // per-system shard streams in system-id order.
  void MergeSortedRuns(std::vector<std::vector<TraceRecord>> runs);

  // Writes the trace as a sealed, compressed extent store: records in
  // order in kDefaultExtentRecords extents, then names, then process names
  // in map order, config fingerprint 0. Returns false on I/O failure.
  bool SaveTo(const std::string& path) const;

 private:
  void ResetNameIndex() noexcept;

  // Double-checked lazy name index: `name_index_built_` is the publication
  // flag, the mutex serializes the one-time build. Both are per-instance
  // and never copied.
  mutable std::mutex name_index_mutex_;
  mutable std::atomic<bool> name_index_built_{false};
  // Flat map (DESIGN.md §9): the per-record PathOf probe is one cache line,
  // not a node chase. Iteration order is irrelevant here -- `process_names`
  // above stays std::unordered_map because its iteration order is part of
  // the serialized format.
  mutable FlatMap<uint64_t, size_t> name_index_;
};

}  // namespace ntrace

#endif  // SRC_TRACE_TRACE_SET_H_
