// The row trace partitioned by system.
//
// Every analysis that keys its state by system is a fold (DESIGN.md §7):
// it consumes one system's records and returns a partial, and the partials
// combine in system-id order. The index is what the folds walk: each
// system's record indexes in trace order, with the systems in id order. It
// is built in one counting pass and one fill pass over the records.

#ifndef SRC_TRACEDB_SYSTEM_INDEX_H_
#define SRC_TRACEDB_SYSTEM_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/base/parallel.h"
#include "src/trace/trace_set.h"

namespace ntrace {

class SystemIndex {
 public:
  static SystemIndex Build(const TraceSet& trace);

  // Systems with at least one record; slot s is the s-th lowest id.
  int systems() const { return static_cast<int>(ids_.size()); }
  uint32_t id(int s) const { return ids_[static_cast<size_t>(s)]; }
  // System s's record indexes into trace.records, in trace order.
  std::span<const uint32_t> records(int s) const {
    return {order_.data() + begin_[static_cast<size_t>(s)],
            order_.data() + begin_[static_cast<size_t>(s) + 1]};
  }
  // System s's kIrpCreate records (its instance-table rows).
  uint64_t creates(int s) const { return creates_[static_cast<size_t>(s)]; }
  // The latest completion time in the trace (0 when it is empty).
  int64_t last_complete_ticks() const { return last_complete_ticks_; }

  // fold(records(s)) for every system, on the pool at
  // WorkerCount(workers, systems()), the system with the most records
  // first; the partials come back in system-id order.
  template <typename Fold>
  auto FoldSystems(int workers, const Fold& fold) const {
    const auto size = [this](int s) { return records(s).size(); };
    return ParallelFold(systems(), workers, size,
                        [this, &fold](int s) { return fold(records(s)); });
  }

 private:
  std::vector<uint32_t> ids_;
  std::vector<size_t> begin_;    // systems() + 1 offsets into order_.
  std::vector<uint32_t> order_;  // Record indexes, system-major.
  std::vector<uint64_t> creates_;
  int64_t last_complete_ticks_ = 0;
};

}  // namespace ntrace

#endif  // SRC_TRACEDB_SYSTEM_INDEX_H_
