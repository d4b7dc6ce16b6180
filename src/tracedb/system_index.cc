#include "src/tracedb/system_index.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "src/base/flat_map.h"

namespace ntrace {

SystemIndex SystemIndex::Build(const TraceSet& trace) {
  const size_t n = trace.records.size();
  assert(n <= std::numeric_limits<uint32_t>::max());
  SystemIndex index;

  // Counting pass: each record's system as a slot in first-appearance
  // order, and the records and creates per slot.
  FlatMap<uint32_t, uint32_t> slot_of;
  std::vector<uint32_t> record_slot(n);
  std::vector<uint32_t> ids;
  std::vector<size_t> counts;
  std::vector<uint64_t> creates;
  uint32_t slot = 0;
  for (size_t i = 0; i < n; ++i) {
    const TraceRecord& r = trace.records[i];
    if (i == 0 || r.system_id != trace.records[i - 1].system_id) {
      const auto [it, added] = slot_of.emplace(r.system_id, static_cast<uint32_t>(ids.size()));
      if (added) {
        ids.push_back(r.system_id);
        counts.push_back(0);
        creates.push_back(0);
      }
      slot = it->second;
    }
    record_slot[i] = slot;
    ++counts[slot];
    creates[slot] += r.Event() == TraceEvent::kIrpCreate ? 1 : 0;
    index.last_complete_ticks_ = std::max(index.last_complete_ticks_, r.complete_ticks);
  }

  // The systems in id order, each range after the lower ids' ranges.
  std::vector<uint32_t> by_id(ids.size());
  std::iota(by_id.begin(), by_id.end(), 0);
  std::sort(by_id.begin(), by_id.end(), [&ids](uint32_t a, uint32_t b) { return ids[a] < ids[b]; });
  std::vector<size_t> cursor(ids.size());
  index.begin_.push_back(0);
  for (const uint32_t first : by_id) {
    cursor[first] = index.begin_.back();
    index.ids_.push_back(ids[first]);
    index.creates_.push_back(creates[first]);
    index.begin_.push_back(index.begin_.back() + counts[first]);
  }

  // Fill pass.
  index.order_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    index.order_[cursor[record_slot[i]]++] = static_cast<uint32_t>(i);
  }
  return index;
}

}  // namespace ntrace
