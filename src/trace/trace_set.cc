#include "src/trace/trace_set.h"

#include <algorithm>
#include <queue>
#include <set>
#include <utility>

#include "src/trace/extent_store.h"

namespace ntrace {

TraceSet::TraceSet(const TraceSet& other)
    : records(other.records), names(other.names), process_names(other.process_names) {}

TraceSet::TraceSet(TraceSet&& other) noexcept
    : records(std::move(other.records)),
      names(std::move(other.names)),
      process_names(std::move(other.process_names)) {
  other.ResetNameIndex();
}

TraceSet& TraceSet::operator=(const TraceSet& other) {
  if (this != &other) {
    records = other.records;
    names = other.names;
    process_names = other.process_names;
    ResetNameIndex();
  }
  return *this;
}

TraceSet& TraceSet::operator=(TraceSet&& other) noexcept {
  if (this != &other) {
    records = std::move(other.records);
    names = std::move(other.names);
    process_names = std::move(other.process_names);
    ResetNameIndex();
    other.ResetNameIndex();
  }
  return *this;
}

void TraceSet::ResetNameIndex() noexcept {
  name_index_.clear();
  name_index_built_.store(false, std::memory_order_release);
}

void TraceSet::EnsureNameIndex() const {
  if (name_index_built_.load(std::memory_order_acquire)) {
    return;
  }
  std::lock_guard<std::mutex> lock(name_index_mutex_);
  if (name_index_built_.load(std::memory_order_relaxed)) {
    return;
  }
  name_index_.clear();
  name_index_.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    name_index_[names[i].file_object] = i;
  }
  name_index_built_.store(true, std::memory_order_release);
}

const std::string* TraceSet::PathOf(uint64_t file_object) const {
  EnsureNameIndex();
  auto it = name_index_.find(file_object);
  return it == name_index_.end() ? nullptr : &names[it->second].path;
}

const std::string* TraceSet::ProcessNameOf(uint32_t pid) const {
  auto it = process_names.find(pid);
  return it == process_names.end() ? nullptr : &it->second;
}

TraceSet TraceSet::WithoutCacheInducedPaging() const {
  TraceSet out;
  out.names = names;
  out.process_names = process_names;
  out.records.reserve(records.size());
  for (const TraceRecord& r : records) {
    if (!r.IsCacheInduced()) {
      out.records.push_back(r);
    }
  }
  return out;
}

TraceSet TraceSet::ForSystem(uint32_t system_id) const {
  TraceSet out;
  out.process_names = process_names;
  for (const TraceRecord& r : records) {
    if (r.system_id == system_id) {
      out.records.push_back(r);
    }
  }
  for (const NameRecord& n : names) {
    if (n.system_id == system_id) {
      out.names.push_back(n);
    }
  }
  return out;
}

std::vector<uint32_t> TraceSet::SystemIds() const {
  std::set<uint32_t> ids;
  for (const TraceRecord& r : records) {
    ids.insert(r.system_id);
  }
  return {ids.begin(), ids.end()};
}

void TraceSet::SortByTime() {
  const auto by_time = [](const TraceRecord& a, const TraceRecord& b) {
    return a.complete_ticks < b.complete_ticks;
  };
  // Records append in completion order, so shards arrive sorted or nearly
  // sorted (async completions reorder only short windows). Sorting just the
  // unsorted suffix and merging preserves the exact stable_sort result:
  // inplace_merge is stable and prefers the first range on ties, which is
  // the original relative order.
  const auto first_unsorted = std::is_sorted_until(records.begin(), records.end(), by_time);
  if (first_unsorted == records.end()) {
    return;
  }
  std::stable_sort(first_unsorted, records.end(), by_time);
  std::inplace_merge(records.begin(), first_unsorted, records.end(), by_time);
}

void TraceSet::MergeSortedRuns(std::vector<std::vector<TraceRecord>> runs) {
  // Degenerate shapes first: no runs at all replaces the records with the
  // merge of nothing (empty), and a single run -- empty or not -- moves in
  // wholesale. Empty runs among several are skipped by the heap seeding
  // below. A faulted fleet can legitimately produce empty shards (every
  // shipment of a system lost), so all of these must behave.
  if (runs.empty()) {
    records.clear();
    return;
  }
  if (runs.size() == 1) {
    records = std::move(runs.front());
    return;
  }
  size_t total = 0;
  for (const auto& run : runs) {
    total += run.size();
  }
  std::vector<TraceRecord> merged;
  merged.reserve(total);
  // Min-heap keyed (completion ticks, run index): equal times pop the
  // earlier run first, and each run is consumed front to back, which
  // together reproduce the stable sort of the concatenation.
  using HeapEntry = std::pair<int64_t, size_t>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<HeapEntry>> heap;
  std::vector<size_t> pos(runs.size(), 0);
  for (size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r].empty()) {
      heap.emplace(runs[r].front().complete_ticks, r);
    }
  }
  while (!heap.empty()) {
    const size_t r = heap.top().second;
    heap.pop();
    // Gallop: records cluster by system, so once run r wins, it usually
    // keeps winning for a stretch. Emit its whole leading segment that
    // stays ahead of the best other run -- the (ticks, run index) pair
    // comparison reproduces the per-record pop order exactly -- and touch
    // the heap once per segment instead of once per record.
    const std::vector<TraceRecord>& run = runs[r];
    size_t p = pos[r];
    size_t end = p + 1;
    if (heap.empty()) {
      end = run.size();
    } else {
      const HeapEntry& contender = heap.top();
      while (end < run.size() && HeapEntry(run[end].complete_ticks, r) < contender) {
        ++end;
      }
    }
    merged.insert(merged.end(), run.begin() + p, run.begin() + end);
    pos[r] = end;
    if (end < run.size()) {
      heap.emplace(run[end].complete_ticks, r);
    }
  }
  records = std::move(merged);
}

bool TraceSet::SaveTo(const std::string& path) const {
  ExtentStoreWriter writer;
  if (!writer.Open(path, kDefaultExtentRecords, /*config_fingerprint=*/0) ||
      !writer.AppendRecords(records.data(), records.size())) {
    return false;
  }
  for (const NameRecord& n : names) {
    writer.AddName(n);
  }
  for (const auto& [pid, name] : process_names) {
    writer.AddProcessName(pid, name);
  }
  return writer.Seal();
}

}  // namespace ntrace
