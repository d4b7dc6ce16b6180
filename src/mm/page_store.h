// The system page cache: residency and dirtiness of 4 KB logical file pages.
//
// Caching in NT happens at the logical file block level, not at disk block
// level (paper, section 9). The page store tracks which pages of which file
// node are memory-resident, which are dirty, and runs the global LRU that
// bounds cache memory. Residency survives open/close cycles -- a file
// re-opened shortly after close still hits in cache, which contributes to
// the paper's observation that 60% of read requests are satisfied from the
// file cache.

#ifndef SRC_MM_PAGE_STORE_H_
#define SRC_MM_PAGE_STORE_H_

#include <cstdint>
#include <vector>

#include "src/base/flat_map.h"

namespace ntrace {

constexpr uint64_t kPageSize = 4096;

// Page index covering byte `offset`.
constexpr uint64_t PageIndex(uint64_t offset) { return offset / kPageSize; }
// Number of pages needed to cover [offset, offset+length).
constexpr uint64_t PageSpan(uint64_t offset, uint64_t length) {
  if (length == 0) {
    return 0;
  }
  return PageIndex(offset + length - 1) - PageIndex(offset) + 1;
}

// Identifies a cached page: the owning file node (opaque to the store) and
// the page index within the file.
struct PageKey {
  const void* node = nullptr;
  uint64_t page = 0;
  bool operator==(const PageKey&) const = default;
};

struct PageKeyHash {
  size_t operator()(const PageKey& k) const {
    const auto h1 = std::hash<const void*>{}(k.node);
    const auto h2 = std::hash<uint64_t>{}(k.page);
    return h1 ^ (h2 * 0x9E3779B97F4A7C15ULL);
  }
};

class PageStore {
 public:
  // `capacity_pages` bounds resident pages; 0 means unbounded.
  explicit PageStore(uint64_t capacity_pages);

  // Makes a page resident (no-op if already resident) and marks it most
  // recently used. Returns true if the page was newly inserted.
  bool Insert(const void* node, uint64_t page);

  bool IsResident(const void* node, uint64_t page) const;

  // Marks an existing (or newly inserted) page dirty.
  void MarkDirty(const void* node, uint64_t page);
  void MarkClean(const void* node, uint64_t page);
  bool IsDirty(const void* node, uint64_t page) const;

  // Touches a page for LRU purposes.
  void Touch(const void* node, uint64_t page);

  // Drops all pages of a node; returns the number of *dirty* pages that were
  // discarded unwritten (the section 6.3 "unwritten pages present at
  // overwrite time" statistic).
  uint64_t PurgeNode(const void* node);

  // Drops pages of `node` at page index >= first_kept_page (truncation).
  // Returns discarded dirty-page count.
  uint64_t TruncateNode(const void* node, uint64_t first_page_to_drop);

  // All dirty pages of a node, sorted ascending (for flush/lazy-write runs).
  // The store keeps them unordered; this sorts a copy.
  std::vector<uint64_t> DirtyPagesOf(const void* node) const;
  uint64_t DirtyCountOf(const void* node) const;

  uint64_t resident_pages() const { return index_.size(); }
  uint64_t dirty_pages() const { return total_dirty_; }
  uint64_t capacity_pages() const { return capacity_pages_; }
  uint64_t evictions() const { return evictions_; }
  // Slots the eviction walk has examined as candidates (DESIGN.md §9).
  uint64_t eviction_visits() const { return eviction_visits_; }

 private:
  // Pages live in a recycled slot pool threaded with intrusive lists
  // (DESIGN.md §9): the global LRU, each node's resident pages and each
  // node's dirty pages. Insert/evict/clean/purge relink slots and never
  // allocate or move memory in steady state.
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  struct Links {
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };

  struct Slot {
    PageKey key;
    uint64_t stamp = 0;  // Orders pages by their last move to the MRU front.
    Links lru;           // prev: toward the MRU front; next: toward the tail
                         // (and the free chain).
    Links resident;      // The node's resident pages.
    Links dirty_links;   // The node's dirty pages, while dirty.
    bool dirty = false;
  };

  // Heads of one node's two page lists. Entries outlive their pages so a
  // re-cached node reuses its map slot.
  struct NodePages {
    uint32_t resident = kNil;
    uint32_t dirty = kNil;
    uint64_t dirty_count = 0;
  };

  uint32_t AllocSlot();
  void ListPushFront(uint32_t& head, uint32_t s, Links Slot::*links);
  void ListUnlink(uint32_t& head, uint32_t s, Links Slot::*links);
  void LruPushFront(uint32_t s);
  void LruUnlink(uint32_t s);
  void MoveToFront(uint32_t s);
  // Links a new page at the MRU front and into its node's lists, and points
  // its fresh index_ entry at the page's slot.
  void AddPage(uint32_t& index_entry, const void* node, uint64_t page, bool dirty);
  void SetDirty(NodePages& pages, uint32_t s);
  void SetClean(NodePages& pages, uint32_t s);

  // Evict clean LRU pages until under capacity. Dirty pages are never
  // evicted here (the lazy writer cleans them first); if everything is dirty
  // the store temporarily over-commits.
  void EvictIfNeeded();

  // Unlinks a resident slot from every list and index and frees it.
  void RemoveSlot(uint32_t s);

  uint64_t capacity_pages_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNil;  // Chained through Slot::lru.next.
  uint32_t lru_head_ = kNil;   // Most recently used.
  // Where the eviction walk resumes; kNil only while the store is empty.
  // Every page older than the cursor is dirty, so a walk from the LRU tail
  // would only step past them.
  uint32_t evict_cursor_ = kNil;
  uint64_t next_stamp_ = 0;
  // Flat maps (DESIGN.md §9): every cached read/write probes index_, so the
  // probe must stay within one cache line instead of chasing nodes.
  FlatMap<PageKey, uint32_t, PageKeyHash> index_;
  FlatMap<const void*, NodePages> nodes_;
  uint64_t total_dirty_ = 0;
  uint64_t evictions_ = 0;
  uint64_t eviction_visits_ = 0;
};

}  // namespace ntrace

#endif  // SRC_MM_PAGE_STORE_H_
