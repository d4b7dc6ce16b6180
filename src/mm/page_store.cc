#include "src/mm/page_store.h"

#include <algorithm>
#include <cassert>

namespace ntrace {

PageStore::PageStore(uint64_t capacity_pages) : capacity_pages_(capacity_pages) {}

uint32_t PageStore::AllocSlot() {
  if (free_head_ != kNil) {
    const uint32_t s = free_head_;
    free_head_ = slots_[s].lru.next;
    return s;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void PageStore::ListPushFront(uint32_t& head, uint32_t s, Links Slot::*links) {
  Links& l = slots_[s].*links;
  l.prev = kNil;
  l.next = head;
  if (head != kNil) {
    (slots_[head].*links).prev = s;
  }
  head = s;
}

void PageStore::ListUnlink(uint32_t& head, uint32_t s, Links Slot::*links) {
  const Links& l = slots_[s].*links;
  if (l.prev != kNil) {
    (slots_[l.prev].*links).next = l.next;
  } else {
    head = l.next;
  }
  if (l.next != kNil) {
    (slots_[l.next].*links).prev = l.prev;
  }
}

void PageStore::LruPushFront(uint32_t s) {
  ListPushFront(lru_head_, s, &Slot::lru);
  slots_[s].stamp = next_stamp_++;
  if (evict_cursor_ == kNil) {
    evict_cursor_ = s;  // The only page: none is older.
  }
}

void PageStore::LruUnlink(uint32_t s) {
  if (s == evict_cursor_) {
    // Every page older than either neighbor is older than `s`, so dirty.
    const Links& l = slots_[s].lru;
    evict_cursor_ = l.prev != kNil ? l.prev : l.next;
  }
  ListUnlink(lru_head_, s, &Slot::lru);
}

void PageStore::MoveToFront(uint32_t s) {
  if (s != lru_head_) {
    LruUnlink(s);
    LruPushFront(s);
  }
}

void PageStore::SetDirty(NodePages& pages, uint32_t s) {
  slots_[s].dirty = true;
  ListPushFront(pages.dirty, s, &Slot::dirty_links);
  ++pages.dirty_count;
  ++total_dirty_;
}

void PageStore::SetClean(NodePages& pages, uint32_t s) {
  assert(pages.dirty_count > 0 && total_dirty_ > 0);
  slots_[s].dirty = false;
  ListUnlink(pages.dirty, s, &Slot::dirty_links);
  --pages.dirty_count;
  --total_dirty_;
}

void PageStore::AddPage(uint32_t& index_entry, const void* node, uint64_t page, bool dirty) {
  const uint32_t s = AllocSlot();
  index_entry = s;
  slots_[s].key = PageKey{node, page};
  slots_[s].dirty = false;
  LruPushFront(s);
  NodePages& pages = nodes_[node];
  ListPushFront(pages.resident, s, &Slot::resident);
  if (dirty) {
    SetDirty(pages, s);
  }
  EvictIfNeeded();
}

bool PageStore::Insert(const void* node, uint64_t page) {
  auto [it, inserted] = index_.emplace(PageKey{node, page}, kNil);
  if (!inserted) {
    MoveToFront(it->second);
    return false;
  }
  AddPage(it->second, node, page, /*dirty=*/false);
  return true;
}

bool PageStore::IsResident(const void* node, uint64_t page) const {
  return index_.count(PageKey{node, page}) != 0;
}

void PageStore::MarkDirty(const void* node, uint64_t page) {
  auto [it, inserted] = index_.emplace(PageKey{node, page}, kNil);
  if (inserted) {
    // Create the entry already-dirty so eviction pressure can never reclaim
    // it between insertion and dirtying.
    AddPage(it->second, node, page, /*dirty=*/true);
    return;
  }
  if (!slots_[it->second].dirty) {
    SetDirty(nodes_.at(node), it->second);
  }
}

void PageStore::MarkClean(const void* node, uint64_t page) {
  auto it = index_.find(PageKey{node, page});
  if (it == index_.end() || !slots_[it->second].dirty) {
    return;
  }
  const uint32_t s = it->second;
  SetClean(nodes_.at(node), s);
  // The eviction walk skipped this page while it was dirty; resume there.
  if (slots_[s].stamp < slots_[evict_cursor_].stamp) {
    evict_cursor_ = s;
  }
}

bool PageStore::IsDirty(const void* node, uint64_t page) const {
  auto it = index_.find(PageKey{node, page});
  return it != index_.end() && slots_[it->second].dirty;
}

void PageStore::Touch(const void* node, uint64_t page) {
  auto it = index_.find(PageKey{node, page});
  if (it != index_.end()) {
    MoveToFront(it->second);
  }
}

void PageStore::RemoveSlot(uint32_t s) {
  Slot& slot = slots_[s];
  NodePages& pages = nodes_.at(slot.key.node);
  if (slot.dirty) {
    SetClean(pages, s);
  }
  ListUnlink(pages.resident, s, &Slot::resident);
  LruUnlink(s);
  index_.erase(slot.key);
  slot.lru.next = free_head_;
  free_head_ = s;
}

uint64_t PageStore::PurgeNode(const void* node) { return TruncateNode(node, 0); }

uint64_t PageStore::TruncateNode(const void* node, uint64_t first_page_to_drop) {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    return 0;
  }
  uint64_t dirty_discarded = 0;
  for (uint32_t s = it->second.resident; s != kNil;) {
    const uint32_t next = slots_[s].resident.next;
    if (slots_[s].key.page >= first_page_to_drop) {
      dirty_discarded += slots_[s].dirty ? 1 : 0;
      RemoveSlot(s);
    }
    s = next;
  }
  return dirty_discarded;
}

std::vector<uint64_t> PageStore::DirtyPagesOf(const void* node) const {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    return {};
  }
  // The list runs newest first: filling from the back hands pages dirtied
  // in ascending order to the sort already in order.
  std::vector<uint64_t> pages(it->second.dirty_count);
  size_t i = pages.size();
  for (uint32_t s = it->second.dirty; s != kNil; s = slots_[s].dirty_links.next) {
    pages[--i] = slots_[s].key.page;
  }
  std::sort(pages.begin(), pages.end());
  return pages;
}

uint64_t PageStore::DirtyCountOf(const void* node) const {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? 0 : it->second.dirty_count;
}

void PageStore::EvictIfNeeded() {
  if (capacity_pages_ == 0 || index_.size() <= capacity_pages_) {
    return;
  }
  // Walk toward the MRU front from where the last walk stopped (DESIGN.md
  // §9): the pages behind the cursor are dirty, and a walk from the LRU
  // tail would only step past them. The MRU front entry (typically the
  // page being inserted right now) is never evicted. When everything is
  // dirty the store over-commits; the cache manager's write throttling
  // brings it back under budget.
  uint32_t s = evict_cursor_;
  while (index_.size() > capacity_pages_ && s != lru_head_) {
    ++eviction_visits_;
    const uint32_t newer = slots_[s].lru.prev;
    if (!slots_[s].dirty) {
      RemoveSlot(s);
      ++evictions_;
    }
    s = newer;
  }
  evict_cursor_ = s;
}

}  // namespace ntrace
