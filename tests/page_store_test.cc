// Unit tests: src/mm/page_store (residency, dirtiness, LRU eviction), plus
// the eviction walk's cost on a long pool-machine run.

#include <gtest/gtest.h>

#include <iterator>
#include <list>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/mm/page_store.h"
#include "src/replay/trace_replayer.h"
#include "src/trace/collection_server.h"
#include "src/workload/fleet.h"
#include "src/workload/simulated_system.h"

namespace ntrace {
namespace {

int node_a;
int node_b;

TEST(PageMath, IndexAndSpan) {
  EXPECT_EQ(PageIndex(0), 0u);
  EXPECT_EQ(PageIndex(4095), 0u);
  EXPECT_EQ(PageIndex(4096), 1u);
  EXPECT_EQ(PageSpan(0, 0), 0u);
  EXPECT_EQ(PageSpan(0, 1), 1u);
  EXPECT_EQ(PageSpan(0, 4096), 1u);
  EXPECT_EQ(PageSpan(0, 4097), 2u);
  EXPECT_EQ(PageSpan(4095, 2), 2u);  // Straddles a boundary.
  EXPECT_EQ(PageSpan(8192, 8192), 2u);
}

TEST(PageStore, InsertAndResidency) {
  PageStore store(16);
  EXPECT_TRUE(store.Insert(&node_a, 0));
  EXPECT_FALSE(store.Insert(&node_a, 0));  // Already there.
  EXPECT_TRUE(store.IsResident(&node_a, 0));
  EXPECT_FALSE(store.IsResident(&node_a, 1));
  EXPECT_FALSE(store.IsResident(&node_b, 0));
  EXPECT_EQ(store.resident_pages(), 1u);
}

TEST(PageStore, DirtyLifecycle) {
  PageStore store(16);
  store.Insert(&node_a, 3);
  EXPECT_FALSE(store.IsDirty(&node_a, 3));
  store.MarkDirty(&node_a, 3);
  EXPECT_TRUE(store.IsDirty(&node_a, 3));
  EXPECT_EQ(store.dirty_pages(), 1u);
  store.MarkClean(&node_a, 3);
  EXPECT_FALSE(store.IsDirty(&node_a, 3));
  EXPECT_EQ(store.dirty_pages(), 0u);
  EXPECT_TRUE(store.IsResident(&node_a, 3));  // Clean, still cached.
}

TEST(PageStore, MarkDirtyCreatesEntry) {
  PageStore store(16);
  store.MarkDirty(&node_a, 7);
  EXPECT_TRUE(store.IsResident(&node_a, 7));
  EXPECT_TRUE(store.IsDirty(&node_a, 7));
}

TEST(PageStore, DirtyPagesSortedPerNode) {
  PageStore store(64);
  for (uint64_t p : {9u, 2u, 5u}) {
    store.MarkDirty(&node_a, p);
  }
  store.MarkDirty(&node_b, 1);
  const std::vector<uint64_t> dirty = store.DirtyPagesOf(&node_a);
  EXPECT_EQ(dirty, (std::vector<uint64_t>{2, 5, 9}));
  EXPECT_EQ(store.DirtyCountOf(&node_a), 3u);
  EXPECT_EQ(store.DirtyCountOf(&node_b), 1u);
}

TEST(PageStore, LruEvictsColdestCleanPage) {
  PageStore store(3);
  store.Insert(&node_a, 0);
  store.Insert(&node_a, 1);
  store.Insert(&node_a, 2);
  store.Touch(&node_a, 0);  // Page 1 becomes the coldest.
  store.Insert(&node_a, 3);
  EXPECT_EQ(store.resident_pages(), 3u);
  EXPECT_FALSE(store.IsResident(&node_a, 1));
  EXPECT_TRUE(store.IsResident(&node_a, 0));
  EXPECT_TRUE(store.IsResident(&node_a, 3));
  EXPECT_EQ(store.evictions(), 1u);
}

TEST(PageStore, EvictionSkipsDirtyPages) {
  PageStore store(3);
  store.MarkDirty(&node_a, 0);
  store.MarkDirty(&node_a, 1);
  store.Insert(&node_a, 2);
  store.Insert(&node_a, 3);  // Must evict page 2 (only clean one).
  EXPECT_TRUE(store.IsResident(&node_a, 0));
  EXPECT_TRUE(store.IsResident(&node_a, 1));
  EXPECT_FALSE(store.IsResident(&node_a, 2));
  EXPECT_TRUE(store.IsResident(&node_a, 3));
}

TEST(PageStore, AllDirtyOvercommitsInsteadOfCrashing) {
  PageStore store(2);
  store.MarkDirty(&node_a, 0);
  store.MarkDirty(&node_a, 1);
  store.MarkDirty(&node_a, 2);
  EXPECT_EQ(store.resident_pages(), 3u);  // Over budget, all retained.
  EXPECT_EQ(store.dirty_pages(), 3u);
}

TEST(PageStore, NewestInsertionNeverEvictedImmediately) {
  PageStore store(2);
  store.MarkDirty(&node_a, 0);
  store.MarkDirty(&node_a, 1);
  // Everything dirty: the fresh clean insert must survive this call.
  store.Insert(&node_a, 2);
  EXPECT_TRUE(store.IsResident(&node_a, 2));
}

TEST(PageStore, MarkCleanRewindsTheEvictionWalk) {
  PageStore store(3);
  store.MarkDirty(&node_a, 0);
  store.MarkDirty(&node_a, 1);
  store.Insert(&node_a, 2);
  store.Insert(&node_a, 3);  // Evicts page 2; the walk stops past both dirty pages.
  ASSERT_FALSE(store.IsResident(&node_a, 2));
  // Page 0 is now the least recently used clean page: the next eviction
  // takes it, not page 3, which the walk reached last time.
  store.MarkClean(&node_a, 0);
  store.Insert(&node_a, 4);
  EXPECT_FALSE(store.IsResident(&node_a, 0));
  EXPECT_TRUE(store.IsResident(&node_a, 1));
  EXPECT_TRUE(store.IsResident(&node_a, 3));
  EXPECT_TRUE(store.IsResident(&node_a, 4));
  EXPECT_EQ(store.evictions(), 2u);
}

// Under dirty pressure a walk that restarts at the LRU tail steps past every
// dirty page on every insert: about 4,096 x 4,096 visits here. The walk
// resumes where it stopped, so it passes each dirty page once.
TEST(PageStore, EvictionWalkStepsPastEachDirtyPageOnce) {
  constexpr uint64_t kPages = 4096;
  PageStore store(1024);
  for (uint64_t p = 0; p < kPages; ++p) {
    store.MarkDirty(&node_a, p);
  }
  for (uint64_t p = 0; p < kPages; ++p) {
    store.Insert(&node_b, p);
  }
  EXPECT_EQ(store.dirty_pages(), kPages);
  EXPECT_EQ(store.resident_pages(), kPages + 1);  // Only the newest clean page stays.
  EXPECT_EQ(store.evictions(), kPages - 1);
  EXPECT_LE(store.eviction_visits(), kPages + 2 * kPages);
}

TEST(PageStore, PurgeNodeDropsOnlyThatNode) {
  PageStore store(64);
  store.Insert(&node_a, 0);
  store.MarkDirty(&node_a, 1);
  store.MarkDirty(&node_a, 2);
  store.Insert(&node_b, 0);
  const uint64_t discarded = store.PurgeNode(&node_a);
  EXPECT_EQ(discarded, 2u);  // Two dirty pages died unwritten.
  EXPECT_FALSE(store.IsResident(&node_a, 0));
  EXPECT_TRUE(store.IsResident(&node_b, 0));
  EXPECT_EQ(store.dirty_pages(), 0u);
}

TEST(PageStore, PurgeEmptyNodeIsNoop) {
  PageStore store(8);
  EXPECT_EQ(store.PurgeNode(&node_a), 0u);
}

TEST(PageStore, TruncateDropsTail) {
  PageStore store(64);
  for (uint64_t p = 0; p < 10; ++p) {
    store.Insert(&node_a, p);
  }
  store.MarkDirty(&node_a, 9);
  const uint64_t discarded = store.TruncateNode(&node_a, 5);
  EXPECT_EQ(discarded, 1u);
  for (uint64_t p = 0; p < 5; ++p) {
    EXPECT_TRUE(store.IsResident(&node_a, p));
  }
  for (uint64_t p = 5; p < 10; ++p) {
    EXPECT_FALSE(store.IsResident(&node_a, p));
  }
}

TEST(PageStore, UnboundedCapacityNeverEvicts) {
  PageStore store(0);
  for (uint64_t p = 0; p < 10000; ++p) {
    store.Insert(&node_a, p);
  }
  EXPECT_EQ(store.resident_pages(), 10000u);
  EXPECT_EQ(store.evictions(), 0u);
}

// Property sweep: random op sequences keep counters consistent.
class PageStorePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageStorePropertyTest, CountersStayConsistent) {
  Rng rng(GetParam());
  PageStore store(32);
  uint64_t known_dirty = 0;
  (void)known_dirty;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t page = static_cast<uint64_t>(rng.UniformInt(0, 63));
    const int op = static_cast<int>(rng.UniformInt(0, 4));
    switch (op) {
      case 0:
        store.Insert(&node_a, page);
        break;
      case 1:
        store.MarkDirty(&node_a, page);
        break;
      case 2:
        store.MarkClean(&node_a, page);
        break;
      case 3:
        store.Touch(&node_a, page);
        break;
      case 4:
        if (rng.Bernoulli(0.02)) {
          store.PurgeNode(&node_a);
        }
        break;
    }
    // Invariants: dirty count equals the per-node sets; dirty <= resident.
    EXPECT_EQ(store.dirty_pages(), store.DirtyCountOf(&node_a));
    EXPECT_LE(store.dirty_pages(), store.resident_pages());
    // Every reported dirty page is resident.
    for (uint64_t p : store.DirtyPagesOf(&node_a)) {
      EXPECT_TRUE(store.IsResident(&node_a, p));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageStorePropertyTest, ::testing::Values(1, 2, 3, 4, 5));

// The naive model the store must match page for page: a std::list LRU
// walked from the tail on every insert, stepping past dirty pages and never
// taking the MRU front, plus one std::set of resident pages and one of dirty
// pages per node.
class ReferenceStore {
 public:
  static constexpr int kNodes = 4;

  explicit ReferenceStore(uint64_t capacity) : capacity_(capacity) {}

  void Insert(int node, uint64_t page) {
    if (resident_[node].contains(page)) {
      Touch(node, page);
    } else {
      Add(node, page, /*dirty=*/false);
    }
  }
  void MarkDirty(int node, uint64_t page) {
    if (resident_[node].contains(page)) {
      dirty_[node].insert(page);
    } else {
      Add(node, page, /*dirty=*/true);
    }
  }
  void MarkClean(int node, uint64_t page) { dirty_[node].erase(page); }
  void Touch(int node, uint64_t page) {
    auto it = where_.find({node, page});
    if (it != where_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
    }
  }
  uint64_t TruncateNode(int node, uint64_t first_page_to_drop) {
    const std::vector<uint64_t> drop(resident_[node].lower_bound(first_page_to_drop),
                                     resident_[node].end());
    uint64_t dirty_discarded = 0;
    for (uint64_t page : drop) {
      dirty_discarded += dirty_[node].contains(page) ? 1 : 0;
      Remove(node, page);
    }
    return dirty_discarded;
  }
  uint64_t PurgeNode(int node) { return TruncateNode(node, 0); }

  uint64_t resident_pages() const { return lru_.size(); }
  uint64_t dirty_pages() const {
    uint64_t n = 0;
    for (const std::set<uint64_t>& d : dirty_) {
      n += d.size();
    }
    return n;
  }
  uint64_t evictions() const { return evictions_; }
  bool IsResident(int node, uint64_t page) const { return resident_[node].contains(page); }
  bool IsDirty(int node, uint64_t page) const { return dirty_[node].contains(page); }
  std::vector<uint64_t> DirtyPagesOf(int node) const {
    return {dirty_[node].begin(), dirty_[node].end()};
  }

 private:
  using Key = std::pair<int, uint64_t>;

  void Add(int node, uint64_t page, bool dirty) {
    lru_.push_front({node, page});
    where_[{node, page}] = lru_.begin();
    resident_[node].insert(page);
    if (dirty) {
      dirty_[node].insert(page);
    }
    if (capacity_ == 0 || lru_.size() <= capacity_) {
      return;
    }
    auto it = std::prev(lru_.end());
    while (lru_.size() > capacity_) {
      const bool at_front = it == lru_.begin();
      const auto newer = at_front ? it : std::prev(it);
      const auto [n, p] = *it;
      if (!at_front && !dirty_[n].contains(p)) {
        Remove(n, p);
        ++evictions_;
      }
      if (at_front) {
        break;
      }
      it = newer;
    }
  }
  void Remove(int node, uint64_t page) {
    auto it = where_.find({node, page});
    lru_.erase(it->second);
    where_.erase(it);
    resident_[node].erase(page);
    dirty_[node].erase(page);
  }

  uint64_t capacity_;
  std::list<Key> lru_;  // Front: most recently used.
  std::map<Key, std::list<Key>::iterator> where_;
  std::set<uint64_t> resident_[kNodes];
  std::set<uint64_t> dirty_[kNodes];
  uint64_t evictions_ = 0;
};

int oracle_nodes[ReferenceStore::kNodes];

::testing::AssertionResult SameState(const PageStore& store, const ReferenceStore& ref,
                                     uint64_t pages_per_node) {
  if (store.resident_pages() != ref.resident_pages() ||
      store.dirty_pages() != ref.dirty_pages() || store.evictions() != ref.evictions()) {
    return ::testing::AssertionFailure()
           << "resident " << store.resident_pages() << " vs " << ref.resident_pages()
           << ", dirty " << store.dirty_pages() << " vs " << ref.dirty_pages()
           << ", evictions " << store.evictions() << " vs " << ref.evictions();
  }
  for (int n = 0; n < ReferenceStore::kNodes; ++n) {
    const void* node = &oracle_nodes[n];
    for (uint64_t p = 0; p < pages_per_node; ++p) {
      if (store.IsResident(node, p) != ref.IsResident(n, p) ||
          store.IsDirty(node, p) != ref.IsDirty(n, p)) {
        return ::testing::AssertionFailure() << "node " << n << " page " << p << ": resident "
                                             << store.IsResident(node, p) << ", dirty "
                                             << store.IsDirty(node, p);
      }
    }
    if (store.DirtyPagesOf(node) != ref.DirtyPagesOf(n) ||
        store.DirtyCountOf(node) != ref.DirtyPagesOf(n).size()) {
      return ::testing::AssertionFailure() << "node " << n << ": dirty page lists differ";
    }
  }
  return ::testing::AssertionSuccess();
}

// Differential exactness: one seeded op stream drives the store and the
// reference, which must agree after every op. Dirtying and cleaning phases
// alternate so that dirty pages often exceed capacity, which is where the
// eviction walk's resume point matters.
class PageStoreOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageStoreOracleTest, MatchesReferenceModel) {
  const uint64_t capacity = GetParam();
  const uint64_t pages_per_node = capacity;  // Four nodes overfill the store.
  const uint64_t phase_ops = 3 * capacity;
  Rng rng(capacity);
  PageStore store(capacity);
  ReferenceStore ref(capacity);
  uint64_t ops_over_capacity = 0;
  for (uint64_t i = 0; i < 8 * phase_ops; ++i) {
    const bool dirtying = (i / phase_ops) % 2 == 0;
    const int n = static_cast<int>(rng.UniformInt(0, ReferenceStore::kNodes - 1));
    const void* node = &oracle_nodes[n];
    const uint64_t page = static_cast<uint64_t>(rng.UniformInt(0, pages_per_node - 1));
    const int64_t roll = rng.UniformInt(0, 999);
    if (roll < 300) {
      store.Insert(node, page);
      ref.Insert(n, page);
    } else if (roll < (dirtying ? 750 : 450)) {
      store.MarkDirty(node, page);
      ref.MarkDirty(n, page);
    } else if (roll < 850) {
      store.MarkClean(node, page);
      ref.MarkClean(n, page);
    } else if (roll < 990) {
      store.Touch(node, page);
      ref.Touch(n, page);
    } else if (roll < 998) {
      const uint64_t cut = pages_per_node / 2 + page / 2;
      ASSERT_EQ(store.TruncateNode(node, cut), ref.TruncateNode(n, cut)) << "op " << i;
    } else {
      ASSERT_EQ(store.PurgeNode(node), ref.PurgeNode(n)) << "op " << i;
    }
    ASSERT_TRUE(SameState(store, ref, pages_per_node)) << "op " << i;
    ops_over_capacity += store.dirty_pages() > capacity ? 1 : 0;
  }
  // The stream spent real time with more dirty pages than capacity.
  EXPECT_GT(ops_over_capacity, phase_ops / 4);
}

INSTANTIATE_TEST_SUITE_P(Capacities, PageStoreOracleTest, ::testing::Values(16, 37, 64, 128, 256));

// System 19 of the standard fleet (seed 1999), a pool machine, meets dirty
// pressure between its 14th and 16th simulated day: from then on the store
// sits over capacity, full of dirty pages. The record count, fingerprint and
// evictions are those of a walk that restarts at the LRU tail, which
// examines about a thousand slots per eviction here; the resumable walk
// must evict the same pages and examine at most two per eviction.
TEST(PageStoreAtScale, PoolSystemSixteenDaysEvictsInLinearTime) {
  FleetConfig config;
  config.walk_up = 10;
  config.pool = 12;
  config.personal = 14;
  config.administrative = 5;
  config.scientific = 4;
  config.seed = 1999;
  config.activity_scale = 0.75;
  config.content_scale = 0.12;
  config.days = 16;
  const SystemOptions options = FleetSystemOptions(config)[18];
  ASSERT_EQ(options.system_id, 19u);
  ASSERT_EQ(options.category, UsageCategory::kPool);
  CollectionServer server;
  uint64_t evictions = 0;
  uint64_t visits = 0;
  {
    SimulatedSystem system(options, server);
    system.Run();
    evictions = system.cache().pages().evictions();
    visits = system.cache().pages().eviction_visits();
  }
  const TraceSet& trace = server.Finish();
  EXPECT_EQ(trace.records.size(), 1583966u);
  EXPECT_EQ(TraceFingerprint(trace), 0x48f5e58au);
  EXPECT_EQ(evictions, 921773u);
  EXPECT_LE(visits, 2 * evictions);
}

}  // namespace
}  // namespace ntrace
