// Unit tests: src/base/flat_map.h -- insert/erase/rehash/tombstone
// semantics, plus randomized parity against std::unordered_map.

#include "src/base/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/rng.h"

namespace ntrace {
namespace {

TEST(FlatMap, StartsEmptyWithNoAllocation) {
  FlatMap<uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.capacity(), 0u);
  EXPECT_EQ(m.find(7), m.end());
  EXPECT_EQ(m.count(7), 0u);
  EXPECT_EQ(m.erase(7), 0u);
}

TEST(FlatMap, InsertFindEraseBasics) {
  FlatMap<uint64_t, std::string> m;
  auto [it, inserted] = m.emplace(uint64_t{1}, "one");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, "one");

  auto [it2, inserted2] = m.emplace(uint64_t{1}, "uno");
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, "one");  // First value wins, like std::unordered_map.

  m[2] = "two";
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at(2), "two");
  EXPECT_EQ(m.count(1), 1u);

  EXPECT_EQ(m.erase(1), 1u);
  EXPECT_EQ(m.erase(1), 0u);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.find(1), m.end());
  EXPECT_NE(m.find(2), m.end());
}

TEST(FlatMap, OperatorBracketDefaultConstructs) {
  FlatMap<int, int> m;
  EXPECT_EQ(m[5], 0);
  m[5] += 3;
  EXPECT_EQ(m.at(5), 3);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, RehashPreservesAllEntries) {
  FlatMap<uint64_t, uint64_t> m;
  constexpr uint64_t kN = 10000;
  for (uint64_t k = 0; k < kN; ++k) {
    m.emplace(k * 0x9E3779B97F4A7C15ULL, k);
  }
  EXPECT_EQ(m.size(), kN);
  // Power-of-two capacity with load factor <= 3/4.
  EXPECT_EQ(m.capacity() & (m.capacity() - 1), 0u);
  EXPECT_GE(m.capacity() * 3, m.size() * 4);
  for (uint64_t k = 0; k < kN; ++k) {
    auto it = m.find(k * 0x9E3779B97F4A7C15ULL);
    ASSERT_NE(it, m.end());
    EXPECT_EQ(it->second, k);
  }
}

TEST(FlatMap, ReserveAvoidsRehash) {
  FlatMap<int, int> m;
  m.reserve(1000);
  const size_t cap = m.capacity();
  EXPECT_GE(cap * 3, size_t{1000} * 4);
  for (int k = 0; k < 1000; ++k) {
    m.emplace(k, k);
  }
  EXPECT_EQ(m.capacity(), cap);
}

// Forces every key onto one probe chain so tombstone handling is exercised
// deterministically.
struct CollidingHash {
  size_t operator()(int) const { return 0; }
};

TEST(FlatMap, TombstonesDoNotLoseChainMembers) {
  FlatMap<int, int, CollidingHash> m;
  for (int k = 0; k < 8; ++k) {
    m.emplace(k, k * 10);
  }
  // Erase from the middle of the chain: later members must stay findable
  // through the tombstones.
  EXPECT_EQ(m.erase(2), 1u);
  EXPECT_EQ(m.erase(4), 1u);
  for (int k : {0, 1, 3, 5, 6, 7}) {
    ASSERT_NE(m.find(k), m.end()) << k;
    EXPECT_EQ(m.at(k), k * 10);
  }
  EXPECT_EQ(m.find(2), m.end());
  EXPECT_EQ(m.find(4), m.end());
  // Re-inserting an erased key reuses a tombstone in the chain.
  m.emplace(2, 222);
  EXPECT_EQ(m.at(2), 222);
  EXPECT_EQ(m.size(), 7u);
}

TEST(FlatMap, InsertEraseChurnKeepsCapacityBounded) {
  // Steady-state churn (insert one, erase one) must not grow the table:
  // erase either reverts to empty when the chain ends or leaves a tombstone
  // that an in-place rehash reclaims. This is the open-file-table usage
  // pattern -- millions of opens, bounded concurrent openness.
  FlatMap<uint64_t, uint64_t> m;
  for (uint64_t k = 0; k < 64; ++k) {
    m.emplace(k, k);
  }
  const size_t stable_capacity_bound = 4 * m.capacity();
  for (uint64_t k = 64; k < 200000; ++k) {
    m.emplace(k, k);
    m.erase(k - 64);
    ASSERT_EQ(m.size(), 64u);
    ASSERT_LE(m.capacity(), stable_capacity_bound);
  }
}

TEST(FlatMap, ClearReleasesAndReusesStorage) {
  FlatMap<int, std::unique_ptr<int>> m;
  for (int k = 0; k < 100; ++k) {
    m.emplace(k, std::make_unique<int>(k));
  }
  const size_t cap = m.capacity();
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), cap);  // Storage retained for reuse.
  for (int k = 0; k < 100; ++k) {
    EXPECT_EQ(m.find(k), m.end());
  }
  m.emplace(7, std::make_unique<int>(7));
  EXPECT_EQ(*m.at(7), 7);
}

TEST(FlatMap, ErasedUniquePtrValueIsFreed) {
  FlatMap<int, std::unique_ptr<int>> m;
  m.emplace(1, std::make_unique<int>(42));
  ASSERT_EQ(*m.at(1), 42);
  EXPECT_EQ(m.erase(1), 1u);  // ASan would flag a leak if the slot kept it.
  EXPECT_EQ(m.find(1), m.end());
}

TEST(FlatMap, IterationVisitsEveryLiveEntryOnce) {
  FlatMap<int, int> m;
  for (int k = 0; k < 500; ++k) {
    m.emplace(k, k);
  }
  for (int k = 0; k < 500; k += 2) {
    m.erase(k);
  }
  std::vector<bool> seen(500, false);
  size_t visited = 0;
  for (const auto& [k, v] : m) {
    ASSERT_EQ(k, v);
    ASSERT_FALSE(seen[static_cast<size_t>(k)]);
    seen[static_cast<size_t>(k)] = true;
    ++visited;
  }
  EXPECT_EQ(visited, m.size());
  EXPECT_EQ(visited, 250u);
}

TEST(FlatMap, RandomizedParityWithUnorderedMap) {
  FlatMap<uint64_t, uint64_t> flat;
  std::unordered_map<uint64_t, uint64_t> ref;
  Rng rng(0xF1A7);
  for (int step = 0; step < 200000; ++step) {
    const uint64_t key = rng.NextU64() % 512;  // Small key space forces churn.
    const uint64_t op = rng.NextU64() % 4;
    if (op < 2) {
      const uint64_t value = rng.NextU64();
      flat.emplace(key, value);
      ref.emplace(key, value);
    } else if (op == 2) {
      ASSERT_EQ(flat.erase(key), ref.erase(key));
    } else {
      const auto it = flat.find(key);
      const auto rit = ref.find(key);
      ASSERT_EQ(it == flat.end(), rit == ref.end());
      if (rit != ref.end()) {
        ASSERT_EQ(it->second, rit->second);
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  // Final sweep: every reference entry present with the same value, and the
  // flat map holds nothing extra (sizes match + membership one way).
  for (const auto& [k, v] : ref) {
    const auto it = flat.find(k);
    ASSERT_NE(it, flat.end());
    ASSERT_EQ(it->second, v);
  }
}

}  // namespace
}  // namespace ntrace
