// FlatMap64 against a std::unordered_map model: seeded random
// insert/find/update/erase streams, growth from empty through several
// doublings, backward-shift erase over chains that wrap past the end of the
// slot array, the extreme keys (0, INT64_MAX, INT64_MIN — the empty-slot
// marker, which must still be an ordinary key), and keys built to share a
// home slot.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "util/flat_map.h"
#include "util/rng.h"

namespace ftss {
namespace {

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

// Every model key is found with its value, and the sizes agree.
void expect_matches(const FlatMap64& table,
                    const std::unordered_map<std::int64_t, std::int64_t>& model) {
  ASSERT_EQ(table.size(), model.size());
  EXPECT_EQ(table.empty(), model.empty());
  for (const auto& [key, value] : model) {
    const std::int64_t* found = table.find(key);
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(*found, value) << key;
  }
}

// `count` distinct keys whose home slot in a table of `capacity` slots is
// `home`.
std::vector<std::int64_t> keys_with_home(std::size_t capacity, std::size_t home,
                                         int count) {
  std::vector<std::int64_t> keys;
  for (std::int64_t k = 0; static_cast<int>(keys.size()) < count; ++k) {
    if ((FlatMap64::hash(k) & (capacity - 1)) == home) keys.push_back(k);
  }
  return keys;
}

TEST(FlatMap64, EmptyTableFindsNothing) {
  FlatMap64 table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.capacity(), 0u);
  for (const std::int64_t key : {std::int64_t{0}, kMax, kMin, std::int64_t{-1}}) {
    EXPECT_EQ(table.find(key), nullptr);
    EXPECT_FALSE(table.erase(key));
  }
}

TEST(FlatMap64, TryEmplaceKeepsTheFirstValue) {
  FlatMap64 table;
  auto [value, inserted] = table.try_emplace(7, 70);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*value, 70);
  auto [again, inserted_again] = table.try_emplace(7, 71);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(*again, 70);
  *again = 72;  // update in place
  EXPECT_EQ(*table.find(7), 72);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatMap64, ExtremeKeysAreOrdinaryKeys) {
  FlatMap64 table;
  const std::vector<std::int64_t> keys = {0, kMax, kMin, -1, 1, kMin + 1};
  std::unordered_map<std::int64_t, std::int64_t> model;
  for (const std::int64_t key : keys) {
    EXPECT_TRUE(table.try_emplace(key, key ^ 0x5a).second) << key;
    model[key] = key ^ 0x5a;
    expect_matches(table, model);
  }
  for (const std::int64_t key : keys) {
    EXPECT_TRUE(table.erase(key)) << key;
    EXPECT_FALSE(table.erase(key)) << key;
    EXPECT_EQ(table.find(key), nullptr) << key;
    model.erase(key);
    expect_matches(table, model);
  }
}

TEST(FlatMap64, GrowsFromEmptyThroughSeveralDoublingsAtHalfLoad) {
  FlatMap64 table;
  std::unordered_map<std::int64_t, std::int64_t> model;
  std::size_t doublings = 0;
  std::size_t capacity = table.capacity();
  for (std::int64_t i = 0; i < 5000; ++i) {
    const std::int64_t key = i * 0x10001 - 2500;  // negative and positive
    table.try_emplace(key, i);
    model[key] = i;
    if (table.capacity() != capacity) {
      if (capacity != 0) {
        EXPECT_EQ(table.capacity(), 2 * capacity);
      }
      capacity = table.capacity();
      ++doublings;
    }
    EXPECT_LE(2 * table.size(), table.capacity());
  }
  EXPECT_GE(doublings, 6u);
  expect_matches(table, model);
}

TEST(FlatMap64, EraseChainThatWrapsPastTheEndOfTheSlotArray) {
  FlatMap64 table;
  table.try_emplace(-7, 0);  // allocate the first slot array
  const std::size_t capacity = table.capacity();
  ASSERT_TRUE(table.erase(-7));
  // Five keys homed at the last slot and three at slot 0: the chain runs
  // last, 0, 1, ..., 6 — wrapping — and stays below half load.
  std::vector<std::int64_t> chain = keys_with_home(capacity, capacity - 1, 5);
  for (const std::int64_t key : keys_with_home(capacity, 0, 3)) {
    chain.push_back(key);
  }
  ASSERT_LE(2 * chain.size(), capacity);
  // Erase each position of the chain in turn from a fresh table.
  for (std::size_t victim = 0; victim < chain.size(); ++victim) {
    FlatMap64 t;
    std::unordered_map<std::int64_t, std::int64_t> model;
    for (const std::int64_t key : chain) {
      t.try_emplace(key, key + 1);
      model[key] = key + 1;
    }
    ASSERT_EQ(t.capacity(), capacity);
    ASSERT_TRUE(t.erase(chain[victim]));
    model.erase(chain[victim]);
    EXPECT_EQ(t.find(chain[victim]), nullptr);
    expect_matches(t, model);
    // Erasing the rest, in chain order, leaves an empty table that accepts
    // the whole chain again.
    for (const std::int64_t key : chain) {
      if (key != chain[victim]) {
        ASSERT_TRUE(t.erase(key));
        model.erase(key);
        expect_matches(t, model);
      }
    }
    for (const std::int64_t key : chain) {
      EXPECT_TRUE(t.try_emplace(key, 1).second);
    }
  }
}

TEST(FlatMap64, KeysSharingAHomeSlot) {
  FlatMap64 table;
  table.try_emplace(-3, 0);
  const std::size_t capacity = table.capacity();
  table.erase(-3);
  // Half the table homed at one slot: a maximal chain.  Interleave a few
  // keys homed just after it, which the chain pushes out of place.
  const std::vector<std::int64_t> same = keys_with_home(capacity, 3, 5);
  const std::vector<std::int64_t> next = keys_with_home(capacity, 4, 3);
  std::unordered_map<std::int64_t, std::int64_t> model;
  for (std::size_t i = 0; i < same.size(); ++i) {
    table.try_emplace(same[i], 100 + static_cast<std::int64_t>(i));
    model[same[i]] = 100 + static_cast<std::int64_t>(i);
    if (i < next.size()) {
      table.try_emplace(next[i], 200 + static_cast<std::int64_t>(i));
      model[next[i]] = 200 + static_cast<std::int64_t>(i);
    }
  }
  ASSERT_EQ(table.capacity(), capacity);
  expect_matches(table, model);
  // Erase from the middle of the chain outward; every survivor stays found.
  for (const std::int64_t key : {same[2], next[0], same[0], next[2], same[4]}) {
    ASSERT_TRUE(table.erase(key));
    model.erase(key);
    expect_matches(table, model);
  }
}

TEST(FlatMap64, SeededRandomOpsMatchUnorderedMap) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Rng rng(seed);
    FlatMap64 table;
    std::unordered_map<std::int64_t, std::int64_t> model;
    // A small key space forces hits, updates and erase churn; a few
    // extreme keys ride along.
    const auto draw_key = [&]() -> std::int64_t {
      switch (rng.uniform(0, 19)) {
        case 0: return 0;
        case 1: return kMax;
        case 2: return kMin;
        case 3: return rng.uniform(kMin, kMax);
        default: return rng.uniform(-300, 3000);
      }
    };
    for (int op = 0; op < 40000; ++op) {
      const std::int64_t key = draw_key();
      const std::int64_t value = rng.uniform(-1000, 1000);
      switch (rng.uniform(0, 3)) {
        case 0: {  // insert
          const auto [stored, inserted] = table.try_emplace(key, value);
          const auto [it, model_inserted] = model.try_emplace(key, value);
          ASSERT_EQ(inserted, model_inserted) << key;
          ASSERT_EQ(*stored, it->second) << key;
          break;
        }
        case 1: {  // find
          const std::int64_t* found = table.find(key);
          const auto it = model.find(key);
          ASSERT_EQ(found != nullptr, it != model.end()) << key;
          if (found != nullptr) {
            ASSERT_EQ(*found, it->second) << key;
          }
          break;
        }
        case 2: {  // update
          std::int64_t* found = table.find(key);
          const auto it = model.find(key);
          ASSERT_EQ(found != nullptr, it != model.end()) << key;
          if (found != nullptr) *found = it->second = value;
          break;
        }
        default:  // erase
          ASSERT_EQ(table.erase(key), model.erase(key) == 1) << key;
      }
      ASSERT_EQ(table.size(), model.size());
      ASSERT_LE(2 * table.size(), table.capacity() + 2);
    }
    expect_matches(table, model);
  }
}

}  // namespace
}  // namespace ftss
