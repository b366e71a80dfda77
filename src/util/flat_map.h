// An open-addressing int64 → int64 hash table for hot-path bookkeeping.
//
// Linear probing over a power-of-two array of {key, value} slots, a
// splitmix64-style mixing hash, growth before the load passes 50%, and
// backward-shift erase (no tombstones, so probe chains never lengthen with
// churn).  A probe touches one or two adjacent cache lines, against the
// bucket-plus-node pointer chase of a node-based std::unordered_map.
//
// Every int64 is a valid key.  One key value (kEmptyKey) marks empty slots;
// that key itself lives in a side slot outside the array, so no key a
// caller can produce — corrupted or not — is reserved.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace ftss {

class FlatMap64 {
 public:
  // The mixing hash; a key's home slot is hash(key) & (capacity() - 1).
  static std::uint64_t hash(std::int64_t key) {
    std::uint64_t x = static_cast<std::uint64_t>(key);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::size_t size() const { return size_ + (has_empty_key_ ? 1 : 0); }
  bool empty() const { return size() == 0; }
  // Slots in the array (0 until the first insert).
  std::size_t capacity() const { return slots_.size(); }

  // The value stored under `key`, or nullptr.
  std::int64_t* find(std::int64_t key) {
    if (key == kEmptyKey) return has_empty_key_ ? &empty_key_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kEmptyKey) return nullptr;
    }
  }
  const std::int64_t* find(std::int64_t key) const {
    return const_cast<FlatMap64*>(this)->find(key);
  }

  // Inserts {key, value} unless `key` is present.  Returns the stored
  // value's address and whether the insert happened.  The address is
  // valid until the next insert.
  std::pair<std::int64_t*, bool> try_emplace(std::int64_t key,
                                             std::int64_t value) {
    if (key == kEmptyKey) {
      const bool inserted = !has_empty_key_;
      if (inserted) {
        has_empty_key_ = true;
        empty_key_value_ = value;
      }
      return {&empty_key_value_, inserted};
    }
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.key == key) return {&slot.value, false};
      if (slot.key == kEmptyKey) {
        slot = {key, value};
        ++size_;
        return {&slot.value, true};
      }
    }
  }

  // Removes `key`; false when it was absent.
  bool erase(std::int64_t key) {
    if (key == kEmptyKey) {
      const bool erased = has_empty_key_;
      has_empty_key_ = false;
      return erased;
    }
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = hash(key) & mask;
    while (slots_[hole].key != key) {
      if (slots_[hole].key == kEmptyKey) return false;
      hole = (hole + 1) & mask;
    }
    // Backward shift: pull each later chain entry into the hole unless its
    // home lies cyclically in (hole, j], where moving it would put it
    // before its home and out of its own probe path.
    for (std::size_t j = (hole + 1) & mask; slots_[j].key != kEmptyKey;
         j = (j + 1) & mask) {
      const std::size_t home = hash(slots_[j].key) & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].key = kEmptyKey;
    --size_;
    return true;
  }

 private:
  static constexpr std::int64_t kEmptyKey =
      std::numeric_limits<std::int64_t>::min();

  struct Slot {
    std::int64_t key = kEmptyKey;
    std::int64_t value = 0;
  };

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.key == kEmptyKey) continue;
      std::size_t i = hash(slot.key) & mask;
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;  // keys in slots_
  bool has_empty_key_ = false;
  std::int64_t empty_key_value_ = 0;
};

}  // namespace ftss
