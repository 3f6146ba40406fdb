#include "engine/user_set.h"

#include <algorithm>

#include "common/hash.h"

namespace ldp {

bool UserSet::insert(uint64_t id) {
  if (id >= bitmap_bits()) {
    // Grow the bitmap to reach `id` when that keeps it within the per-id
    // bound (counting `id` itself); otherwise `id` is sparse.
    const uint64_t limit_words = kBitmapBitsPerId * (size_ + 1) / 64;
    const uint64_t need_words = id / 64 + 1;
    if (need_words > limit_words) {
      if (SparseContains(id)) return false;
      SparseInsert(id);
      ++size_;
      return true;
    }
    GrowBitmap(std::min(limit_words,
                        std::max<uint64_t>(need_words, 2 * bitmap_.size())));
  }
  uint64_t& word = bitmap_[id >> 6];
  const uint64_t bit = 1ull << (id & 63);
  if (word & bit) return false;
  word |= bit;
  ++size_;
  return true;
}

bool UserSet::SparseContains(uint64_t id) const {
  if (id == kFreeSlot) return holds_free_slot_id_;
  if (slots_.empty()) return false;
  const uint64_t mask = slots_.size() - 1;
  for (uint64_t i = Mix64(id) & mask;; i = (i + 1) & mask) {
    if (slots_[i] == id) return true;
    if (slots_[i] == kFreeSlot) return false;
  }
}

void UserSet::SparseInsert(uint64_t id) {
  ++sparse_size_;
  if (id == kFreeSlot) {
    holds_free_slot_id_ = true;
    return;
  }
  if (2 * sparse_size_ > slots_.size()) {
    // Keep the load at most 1/2: rehash into twice the slots.
    std::vector<uint64_t> old(std::max<size_t>(16, 2 * slots_.size()),
                              kFreeSlot);
    old.swap(slots_);
    const uint64_t mask = slots_.size() - 1;
    for (const uint64_t held : old) {
      if (held == kFreeSlot) continue;
      uint64_t i = Mix64(held) & mask;
      while (slots_[i] != kFreeSlot) i = (i + 1) & mask;
      slots_[i] = held;
    }
  }
  const uint64_t mask = slots_.size() - 1;
  uint64_t i = Mix64(id) & mask;
  while (slots_[i] != kFreeSlot) i = (i + 1) & mask;
  slots_[i] = id;
}

void UserSet::GrowBitmap(uint64_t words) {
  bitmap_.resize(words, 0);
  if (sparse_size_ == 0 || slots_.empty()) return;
  // Move the ids the bitmap now covers out of the hash set (linear probing
  // has no cheap erase, so the rest are re-inserted into fresh slots).
  std::vector<uint64_t> old;
  old.swap(slots_);
  sparse_size_ = holds_free_slot_id_ ? 1 : 0;
  for (const uint64_t held : old) {
    if (held == kFreeSlot) continue;
    if (held < bitmap_bits()) {
      bitmap_[held >> 6] |= 1ull << (held & 63);
    } else {
      SparseInsert(held);
    }
  }
}

}  // namespace ldp
