#ifndef LDPMDA_ENGINE_USER_SET_H_
#define LDPMDA_ENGINE_USER_SET_H_

#include <cstdint>
#include <vector>

namespace ldp {

/// The set of accepted user ids, for ingest dedup.
///
/// User ids index the caller's weight vectors (EstimateBox rejects weights
/// no longer than the largest accepted id), so in practice they are dense
/// from 0, and the set is a bitmap over [0, bitmap_bits). The bitmap grows
/// by doubling, but only while it stays within kBitmapBitsPerId bits per
/// held id; an id it cannot reach under that bound (a strided, random or
/// huge id) goes to a flat hash set instead, and moves into the bitmap if a
/// later growth covers it. Resident bytes therefore stay O(size()) for any
/// id pattern: at most kBitmapBitsPerId / 8 bytes per id in the bitmap, and
/// 8 bytes per slot at a load of at least 1/4 in the hash set.
class UserSet {
 public:
  bool contains(uint64_t id) const {
    if (id < bitmap_bits()) return (bitmap_[id >> 6] >> (id & 63)) & 1;
    return sparse_size_ != 0 && SparseContains(id);
  }

  /// Adds `id`; false (and no change) when it is already held.
  bool insert(uint64_t id);

  uint64_t size() const { return size_; }

  /// Heap bytes held by the bitmap and the hash set's slots.
  uint64_t resident_bytes() const {
    return (bitmap_.capacity() + slots_.capacity()) * sizeof(uint64_t);
  }

 private:
  /// Bitmap bits allowed per held id: at most 8 bytes per id, against the
  /// hash set's 16 to 32.
  static constexpr uint64_t kBitmapBitsPerId = 64;

  uint64_t bitmap_bits() const { return bitmap_.size() * 64; }

  bool SparseContains(uint64_t id) const;
  /// Adds an id known to be absent to the hash set.
  void SparseInsert(uint64_t id);
  /// Widens the bitmap to `words` words and moves the hash set's ids it now
  /// covers into it.
  void GrowBitmap(uint64_t words);

  std::vector<uint64_t> bitmap_;
  /// Open addressing with linear probing over Mix64(id); the size is 0 or a
  /// power of two, and kFreeSlot marks a free slot.
  std::vector<uint64_t> slots_;
  static constexpr uint64_t kFreeSlot = ~0ull;
  /// kFreeSlot itself is held by this flag, not by a slot.
  bool holds_free_slot_id_ = false;
  /// Ids in the hash set (the flag's included).
  uint64_t sparse_size_ = 0;
  uint64_t size_ = 0;
};

}  // namespace ldp

#endif  // LDPMDA_ENGINE_USER_SET_H_
