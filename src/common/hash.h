#ifndef LDPMDA_COMMON_HASH_H_
#define LDPMDA_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace ldp {

/// Strong 64-bit finalizer (SplitMix64 / Murmur3-style avalanche). Inline:
/// this is the innermost operation of every OLH estimate.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Hash of a (key, value) pair with good avalanche behaviour.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return Mix64(seed * 0x9e3779b97f4a7c15ULL + value + 0x2545f4914f6cdd1dULL);
}

/// Order-dependent 64-bit checksum of a byte string (length-seeded
/// HashCombine chain over little-endian 8-byte words). Endianness-stable, so
/// it can guard a wire format. Not cryptographic: it detects the random
/// corruption a lossy transport introduces, not a deliberate forgery.
uint64_t Checksum64(std::string_view bytes);

/// Checksum64 of a byte string fed in pieces, for bytes that are never held
/// in one buffer (a snapshot streamed chunk by chunk): constructed with the
/// total length, Update'd with consecutive pieces of any sizes (a piece may
/// end inside an 8-byte word), then Finish equals Checksum64 of their
/// concatenation. Checksum64 itself is this stream over one piece.
class Checksum64Stream {
 public:
  explicit Checksum64Stream(uint64_t total_bytes);

  void Update(std::string_view piece);
  /// The checksum; every one of the `total_bytes` must have been fed.
  uint64_t Finish() const;

 private:
  uint64_t h_;
  uint64_t remaining_;  ///< bytes not yet fed
  /// The current partial word, little-endian, and how many bytes it holds
  /// (0-7).
  uint64_t pending_ = 0;
  size_t pending_bytes_ = 0;
};

/// A pooled family of (approximately) pairwise-independent hash functions
/// `H_s : uint64 -> [0, g)` indexed by a 32-bit seed `s`.
///
/// OLH requires every user to draw a hash function uniformly from a universal
/// family. We realize the family as `H_s(v) = Mix(s, v) mod g` and optionally
/// restrict seeds to a pool of `pool_size` values. Pooling lets the server
/// aggregate reports that share a seed into one histogram, turning a
/// frequency estimate from O(#users) into O(pool_size) — essential for the
/// marginal baseline's O(m^d)-cell box sums. `pool_size == 0` means
/// unrestricted 32-bit seeds.
class SeededHashFamily {
 public:
  explicit SeededHashFamily(uint32_t pool_size = 0) : pool_size_(pool_size) {}

  /// Draws a seed uniformly from the family (pooled or full 32-bit space).
  template <typename RngT>
  uint32_t SampleSeed(RngT& rng) const {
    if (pool_size_ == 0) return static_cast<uint32_t>(rng());
    return static_cast<uint32_t>(rng.UniformInt(pool_size_));
  }

  /// Evaluates H_seed(value) in [0, g). Requires g >= 1. Multiply-shift
  /// style reduction of a well-mixed 64-bit hash into [0, g).
  static uint32_t Eval(uint32_t seed, uint64_t value, uint32_t g) {
    return EvalWithBase(SeedBase(seed), value, g);
  }

  /// The seed-dependent part of Eval, hoistable out of a loop that evaluates
  /// one report's hash against many values (the batched estimation kernels):
  /// Eval(seed, v, g) == EvalWithBase(SeedBase(seed), v, g) for all v.
  static uint64_t SeedBase(uint32_t seed) {
    return static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ULL +
           0x2545f4914f6cdd1dULL;
  }
  static uint32_t EvalWithBase(uint64_t base, uint64_t value, uint32_t g) {
    const uint64_t h = Mix64(base + value);
    return static_cast<uint32_t>(
        (static_cast<__uint128_t>(h) * static_cast<__uint128_t>(g)) >> 64);
  }

  uint32_t pool_size() const { return pool_size_; }

 private:
  uint32_t pool_size_;
};

}  // namespace ldp

#endif  // LDPMDA_COMMON_HASH_H_
