#ifndef LDPMDA_STORAGE_CODING_H_
#define LDPMDA_STORAGE_CODING_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace ldp {
namespace storage {

/// Little-endian fixed-width integer coding shared by the WAL record and
/// snapshot file formats (matching the report wire frame's conventions).

/// Writes `v` little-endian into the 4 (8) bytes at `dst`: encoders reserve
/// a record's length and checksum fields and patch them in last.
inline void EncodeU32(char* dst, uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(dst, &v, sizeof(v));
}

inline void EncodeU64(char* dst, uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(dst, &v, sizeof(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  char bytes[sizeof(v)];
  EncodeU32(bytes, v);
  out->append(bytes, sizeof(v));
}

inline void PutU64(std::string* out, uint64_t v) {
  char bytes[sizeof(v)];
  EncodeU64(bytes, v);
  out->append(bytes, sizeof(v));
}

/// Callers guarantee at least 4 (8) readable bytes at `in`.
inline uint32_t GetU32(std::string_view in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(in[i])) << (8 * i);
  }
  return v;
}

inline uint64_t GetU64(std::string_view in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(in[i])) << (8 * i);
  }
  return v;
}

/// A sequence number rendered as 16 lowercase hex digits, so lexicographic
/// file-name order equals numeric order (segment and snapshot names).
inline std::string SeqToHex(uint64_t seq) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[seq & 0xf];
    seq >>= 4;
  }
  return out;
}

/// Inverse of SeqToHex; false when `hex` is not 16 hex digits.
inline bool HexToSeq(std::string_view hex, uint64_t* seq) {
  if (hex.size() != 16) return false;
  uint64_t v = 0;
  for (const char c : hex) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *seq = v;
  return true;
}

}  // namespace storage
}  // namespace ldp

#endif  // LDPMDA_STORAGE_CODING_H_
