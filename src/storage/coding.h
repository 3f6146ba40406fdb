#ifndef LDPMDA_STORAGE_CODING_H_
#define LDPMDA_STORAGE_CODING_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace ldp {
namespace storage {

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
