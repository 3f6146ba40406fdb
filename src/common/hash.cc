#include "common/hash.h"

#include <bit>
#include <cstring>

namespace ldp {

uint64_t Checksum64(std::string_view bytes) {
  uint64_t h = HashCombine(0x243f6a8885a308d3ULL, bytes.size());
  const char* p = bytes.data();
  size_t left = bytes.size();
  for (; left >= 8; p += 8, left -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    h = HashCombine(h, word);
  }
  if (left != 0) {
    // The last partial word, zero-padded: byte i is bits [8i, 8i + 8).
    uint64_t word = 0;
    for (size_t i = 0; i < left; ++i) {
      word |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
    }
    h = HashCombine(h, word);
  }
  return h;
}

}  // namespace ldp
