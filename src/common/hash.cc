#include "common/hash.h"

#include <bit>
#include <cstring>

#include "common/logging.h"

namespace ldp {

Checksum64Stream::Checksum64Stream(uint64_t total_bytes)
    : h_(HashCombine(0x243f6a8885a308d3ULL, total_bytes)),
      remaining_(total_bytes) {}

void Checksum64Stream::Update(std::string_view piece) {
  LDP_DCHECK(piece.size() <= remaining_);
  remaining_ -= piece.size();
  const char* p = piece.data();
  size_t left = piece.size();
  // Byte i of a word is bits [8i, 8i + 8); the last partial word of the
  // whole string is hashed zero-padded by Finish.
  if (pending_bytes_ != 0) {
    for (; left != 0 && pending_bytes_ < 8; ++p, --left, ++pending_bytes_) {
      pending_ |= static_cast<uint64_t>(static_cast<unsigned char>(*p))
                  << (8 * pending_bytes_);
    }
    if (pending_bytes_ < 8) return;
    h_ = HashCombine(h_, pending_);
    pending_ = 0;
    pending_bytes_ = 0;
  }
  for (; left >= 8; p += 8, left -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    h_ = HashCombine(h_, word);
  }
  for (size_t i = 0; i < left; ++i) {
    pending_ |= static_cast<uint64_t>(static_cast<unsigned char>(p[i]))
                << (8 * i);
  }
  pending_bytes_ = left;
}

uint64_t Checksum64Stream::Finish() const {
  LDP_DCHECK(remaining_ == 0);
  return pending_bytes_ != 0 ? HashCombine(h_, pending_) : h_;
}

uint64_t Checksum64(std::string_view bytes) {
  Checksum64Stream stream(bytes.size());
  stream.Update(bytes);
  return stream.Finish();
}

}  // namespace ldp
