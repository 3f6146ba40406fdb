#ifndef LDPMDA_COMMON_CODING_H_
#define LDPMDA_COMMON_CODING_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace ldp {

/// Little-endian fixed-width integer coding shared by the report wire format
/// (LdpReport::Serialize, the report frame) and the WAL record and snapshot
/// file formats.

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

}  // namespace ldp

#endif  // LDPMDA_COMMON_CODING_H_
