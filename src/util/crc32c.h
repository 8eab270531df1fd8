#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mscope::util {

namespace detail {
/// Slicing-by-8 tables: row 0 is the byte-at-a-time table; row k advances
/// a byte's contribution past k further zero bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> crc32c_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}
inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32cTables =
    crc32c_tables();

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
}  // namespace detail

/// CRC32C (Castagnoli, polynomial 0x1EDC6A26 reflected = 0x82F63B78) — the
/// checksum the durability layer frames WAL records and snapshot chunks
/// with. Chosen over plain CRC32 for its better error-detection properties
/// on short records (it is what iSCSI, ext4 and LevelDB use for the same
/// job). Software slicing-by-8: eight table lookups per 8-byte word instead
/// of a dependent lookup per byte, so the checksum of a WAL frame or a
/// snapshot chunk costs a fraction of a nanosecond per byte.
class Crc32c {
 public:
  /// One-shot checksum of a buffer.
  [[nodiscard]] static std::uint32_t of(const void* data, std::size_t n) {
    return extend(0, data, n);
  }
  [[nodiscard]] static std::uint32_t of(std::string_view s) {
    return of(s.data(), s.size());
  }

  /// Extends `crc` (the checksum of a preceding buffer) over `data`, so a
  /// file checksum can be accumulated across separate writes.
  [[nodiscard]] static std::uint32_t extend(std::uint32_t crc,
                                            const void* data, std::size_t n) {
    const auto& t = detail::kCrc32cTables;
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::uint32_t c = crc ^ 0xFFFFFFFFu;
    for (; n >= 8; p += 8, n -= 8) {
      const std::uint32_t lo = c ^ detail::load_le32(p);
      const std::uint32_t hi = detail::load_le32(p + 4);
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
  }
};

}  // namespace mscope::util
