#include "util/crc32.hpp"

#include <array>

namespace gompresso {
namespace {

// Slice-by-4 tables, generated at static-init time from the reflected
// polynomial 0xEDB88320.
struct Crc32Tables {
  std::array<std::array<std::uint32_t, 256>, 4> t{};

  Crc32Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFFu];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFFu];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFFu];
    }
  }
};

const Crc32Tables kTables;

// A linear operator on 32-bit CRC registers over GF(2): column n is the
// image of the register with only bit n set.
using Gf2Matrix = std::array<std::uint32_t, 32>;

std::uint32_t gf2_times(const Gf2Matrix& m, std::uint32_t v) {
  std::uint32_t r = 0;
  for (std::size_t n = 0; v != 0; ++n, v >>= 1) {
    if (v & 1u) r ^= m[n];
  }
  return r;
}

Gf2Matrix gf2_square(const Gf2Matrix& m) {
  Gf2Matrix sq{};
  for (std::size_t n = 0; n < 32; ++n) sq[n] = gf2_times(m, m[n]);
  return sq;
}

// zeros[k] advances a CRC register over 2^k zero bytes. One zero bit is
// the reflected shift-and-reduce step; squaring doubles the run length.
struct Crc32ZeroOperators {
  std::array<Gf2Matrix, 64> zeros{};

  Crc32ZeroOperators() {
    Gf2Matrix bit{};
    bit[0] = 0xEDB88320u;
    for (std::size_t n = 1; n < 32; ++n) bit[n] = std::uint32_t{1} << (n - 1);
    zeros[0] = gf2_square(gf2_square(gf2_square(bit)));  // 8 bits
    for (std::size_t k = 1; k < zeros.size(); ++k) zeros[k] = gf2_square(zeros[k - 1]);
  }
};

const Crc32ZeroOperators kZeroOps;

}  // namespace

std::uint32_t crc32(ByteSpan data, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
    crc = kTables.t[3][crc & 0xFFu] ^ kTables.t[2][(crc >> 8) & 0xFFu] ^
          kTables.t[1][(crc >> 16) & 0xFFu] ^ kTables.t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n--) crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFFu];
  return ~crc;
}

std::uint32_t crc32_combine(std::uint32_t crc1, std::uint32_t crc2,
                            std::uint64_t len2) {
  for (std::size_t k = 0; len2 != 0; ++k, len2 >>= 1) {
    if (len2 & 1u) crc1 = gf2_times(kZeroOps.zeros[k], crc1);
  }
  return crc1 ^ crc2;
}

}  // namespace gompresso
