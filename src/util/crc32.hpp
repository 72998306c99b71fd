// CRC-32 (IEEE 802.3 polynomial, the same checksum gzip uses).
//
// Every compressed Gompresso block stores the CRC of its uncompressed
// content; the decompressor verifies it so that corruption-injection tests
// can assert detection rather than silent garbage.
#pragma once

#include <cstdint>

#include "util/common.hpp"

namespace gompresso {

/// Computes CRC-32 over `data`, continuing from `seed` (pass 0 to start).
std::uint32_t crc32(ByteSpan data, std::uint32_t seed = 0);

/// CRC-32 of the concatenation A‖B from crc1 = crc32(A), crc2 = crc32(B)
/// and len2 = |B|, without touching the bytes: crc1 is advanced over
/// len2 zero bytes by GF(2) operator matrices (one per power of two,
/// built once by repeated squaring), then xored with crc2. Costs
/// O(popcount(len2)) 32x32 bit-matrix products.
std::uint32_t crc32_combine(std::uint32_t crc1, std::uint32_t crc2,
                            std::uint64_t len2);

}  // namespace gompresso
