// Container-format sniffing: one shared magic-byte classifier.
//
// Every open path — gompresso::open(), decompress_stream(), the CLI —
// dispatches on the same few leading bytes. Before this header each path
// re-implemented the comparison, which is exactly how the bare-GMPZ vs
// GMPS split once drifted between the session and stream code. The classifier lives in format/ (below core/ and serve/)
// so every layer can use it without cycles.
//
// Recognised containers:
//   GMPZ  — the native block container (format::kMagic, u32 LE)
//   GMPS  — the native streaming framing (kGmpsMagic, u32 LE)
//   gzip  — RFC 1952: ID1=0x1F ID2=0x8B CM=8 (deflate)
#pragma once

#include <cstdint>

#include "util/common.hpp"

namespace gompresso::format {

/// GMPS streaming-container magic ("GMPS" little-endian). Canonical
/// definition; core/stream.hpp re-exports it as core's kStreamMagic.
inline constexpr std::uint32_t kGmpsMagic = 0x53504D47u;

/// gzip member magic + deflate compression method (RFC 1952 §2.3.1).
inline constexpr std::uint8_t kGzipId1 = 0x1F;
inline constexpr std::uint8_t kGzipId2 = 0x8B;
inline constexpr std::uint8_t kGzipCmDeflate = 8;

/// Prefix length that fully determines the classification.
inline constexpr std::size_t kSniffBytes = 4;

enum class ContainerKind : std::uint8_t {
  kGmpz,     // native block container (FileHeader)
  kGmps,     // native streaming framing (segment sequence)
  kGzip,     // RFC 1952 gzip (one or more members)
  kUnknown,  // none of the above (or prefix too short)
};

/// Classifies a file/stream by its leading bytes. Needs at least 3
/// bytes for gzip and 4 for the native containers; shorter prefixes
/// classify as far as they can and otherwise return kUnknown (no
/// container this library reads is shorter than 4 bytes).
ContainerKind sniff_container(ByteSpan prefix);

/// Human-readable name for diagnostics ("gmpz", "gmps", "gzip", ...).
const char* container_kind_name(ContainerKind kind);

}  // namespace gompresso::format
