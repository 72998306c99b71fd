// The seek index: uncompressed offset -> compressed block extent.
//
// The paper's per-block compressed-size list (Fig. 3) already locates
// every block without scanning; this index materializes that list — for
// a single Gompresso container or for every segment of a GMPS stream —
// as a flat table of block extents keyed by cumulative uncompressed
// offset. It is what turns the batch container into a random-access
// medium (rapidgzip builds the same structure for gzip, where it has to
// be *discovered*; our format hands it over in the header).
//
// The index serializes to a small sidecar (magic "GMPX") holding each
// segment's header blob, so reopening a file skips the segment scan:
// load cost is proportional to the header sizes, not the data.
#pragma once

#include <vector>

#include "format/header.hpp"
#include "serve/byte_source.hpp"
#include "util/common.hpp"

namespace gompresso::serve {

inline constexpr std::uint32_t kIndexMagic = 0x58504D47u;  // "GMPX"
inline constexpr std::uint8_t kIndexVersion = 1;

/// One block's location: where its compressed payload lives and which
/// uncompressed range it reproduces.
struct BlockEntry {
  std::uint64_t comp_offset = 0;    // absolute offset of the block payload
  std::uint64_t comp_size = 0;      // CRC32 + mode byte + codec body
  std::uint64_t uncomp_offset = 0;  // cumulative across segments
  std::uint32_t uncomp_size = 0;
  std::uint32_t segment = 0;        // index into segment headers
};

class SeekIndex {
 public:
  /// Scans `source` (a GMPZ container or a GMPS stream of containers)
  /// and builds the index. Only headers are read — data blocks are
  /// skipped over — so this is cheap even for huge files.
  static SeekIndex build(ByteSource& source);

  /// The index of one container at offset 0 whose `header_bytes`-long
  /// header the caller parsed (off a pipe) and validated.
  static SeekIndex for_container(format::FileHeader header, std::uint64_t header_bytes);

  /// Sidecar round trip. deserialize() validates magic/version and
  /// rebuilds the block table from the stored segment headers.
  Bytes serialize() const;
  static SeekIndex deserialize(ByteSpan sidecar);
  void save(const std::string& path) const;
  static SeekIndex load(const std::string& path);

  std::uint64_t total_uncompressed() const { return total_uncompressed_; }
  /// Size of the source the index was built from (checked when a session
  /// opens a source with a pre-built index).
  std::uint64_t source_size() const { return source_size_; }
  /// Offset one past the last compressed byte the index covers (past the
  /// GMPS terminator for streams; the container end otherwise).
  std::uint64_t compressed_end() const { return comp_end_; }
  bool is_stream() const { return is_stream_; }

  std::size_t num_blocks() const { return blocks_.size(); }
  std::size_t num_segments() const { return segments_.size(); }
  const BlockEntry& block(std::size_t i) const { return blocks_[i]; }
  const format::FileHeader& segment_header(std::size_t s) const {
    return segments_[s].header;
  }

  /// Index of the block whose uncompressed range contains `offset`.
  /// Requires offset < total_uncompressed().
  std::size_t block_containing(std::uint64_t offset) const;

 private:
  struct Segment {
    format::FileHeader header;
    std::uint64_t comp_offset = 0;   // where the container (GMPZ magic) begins
    std::uint64_t header_bytes = 0;  // serialized header length in the file
  };

  std::uint64_t append_segment(Segment segment);  // returns its end offset

  std::vector<Segment> segments_;
  std::vector<BlockEntry> blocks_;
  std::uint64_t total_uncompressed_ = 0;
  std::uint64_t source_size_ = 0;
  std::uint64_t comp_end_ = 0;
  bool is_stream_ = false;
};

}  // namespace gompresso::serve
