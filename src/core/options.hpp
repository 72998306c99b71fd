// Public configuration types for the Gompresso compressor/decompressor.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "format/header.hpp"

namespace gompresso {

using format::Codec;

/// Back-reference resolution strategy for decompression (paper §IV, §V-A).
enum class Strategy : std::uint8_t {
  /// Sequential Copying: the baseline — back-references of a warp group
  /// are copied one lane at a time, in order, with no intra-group
  /// parallelism (§V-A).
  kSequentialCopy = 0,
  /// Multi-Round Resolution: iterative warp-synchronous resolution with
  /// ballot/shfl and a high-water mark (Fig. 5).
  kMultiRound = 1,
  /// Dependency-free single-round resolution; requires a stream compressed
  /// with dependency elimination (Fig. 7). One round per warp group.
  kDependencyFree = 2,
  /// The alternative MRR variant of §V-A: unresolved back-references are
  /// spilled to a global worklist and later passes (separate "kernels")
  /// resolve them, at the price of extra memory traffic.
  kMultiPass = 3,
};

/// Per-block mode byte (follows the block's CRC32 in the payload).
inline constexpr std::uint8_t kBlockModeCoded = 0;   // codec payload
inline constexpr std::uint8_t kBlockModeStored = 1;  // verbatim bytes

/// Human-readable strategy name (bench output).
inline const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kSequentialCopy: return "SC";
    case Strategy::kMultiRound: return "MRR";
    case Strategy::kDependencyFree: return "DE";
    case Strategy::kMultiPass: return "MRR-multipass";
  }
  return "?";
}

/// Compression configuration. Defaults are the paper's §V settings:
/// 256 KB blocks, 8 KB window, 64 B max match, 16 sequences per
/// sub-block, CWL = 10, DE on with 1 KB minimal staleness.
struct CompressOptions {
  Codec codec = Codec::kBit;
  std::uint32_t block_size = 256 * 1024;
  std::uint32_t window_size = 8 * 1024;
  std::uint32_t min_match = 3;
  std::uint32_t max_match = 64;
  std::uint32_t tokens_per_subblock = 16;
  std::uint8_t codeword_limit = 10;
  /// tANS state-table log for Codec::kTans (2^log states per model).
  std::uint8_t tans_table_log = 11;
  bool dependency_elimination = true;
  /// Hash-chain search depth. The paper's GPU compressor uses "an
  /// exhaustive parallel matching technique" (§III-A); a chain walk of
  /// this depth is the CPU analogue. 1 = cheapest/greedy.
  std::uint32_t match_effort = 16;
  /// Tie-breaking ablation: prefer the oldest occurrence among
  /// equal-length matches (see MatcherConfig::prefer_older_matches).
  /// Shallower MRR nesting, slightly larger encoded distances.
  bool prefer_older_matches = false;
  /// Emit a block verbatim when the coded form would be larger
  /// (DEFLATE's "stored" mode); bounds worst-case expansion.
  bool allow_stored_blocks = true;
  /// Worker threads for inter-block parallelism; 0 = shared default pool.
  std::size_t num_threads = 0;

  /// Validates parameter ranges; throws gompresso::Error on violation.
  /// The byte codec's packed records additionally require
  /// window_size <= 8192 and max_match <= 65.
  void validate() const;
};

/// Decode knobs of every entry point (OpenOptions::decode, and the base
/// of DecompressOptions for decompress() and decompress_stream()).
struct DecodeOptions {
  /// Back-reference resolution strategy. Empty (default) picks from the
  /// header: kDependencyFree for DE-compressed files, kMultiRound
  /// otherwise. An explicit kDependencyFree on a non-DE file is
  /// rejected, since such streams may contain intra-warp dependencies.
  std::optional<Strategy> strategy;
  /// Verify per-block CRC32 of the decompressed output (on by default).
  bool verify_checksums = true;
};

/// Decompression configuration of the batch and stream entry points.
struct DecompressOptions : DecodeOptions {
  /// Worker threads; 0 = shared default pool, 1 = sequential.
  std::size_t num_threads = 0;
};

}  // namespace gompresso
