// Native block decode, shared by the batch and session paths.
//
// A block payload is what the per-block size list delimits in Fig. 3:
// CRC32, mode byte, then the codec body. decompress() runs the whole
// file through decode_blocks(), the batch thread plan (§III). Every
// session path (open(), and decompress_stream() on a file or a pipe)
// decodes one block per task through decode_block_at(), via the serve
// GMPZ backend.
#pragma once

#include <vector>

#include "core/decode_scratch.hpp"
#include "core/mrr_multipass.hpp"
#include "core/options.hpp"
#include "simt/warp.hpp"
#include "util/common.hpp"
#include "util/thread_pool.hpp"

namespace gompresso::core {

/// Everything one decode participant (pool worker, serve prefetch task)
/// mutates while decoding blocks. Contexts are private to a participant,
/// so block decode needs no locks; accumulated metrics are merged by the
/// owner once at the end.
struct BlockDecodeContext {
  simt::WarpMetrics metrics;
  MultiPassStats multipass;
  DecodeScratch scratch;
  bool scratch_reserved = false;  // arena pre-sized on first block touched
};

/// The strategy DecodeOptions::strategy `requested` means for this file
/// (empty = pick from the header); throws on DE for a non-DE file.
Strategy resolve_strategy(std::optional<Strategy> requested,
                          const format::FileHeader& header);

/// Decodes one block payload (CRC32 + mode byte + codec body, i.e. the
/// byte range the header's size list assigns to the block) into `out`,
/// which must be sized to the block's uncompressed length. `lane_pool`
/// optionally fans both decode phases of the block out across a pool
/// (single-block files): phase-1 token decode by sub-block lane, and
/// phase-2 LZ77 resolution by warp-group shard with a completed-
/// watermark handoff. Pass nullptr to stay on the calling thread.
void decode_block_at(const format::FileHeader& header, ByteSpan payload_with_crc,
                     MutableByteSpan out, Strategy strategy, bool verify_checksum,
                     BlockDecodeContext& ctx, ThreadPool* lane_pool);

/// Decodes every block of `header`; `payloads` holds exactly their
/// payloads back to back, `out` exactly the uncompressed bytes. With no
/// pool (or one participant) blocks decode in order on the caller;
/// several blocks go to the pool's workers whole (inter-block
/// parallelism); a lone block fans both decode phases out across the
/// pool (decode_block_at's `lane_pool`). Returns one context per
/// participant, for the caller to merge their metrics.
std::vector<BlockDecodeContext> decode_blocks(const format::FileHeader& header,
                                              ByteSpan payloads, MutableByteSpan out,
                                              Strategy strategy,
                                              bool verify_checksums, ThreadPool* pool);

}  // namespace gompresso::core
