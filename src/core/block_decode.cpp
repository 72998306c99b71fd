#include "core/block_decode.hpp"

#include <algorithm>

#include "core/bit_codec.hpp"
#include "core/byte_codec.hpp"
#include "core/resolve_parallel.hpp"
#include "core/tans_codec.hpp"
#include "core/warp_lz77.hpp"
#include "obs/trace.hpp"
#include "util/crc32.hpp"
#include "util/varint.hpp"

namespace gompresso::core {
namespace {

// Decode-plane metrics. The paper's cost model splits a block into
// entropy decode (phase 1) and LZ77 resolution (phase 2); the two
// histograms below are that breakdown, per block, in microseconds.
struct DecodeObs {
  obs::Counter blocks = obs::registry().counter("decode.blocks", "blocks");
  obs::Counter stored_blocks =
      obs::registry().counter("decode.stored_blocks", "blocks");
  obs::Counter bytes = obs::registry().counter("decode.bytes", "bytes");
  obs::Histogram entropy_us =
      obs::registry().histogram("decode.entropy_us", "us");
  obs::Histogram resolve_us =
      obs::registry().histogram("decode.resolve_us", "us");
};

DecodeObs& decode_obs() {
  static DecodeObs instance;
  return instance;
}

}  // namespace

Strategy resolve_strategy(std::optional<Strategy> requested,
                          const format::FileHeader& header) {
  const Strategy strategy = requested.value_or(
      header.dependency_elimination ? Strategy::kDependencyFree
                                    : Strategy::kMultiRound);
  check(strategy != Strategy::kDependencyFree || header.dependency_elimination,
        "decompress: DE strategy requires a DE-compressed file");
  return strategy;
}

void decode_block_at(const format::FileHeader& header, ByteSpan payload_with_crc,
                     MutableByteSpan out, Strategy strategy, bool verify_checksum,
                     BlockDecodeContext& ctx, ThreadPool* lane_pool) try {
  std::size_t p = 0;
  const std::uint32_t stored_crc = get_u32le(payload_with_crc, p);
  check_corrupt(p < payload_with_crc.size(), "decompress: truncated block payload");
  const std::uint8_t mode = payload_with_crc[p++];
  const ByteSpan payload = payload_with_crc.subspan(p);

  if (mode == kBlockModeStored) {
    check_corrupt(payload.size() == out.size(),
                  "decompress: stored block size mismatch");
    std::copy(payload.begin(), payload.end(), out.begin());
    decode_obs().stored_blocks.add(1);
  } else {
    check_corrupt(mode == kBlockModeCoded, "decompress: unknown block mode");
    // Phase 1: token decode. Every codec decodes into the context's
    // scratch arena — zero allocations once its buffers are warm — and
    // optionally fans its independent sub-block lanes (record-array
    // chunks for /Byte) out across `lane_pool`.
    // Pre-size the arena on the context's first block (not eagerly —
    // most pool participants never run when blocks are few), so no
    // block decode ever grows a buffer.
    if (!ctx.scratch_reserved) {
      ctx.scratch.reserve(header.block_size, header.tokens_per_subblock,
                          header.codec == Codec::kTans);
      ctx.scratch_reserved = true;
    }
    const lz77::TokenBlock* tokens = nullptr;
    {
      obs::StageScope stage("entropy_decode", "decode",
                            decode_obs().entropy_us);
      if (header.codec == Codec::kBit) {
        BitCodecConfig bit_config;
        bit_config.tokens_per_subblock = header.tokens_per_subblock;
        bit_config.codeword_limit = header.codeword_limit;
        tokens = &decode_block_bit(payload, bit_config, ctx.scratch, lane_pool);
      } else if (header.codec == Codec::kByte) {
        tokens = &decode_block_byte(payload, ctx.scratch, lane_pool);
      } else {
        TansCodecConfig tans_config;
        tans_config.tokens_per_subblock = header.tokens_per_subblock;
        tokens = &decode_block_tans(payload, tans_config, ctx.scratch,
                                    lane_pool, out.size());
      }
    }
    check_corrupt(tokens->uncompressed_size == out.size(),
                  "decompress: block size mismatch");

    // Phase 2: LZ77 resolution, accumulating straight into the context's
    // metrics (all WarpMetrics updates are additive). With a lane pool
    // the block's warp groups are sharded across the pool's threads with
    // a completed-watermark handoff (resolve_parallel.hpp); otherwise —
    // and for blocks too small to shard — the serial warp simulator
    // runs. The kMultiPass variant keeps its spill semantics regardless.
    obs::StageScope stage("resolve", "decode", decode_obs().resolve_us);
    if (strategy == Strategy::kMultiPass) {
      MultiPassStats block_multipass;
      resolve_block_multipass(tokens->sequences, tokens->literals.data(),
                              tokens->literals.size(), out, &block_multipass,
                              &ctx.scratch.multipass_ws);
      ctx.multipass.merge(block_multipass);
    } else if (lane_pool != nullptr &&
               resolve_block_sharded(tokens->sequences, tokens->literals.data(),
                                     tokens->literals.size(), out, strategy,
                                     ctx.scratch.resolve, *lane_pool, &ctx.metrics,
                                     &ctx.scratch.stats.resolve_deferrals)) {
      ++ctx.scratch.stats.resolve_fanouts;
    } else {
      resolve_block(tokens->sequences, tokens->literals.data(),
                    tokens->literals.size(), out, strategy, &ctx.metrics);
    }
  }
  decode_obs().blocks.add(1);
  decode_obs().bytes.add(out.size());

  if (verify_checksum) {
    check_corrupt(crc32(ByteSpan(out.data(), out.size())) == stored_crc,
                  "decompress: block checksum mismatch (corrupt data)");
  }
} catch (const Error& e) {
  // This is the typed-error boundary for block data: the codec and
  // resolver internals (bit/tans/byte decode, LZ77 resolution) raise
  // plain Error on malformed payloads. Anything untyped that escapes a
  // block decode is data-level damage confined to this block; already-
  // typed failures (an IoError from a faulting mmap-backed span, say)
  // keep their class.
  if (e.kind() != ErrorKind::kConfig) throw;
  throw CorruptionError(e.what());
}

std::vector<BlockDecodeContext> decode_blocks(const format::FileHeader& header,
                                              ByteSpan payloads, MutableByteSpan out,
                                              Strategy strategy,
                                              bool verify_checksums, ThreadPool* pool) {
  // Locate every payload from the size list (inter-block parallelism
  // needs no scanning, Fig. 3).
  const std::size_t count = header.num_blocks();
  std::vector<std::uint64_t> offsets(count + 1);
  for (std::size_t i = 0; i < count; ++i) {
    offsets[i + 1] = offsets[i] + header.block_compressed_sizes[i];
  }
  check(offsets[count] == payloads.size() && out.size() == header.uncompressed_size,
        "decode_blocks: buffers do not match the blocks' sizes");
  const auto decode_one = [&](BlockDecodeContext& ctx, std::size_t i,
                              ThreadPool* lane_pool) {
    const std::size_t begin = i * header.block_size;
    decode_block_at(header, payloads.subspan(offsets[i], offsets[i + 1] - offsets[i]),
                    out.subspan(begin, std::min<std::size_t>(header.block_size,
                                                             out.size() - begin)),
                    strategy, verify_checksums, ctx, lane_pool);
  };

  const std::size_t participants = pool != nullptr ? pool->parallelism() : 1;
  std::vector<BlockDecodeContext> workers(count == 1 ? 1 : participants);
  if (participants == 1) {
    for (std::size_t i = 0; i < count; ++i) decode_one(workers[0], i, nullptr);
  } else if (count != 1) {
    // Whole blocks stay the right plan even for 2 <= count < parallelism:
    // lane fan-out only parallelises token decode, so pipelining whole
    // blocks (token decode + resolution overlapped across blocks) beats
    // serialising the blocks whenever there is more than one. (Zero
    // blocks land here too; the parallel_for over no indices is a no-op.)
    pool->parallel_for_worker(count, [&](std::size_t worker, std::size_t i) {
      decode_one(workers[worker], i, nullptr);
    });
  } else {
    decode_one(workers[0], 0, pool);
  }
  return workers;
}

}  // namespace gompresso::core
