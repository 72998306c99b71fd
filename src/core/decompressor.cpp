#include "core/decompressor.hpp"

#include "core/block_decode.hpp"
#include "util/thread_pool.hpp"

namespace gompresso {

DecompressResult decompress(ByteSpan file, const DecompressOptions& options) {
  std::size_t pos = 0;
  const format::FileHeader header = format::FileHeader::deserialize(file, pos);
  // Catch a truncated or corrupt-length file with one clear error before
  // any block decode can trip over it.
  header.check_payload(file.size() - pos);

  DecompressResult result;
  result.strategy_used = core::resolve_strategy(options.strategy, header);
  result.data.resize(static_cast<std::size_t>(header.uncompressed_size));

  std::unique_ptr<ThreadPool> own_pool;
  const std::vector<core::BlockDecodeContext> workers = core::decode_blocks(
      header, file.subspan(pos), result.data, result.strategy_used,
      options.verify_checksums, resolve_pool(options.num_threads, own_pool));

  for (const core::BlockDecodeContext& ctx : workers) {
    result.metrics.merge(ctx.metrics);
    result.multipass.merge(ctx.multipass);
    result.scratch.merge(ctx.scratch.stats);
  }
  return result;
}

}  // namespace gompresso
