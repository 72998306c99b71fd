#include "serve/backend.hpp"

#include <vector>

#include "core/block_decode.hpp"
#include "util/thread_annotations.hpp"

namespace gompresso::serve {
namespace {

/// Native-container backend: the GMPZ-specific half of the old
/// DecodeSession decode task. Holds the SeekIndex, the per-segment
/// strategy table, and a free list of BlockDecodeContext arenas shared
/// by all concurrent decode_block() calls.
class GmpzBackend final : public ContainerBackend {
 public:
  GmpzBackend(SeekIndex index, const DecodeOptions& options)
      : index_(std::move(index)), verify_checksums_(options.verify_checksums) {
    // Per-segment strategy, resolved once: a stream may mix DE and
    // non-DE segments, and an explicit DE request must be validated
    // against every segment before the first decode.
    segment_strategy_.reserve(index_.num_segments());
    for (std::size_t s = 0; s < index_.num_segments(); ++s) {
      segment_strategy_.push_back(
          core::resolve_strategy(options.strategy, index_.segment_header(s)));
    }
  }

  const char* kind_name() const override {
    return index_.is_stream() ? "gmps" : "gmpz";
  }
  std::uint64_t total_uncompressed() const override {
    return index_.total_uncompressed();
  }
  std::uint64_t source_size() const override { return index_.source_size(); }
  std::uint64_t compressed_end() const override { return index_.compressed_end(); }
  std::size_t num_blocks() const override { return index_.num_blocks(); }

  BackendBlock block(std::size_t b) const override {
    const BlockEntry& e = index_.block(b);
    return BackendBlock{e.uncomp_offset, e.uncomp_size, e.comp_offset,
                        e.comp_size};
  }

  std::size_t block_containing(std::uint64_t offset) const override {
    return index_.block_containing(offset);
  }

  void decode_block(std::size_t b, ByteSource& source,
                    util::BufferPool& buffers, MutableByteSpan out) override {
    const BlockEntry& e = index_.block(b);
    check(out.size() == e.uncomp_size, "serve: decode_block output size mismatch");
    util::PooledBuffer comp =
        buffers.acquire(static_cast<std::size_t>(e.comp_size));
    source.read_at(e.comp_offset, comp.span());
    std::unique_ptr<core::BlockDecodeContext> ctx = pop_context();
    try {
      // A lone block is the only decode task: fan its lanes out over the
      // pool it runs on, as decompress() does, or the pool would idle.
      core::decode_block_at(index_.segment_header(e.segment), comp.cspan(), out,
                            segment_strategy_[e.segment], verify_checksums_, *ctx,
                            index_.num_blocks() == 1 ? ThreadPool::current() : nullptr);
    } catch (...) {
      push_context(std::move(ctx));
      throw;
    }
    push_context(std::move(ctx));
  }

  const SeekIndex* seek_index() const override { return &index_; }

 private:
  std::unique_ptr<core::BlockDecodeContext> pop_context() EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    if (free_contexts_.empty()) {
      return std::make_unique<core::BlockDecodeContext>();
    }
    auto ctx = std::move(free_contexts_.back());
    free_contexts_.pop_back();
    return ctx;
  }

  void push_context(std::unique_ptr<core::BlockDecodeContext> ctx)
      EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    free_contexts_.push_back(std::move(ctx));
  }

  const SeekIndex index_;
  const bool verify_checksums_;
  std::vector<Strategy> segment_strategy_;

  util::Mutex mutex_;
  std::vector<std::unique_ptr<core::BlockDecodeContext>> free_contexts_
      GUARDED_BY(mutex_);
};

}  // namespace

std::shared_ptr<ContainerBackend> make_gmpz_backend(
    SeekIndex index, const DecodeOptions& options) {
  return std::make_shared<GmpzBackend>(std::move(index), options);
}

}  // namespace gompresso::serve
