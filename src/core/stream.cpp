#include "core/stream.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>

#include "core/compressor.hpp"
#include "core/open.hpp"
#include "format/sniff.hpp"
#include "obs/metrics.hpp"
#include "serve/decode_session.hpp"
#include "serve/seek_index.hpp"
#include "util/byte_reader.hpp"
#include "util/thread_annotations.hpp"
#include "util/varint.hpp"

namespace gompresso {
namespace {

void write_bytes(std::ostream& out, ByteSpan data) {
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  check_io(out.good(), "stream: write failed");
}

/// The decode knobs of a batch call, routed to the one place a session
/// takes them from: the backend open() builds.
OpenOptions open_options(const DecompressOptions& options) {
  OpenOptions oopt;
  oopt.session.num_threads = options.num_threads;
  oopt.decode = options;
  return oopt;
}

/// Forward-only ByteSource over one native container on a pipe, in the
/// container's own offsets; its header is parsed already, so the buffer
/// starts empty at `begin`. It holds the bytes [released, filled): only
/// the copy loop moves the pipe (advance()), decode tasks copy out
/// concurrently, and a read_at outside the window is API misuse (never
/// retried).
class PipeWindow final : public serve::ByteSource {
 public:
  PipeWindow(util::ByteReader& pipe, std::uint64_t begin, std::uint64_t size,
             std::size_t max_inflight_blocks)
      : pipe_(pipe),
        size_(size),
        lookahead_(std::max<std::size_t>(1, max_inflight_blocks)),
        released_(begin),
        filled_(begin) {}

  /// One sample per container: the most bytes the window held at once.
  ~PipeWindow() override {
    static const obs::Histogram peak =
        obs::registry().histogram("stream.pipe_buffer_peak_bytes", "bytes");
    peak.record(peak_);
  }

  std::uint64_t size() const override { return size_; }

  void read_at(std::uint64_t offset, MutableByteSpan dst) override {
    util::MutexLock lock(mutex_);
    check(offset >= released_ && offset <= filled_ && dst.size() <= filled_ - offset,
          "stream: pipe read outside the buffered window");
    std::memcpy(dst.data(), buf_.data() + (offset - released_), dst.size());
  }

  /// Before a session read of `len` bytes at `cursor`: drops the blocks
  /// wholly behind the cursor (earlier reads waited for their decodes),
  /// then reads the pipe through the last block this read may schedule
  /// (the blocks it covers, then the session's lookahead window).
  void advance(const serve::DecodeSession& s, std::uint64_t cursor, std::size_t len) {
    if (cursor >= s.size()) return;
    const auto block_start = [&](std::size_t b) {
      return b < s.num_blocks() ? s.block_extent(b).comp_offset : size_;
    };
    const serve::ContainerBackend& backend = s.backend();
    const std::uint64_t drop = block_start(backend.block_containing(cursor));
    {
      util::MutexLock lock(mutex_);
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(drop - released_));
      released_ = drop;
    }
    const std::uint64_t last = std::min<std::uint64_t>(s.size(), cursor + len) - 1;
    fill_to(block_start(backend.block_containing(last) + lookahead_));
  }

 private:
  void fill_to(std::uint64_t end) {
    // Grow while reading, at most 16 MiB ahead of the bytes received, so
    // a lying size fails at EOF (the reader's FormatError, which no
    // session sees or retries) with memory in proportion to what was
    // sent, not claimed.
    while (true) {
      std::uint8_t* dst = nullptr;
      std::size_t step = 0;
      {
        util::MutexLock lock(mutex_);
        if (filled_ >= end) return;
        step = static_cast<std::size_t>(std::min<std::uint64_t>(end - filled_, 16u << 20));
        buf_.resize(buf_.size() + step);
        dst = buf_.data() + buf_.size() - step;
      }
      // Unlocked: no read_at reaches past filled_, and only this thread
      // resizes the buffer.
      pipe_.read_exact(MutableByteSpan(dst, step));
      util::MutexLock lock(mutex_);
      filled_ += step;
      peak_ = std::max(peak_, filled_ - released_);
    }
  }

  util::ByteReader& pipe_;
  const std::uint64_t size_;
  const std::size_t lookahead_;
  util::Mutex mutex_;
  Bytes buf_ GUARDED_BY(mutex_);  // the bytes [released_, filled_)
  std::uint64_t released_ GUARDED_BY(mutex_);
  std::uint64_t filled_ GUARDED_BY(mutex_);
  std::uint64_t peak_ GUARDED_BY(mutex_) = 0;
};

/// Copies a session's whole payload to `out` through its sequential
/// cursor (pipelined prefetch; memory bounded by the session window).
/// Every decode path runs this loop; on a pipe it also moves `pipe`.
std::uint64_t copy_session(serve::DecodeSession& session, std::ostream& out,
                           PipeWindow* pipe = nullptr) {
  Bytes chunk(kStreamCopyChunk);
  std::uint64_t total = 0;
  while (true) {
    if (pipe != nullptr) pipe->advance(session, total, chunk.size());
    const std::size_t n = session.read(MutableByteSpan(chunk.data(), chunk.size()));
    if (n == 0) break;
    write_bytes(out, ByteSpan(chunk.data(), n));
    total += n;
  }
  return total;
}

/// Decode path for seekable inputs: gompresso::open() sniffs the
/// container (GMPS, bare GMPZ, or gzip) and a DecodeSession over the
/// stream does the decode.
std::uint64_t decompress_stream_session(std::istream& in, std::ostream& out,
                                        const DecompressOptions& options) {
  const std::istream::pos_type base = in.tellg();
  const std::unique_ptr<serve::DecodeSession> session =
      open(serve::istream_source(in), open_options(options));
  const std::uint64_t total = copy_session(*session, out);
  // Leave the stream where sequential consumption would: just past the
  // terminator (the session's random-access reads scattered the cursor).
  in.clear();
  in.seekg(base + static_cast<std::streamoff>(session->compressed_end()));
  return total;
}

/// gzip on a pipe. A pipe cannot be rewound and the gzip index build
/// reads the stream more than once, so the compressed bytes are slurped
/// (O(compressed) memory) and decoded through the same open() session
/// as a seekable input — with the same member CRC32/ISIZE checks.
std::uint64_t decompress_gzip_pipe(std::istream& in, ByteSpan prefix,
                                   std::ostream& out,
                                   const DecompressOptions& options) {
  // The byte-exact reader that sniffed the prefix holds no lookahead
  // (its 4-byte read bypassed the window), so the stream cursor sits
  // right after the prefix.
  Bytes data(prefix.begin(), prefix.end());
  while (in.good()) {
    const std::size_t old = data.size();
    data.resize(old + kStreamCopyChunk);
    in.read(reinterpret_cast<char*>(data.data() + old),
            static_cast<std::streamsize>(kStreamCopyChunk));
    data.resize(old + static_cast<std::size_t>(in.gcount()));
  }
  check_io(in.eof(), "stream: read failed");
  const std::unique_ptr<serve::DecodeSession> session = open(
      serve::memory_source(ByteSpan(data.data(), data.size())), open_options(options));
  return copy_session(*session, out);
}

/// One native container on a pipe, its `header_bytes`-long header
/// parsed off `reader` already: a session over a PipeWindow.
std::uint64_t decompress_pipe_container(util::ByteReader& reader,
                                        format::FileHeader header,
                                        std::uint64_t header_bytes, std::ostream& out,
                                        const DecompressOptions& options) {
  // A pipe has no payload length to bound the header's sizes by (a file
  // bounds them by its size). So cap the block at 1 GiB, as the CLI's
  // --block does, and each block's compressed size at what any codec
  // here could plausibly emit (well under 16x, even with degenerate
  // sub-block settings), before anything is sized by them.
  check_format(header.block_size <= (1u << 30), "stream: implausible block size");
  serve::SeekIndex index =
      serve::SeekIndex::for_container(std::move(header), header_bytes);
  for (std::size_t b = 0; b < index.num_blocks(); ++b) {
    check_format(index.block(b).comp_size <= 16ull * index.block(b).uncomp_size + 65536,
                 "stream: implausible compressed block size");
  }
  // Nothing on a pipe reads a block twice: the cache needs only the
  // cursor's block (the session rounds it up to its window).
  OpenOptions oopt = open_options(options);
  oopt.session.cache_blocks = 1;
  auto window = std::make_unique<PipeWindow>(reader, header_bytes, index.source_size(),
                                             oopt.session.max_inflight_blocks);
  PipeWindow* pipe = window.get();
  serve::DecodeSession session(std::move(window),
                               serve::make_gmpz_backend(std::move(index), oopt.decode),
                               oopt.session);
  return copy_session(session, out, pipe);
}

/// Decode path for non-seekable inputs (pipes). Framing and headers are
/// parsed byte-exactly; each native container then decodes through its
/// own session (decompress_pipe_container).
std::uint64_t decompress_stream_sequential(std::istream& in, std::ostream& out,
                                           const DecompressOptions& options) {
  // buffer_size 1: a pipe cannot seek back, so the reader must consume
  // byte-exactly — anything after the terminator belongs to the caller
  // (e.g. a second concatenated stream). Framing varints and headers are
  // a few hundred bytes per 64 MiB segment; the block payloads, which
  // are the volume, go through read_exact's direct bulk path.
  util::IstreamReader reader(in, /*buffer_size=*/1);

  // One shared classifier decides the container — the same
  // format::sniff_container() the session open path uses, so a format
  // readable when seekable is readable on a pipe too.
  std::uint8_t prefix[format::kSniffBytes];
  reader.read_exact(MutableByteSpan(prefix, sizeof prefix));
  switch (format::sniff_container(ByteSpan(prefix, sizeof prefix))) {
    case format::ContainerKind::kGmpz: {
      // A bare GMPZ container (accepted on either path): no framing, so
      // there is no payload size to validate against — the size list
      // alone delimits the blocks, and consumption stops exactly after
      // the last. The block-count invariant still must hold, or a
      // corrupt header claiming fewer blocks silently truncates the
      // output.
      format::FileHeader header = format::FileHeader::deserialize_body(reader);
      header.check_block_count();
      return decompress_pipe_container(reader, std::move(header), reader.offset(),
                                       out, options);
    }
    case format::ContainerKind::kGzip:
      return decompress_gzip_pipe(in, ByteSpan(prefix, sizeof prefix), out,
                                  options);
    case format::ContainerKind::kGmps:
      break;  // segment loop below
    case format::ContainerKind::kUnknown:
      throw FormatError("stream: bad magic");
  }
  std::uint64_t total = 0;
  while (true) {
    const std::uint64_t segment_size = reader.read_varint();
    if (segment_size == 0) break;  // terminator
    check_format(segment_size <= (1ull << 40), "stream: implausible segment size");
    const std::uint64_t segment_begin = reader.offset();
    format::FileHeader header = format::FileHeader::deserialize(reader);
    const std::uint64_t header_bytes = reader.offset() - segment_begin;
    check_format(header_bytes <= segment_size,
                 "stream: segment smaller than its header");
    header.check_payload(segment_size - header_bytes);
    total += decompress_pipe_container(reader, std::move(header), header_bytes, out,
                                       options);
  }
  return total;
}

}  // namespace

std::uint64_t compress_stream(std::istream& in, std::ostream& out,
                              const CompressOptions& options,
                              std::size_t chunk_size) {
  check(chunk_size >= options.block_size, "stream: chunk smaller than a block");
  Bytes magic;
  put_u32le(magic, kStreamMagic);
  write_bytes(out, magic);

  std::uint64_t total = 0;
  Bytes chunk(chunk_size);
  while (in.good()) {
    in.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(chunk.size()));
    const std::size_t got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    total += got;
    const Bytes segment = compress(ByteSpan(chunk.data(), got), options);
    Bytes framing;
    put_varint(framing, segment.size());
    write_bytes(out, framing);
    write_bytes(out, segment);
  }
  check_io(in.eof() || in.good(), "stream: read failed");
  out.put(0);  // zero-length terminator
  check_io(out.good(), "stream: write failed");
  return total;
}

std::uint64_t decompress_stream(std::istream& in, std::ostream& out,
                                const DecompressOptions& options) {
  const bool seekable = in.tellg() != std::istream::pos_type(-1);
  if (!seekable) in.clear();  // a failed tellg may latch failbit
  return seekable ? decompress_stream_session(in, out, options)
                  : decompress_stream_sequential(in, out, options);
}

std::uint64_t compress_file(const std::string& input_path,
                            const std::string& output_path,
                            const CompressOptions& options, std::size_t chunk_size) {
  std::ifstream in(input_path, std::ios::binary);
  check(in.good(), "stream: cannot open input file");
  std::ofstream out(output_path, std::ios::binary);
  check(out.good(), "stream: cannot open output file");
  return compress_stream(in, out, options, chunk_size);
}

std::uint64_t decompress_file(const std::string& input_path,
                              const std::string& output_path,
                              const DecompressOptions& options) {
  std::ifstream in(input_path, std::ios::binary);
  check(in.good(), "stream: cannot open input file");
  std::ofstream out(output_path, std::ios::binary);
  check(out.good(), "stream: cannot open output file");
  return decompress_stream(in, out, options);
}

}  // namespace gompresso
