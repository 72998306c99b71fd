// Random-access compressed-byte backends for the serve subsystem.
//
// A DecodeSession never holds a whole compressed file in memory: it asks
// a ByteSource for exactly the block extents the seek index names, on
// whatever thread the prefetch pipeline decodes them. Three backends
// cover the library's surfaces: a file (pread, naturally concurrent), an
// in-memory span (tests and already-resident data), and a seekable
// std::istream (the streaming front end in core/stream.cpp).
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "util/byte_reader.hpp"
#include "util/common.hpp"

namespace gompresso::serve {

/// Positional reads over an immutable compressed container. read_at must
/// be callable from multiple threads concurrently.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Total size in bytes.
  virtual std::uint64_t size() const = 0;

  /// Fills `dst` from absolute offset `offset`; throws gompresso::Error
  /// if the range does not lie fully inside the source.
  virtual void read_at(std::uint64_t offset, MutableByteSpan dst) = 0;
};

/// Opens a file with pread-style positional I/O (no shared cursor, so
/// concurrent prefetch reads need no lock). Anything but a regular file
/// (a pipe, a device) is rejected with a FormatError naming the cause.
std::unique_ptr<ByteSource> open_file_source(const std::string& path);

/// Wraps an in-memory container. The span is referenced, not copied —
/// it must outlive the source.
std::unique_ptr<ByteSource> memory_source(ByteSpan data);

/// Wraps a seekable std::istream (ifstream, istringstream). Offsets are
/// relative to the stream position at wrap time; reads are serialized
/// internally because an istream has a single cursor. The stream must
/// outlive the source, which leaves the stream cursor unspecified.
std::unique_ptr<ByteSource> istream_source(std::istream& in);

/// Buffered sequential reader over a ByteSource (the seek-index scan and
/// the container-header parsers run on this, sharing the varint/u32
/// primitives with the istream front end in core/stream.cpp).
class SourceReader : public util::ByteReader {
 public:
  explicit SourceReader(ByteSource& source,
                        std::size_t buffer_size = util::IstreamReader::kDefaultBuffer)
      : source_(source), buf_(std::max<std::size_t>(buffer_size, 64)) {}

  /// Repositions the cursor to absolute offset `abs` (cheap — the
  /// backing store is random access). A target past the end of the
  /// source is structural truncation: the container told us to seek
  /// somewhere the source does not reach.
  void seek_to(std::uint64_t abs) {
    check_format(try_seek(abs), "read: seek past end of input");
  }

 protected:
  ByteSpan next_window() override {
    const std::uint64_t off = offset();
    if (off >= source_.size()) return {};
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(buf_.size(), source_.size() - off));
    source_.read_at(off, MutableByteSpan(buf_.data(), take));
    return ByteSpan(buf_.data(), take);
  }

  bool try_seek(std::uint64_t abs) override {
    // Contract: report an unreachable target by returning false (the
    // base class falls back to window draining and raises "truncated
    // input" at the true end); seek_to turns false into a typed error.
    // Throwing here instead would bypass both callers' own handling.
    if (abs > source_.size()) return false;
    reset_cursor(abs);
    return true;
  }

 private:
  ByteSource& source_;
  Bytes buf_;
};

}  // namespace gompresso::serve
