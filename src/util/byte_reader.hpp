// Buffered pull-based byte readers shared by the container parsers.
//
// The format layer parses headers out of three kinds of backing store: an
// in-memory span (batch decompress), a std::istream (a pipe), and a
// serve::ByteSource (seek-index construction). ByteReader is the common
// cursor over all three: subclasses only supply windows of contiguous
// bytes, while the varint / u32 / exact-read primitives run on raw window
// pointers.
#pragma once

#include <algorithm>
#include <cstring>
#include <istream>

#include "util/common.hpp"

namespace gompresso::util {

/// Sequential byte cursor with buffered primitives. Subclasses implement
/// next_window() (hand the reader the next run of contiguous bytes) and
/// optionally try_seek() for cheap skipping on random-access backends.
class ByteReader {
 public:
  virtual ~ByteReader() = default;

  /// Absolute offset (from the reader's origin) of the next unread byte.
  std::uint64_t offset() const {
    return window_base_ + static_cast<std::uint64_t>(pos_ - begin_);
  }

  /// Next byte; throws on end of input.
  std::uint8_t read_u8() {
    if (pos_ == end_) require_window();
    return *pos_++;
  }

  /// LEB128 varint (same encoding as util/varint.hpp).
  std::uint64_t read_varint() {
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (true) {
      check_format(shift < 64, "varint: value too long");
      const std::uint8_t byte = read_u8();
      v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
      if ((byte & 0x80u) == 0) return v;
      shift += 7;
    }
  }

  /// Fixed-width little-endian u32.
  std::uint32_t read_u32le() {
    std::uint8_t b[4];
    read_exact(MutableByteSpan(b, 4));
    return static_cast<std::uint32_t>(b[0]) | (static_cast<std::uint32_t>(b[1]) << 8) |
           (static_cast<std::uint32_t>(b[2]) << 16) |
           (static_cast<std::uint32_t>(b[3]) << 24);
  }

  /// Fills `dst` completely; throws on short input. The current window
  /// is drained first, then the remainder goes through read_direct() —
  /// stream-backed readers pull it from the source in one exact read,
  /// bypassing the window buffer (no copy, no readahead).
  void read_exact(MutableByteSpan dst) {
    const std::size_t in_window =
        std::min<std::size_t>(dst.size(), static_cast<std::size_t>(end_ - pos_));
    // Guard the empty-window case: pos_ is null before the first window
    // is installed, and memcpy's pointer arguments are nonnull even for
    // zero lengths.
    if (in_window != 0) std::memcpy(dst.data(), pos_, in_window);
    pos_ += in_window;
    if (in_window < dst.size()) read_direct(dst.subspan(in_window));
  }

  /// Advances `n` bytes, seeking on backends that support it and
  /// read-discarding otherwise. Throws if the input ends first.
  void skip(std::uint64_t n) {
    while (n > 0) {
      const std::uint64_t in_window = static_cast<std::uint64_t>(end_ - pos_);
      if (in_window >= n) {
        pos_ += static_cast<std::size_t>(n);
        return;
      }
      n -= in_window;
      pos_ = end_;
      if (try_seek(offset() + n)) return;
      require_window();
    }
  }

  /// True when the input is exhausted (may pull the next window).
  bool at_end() {
    if (pos_ != end_) return false;
    const ByteSpan w = next_window();
    install_window(w);
    return w.empty();
  }

 protected:
  /// Returns the next run of bytes after the current window (empty span =
  /// end of input). The returned memory must stay valid until the next
  /// next_window()/try_seek() call on this reader.
  virtual ByteSpan next_window() = 0;

  /// Bulk-fills `dst` starting at offset() when the window is empty.
  /// The default loops next_window(); stream-backed readers override it
  /// with one exact source read and then call reset_cursor(offset() +
  /// dst.size()). Only called by read_exact() with the window drained.
  virtual void read_direct(MutableByteSpan dst) {
    std::size_t got = 0;
    while (got < dst.size()) {
      install_window(next_window());
      check_format(begin_ != end_, "read: truncated input");
      const std::size_t take = std::min<std::size_t>(
          dst.size() - got, static_cast<std::size_t>(end_ - pos_));
      std::memcpy(dst.data() + got, pos_, take);
      pos_ += take;
      got += take;
    }
  }

  /// Repositions the underlying source so the next next_window() starts
  /// at absolute offset `abs`; false if the backend cannot seek.
  virtual bool try_seek(std::uint64_t abs) {
    (void)abs;
    return false;
  }

  void install_window(ByteSpan w) {
    window_base_ = offset();
    begin_ = pos_ = w.data();
    end_ = w.data() + w.size();
  }

  /// Resets the cursor (used by subclasses implementing try_seek).
  void reset_cursor(std::uint64_t abs) {
    window_base_ = abs;
    begin_ = pos_ = end_ = nullptr;
  }

 private:
  void require_window() {
    install_window(next_window());
    check_format(pos_ != end_, "read: truncated input");
  }

  const std::uint8_t* begin_ = nullptr;
  const std::uint8_t* pos_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  std::uint64_t window_base_ = 0;
};

/// Zero-copy reader over an in-memory span.
class SpanReader : public ByteReader {
 public:
  explicit SpanReader(ByteSpan data) : data_(data) {}

 protected:
  ByteSpan next_window() override {
    if (served_) return {};
    served_ = true;
    return data_.subspan(static_cast<std::size_t>(offset()));
  }

  bool try_seek(std::uint64_t abs) override {
    check_format(abs <= data_.size(), "read: seek past end of input");
    served_ = false;
    reset_cursor(abs);
    return true;
  }

 private:
  ByteSpan data_;
  bool served_ = false;
};

/// Buffered reader over a std::istream. All consumption of the stream
/// must go through the reader once constructed: it reads ahead up to
/// `buffer_size` bytes. Offsets are relative to the stream position at
/// construction time. It reads forward only (skip() reads and discards):
/// its one user is decompress_stream() on a pipe.
///
/// buffer_size = 1 makes consumption byte-exact: the reader never takes
/// more from the stream than the caller parses (bulk read_exact() calls
/// bypass the window entirely), which is what a non-seekable pipe needs
/// when bytes after the parsed region belong to someone else.
class IstreamReader : public ByteReader {
 public:
  explicit IstreamReader(std::istream& in, std::size_t buffer_size = kDefaultBuffer)
      : in_(in), buf_(std::max<std::size_t>(buffer_size, 1)) {}

  static constexpr std::size_t kDefaultBuffer = 64 * 1024;

 protected:
  ByteSpan next_window() override {
    in_.read(reinterpret_cast<char*>(buf_.data()),
             static_cast<std::streamsize>(buf_.size()));
    const std::size_t got = static_cast<std::size_t>(in_.gcount());
    check_io(got > 0 || in_.eof(), "read: stream read failed");
    if (got > 0) in_.clear();  // clear eof latched by a short final read
    return ByteSpan(buf_.data(), got);
  }

  void read_direct(MutableByteSpan dst) override {
    // The window is drained (read_exact's precondition), so the stream
    // cursor equals offset(): hand the stream the caller's buffer
    // directly — exact-length, no readahead, no double copy.
    const std::uint64_t end = offset() + dst.size();
    in_.read(reinterpret_cast<char*>(dst.data()),
             static_cast<std::streamsize>(dst.size()));
    if (static_cast<std::size_t>(in_.gcount()) != dst.size()) {
      // Distinguish a failing device from an input that simply ends
      // early: eof is structural truncation, anything else is I/O.
      check_io(in_.eof(), "read: stream read failed");
      throw FormatError("read: truncated input");
    }
    reset_cursor(end);
  }

 private:
  std::istream& in_;
  Bytes buf_;
};

}  // namespace gompresso::util
