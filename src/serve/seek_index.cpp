#include "serve/seek_index.hpp"

#include <algorithm>
#include <fstream>

#include "core/stream.hpp"  // kStreamMagic (GMPS framing)
#include "util/varint.hpp"

namespace gompresso::serve {

std::uint64_t SeekIndex::append_segment(Segment segment) {
  const format::FileHeader& h = segment.header;
  const std::uint32_t seg_idx = static_cast<std::uint32_t>(segments_.size());
  std::uint64_t comp_off = segment.comp_offset + segment.header_bytes;
  for (std::size_t b = 0; b < h.num_blocks(); ++b) {
    BlockEntry e;
    e.comp_offset = comp_off;
    e.comp_size = h.block_compressed_sizes[b];
    e.uncomp_offset = total_uncompressed_ + static_cast<std::uint64_t>(b) * h.block_size;
    e.uncomp_size = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        h.block_size, h.uncompressed_size - static_cast<std::uint64_t>(b) * h.block_size));
    e.segment = seg_idx;
    blocks_.push_back(e);
    comp_off += e.comp_size;
  }
  total_uncompressed_ += h.uncompressed_size;
  segments_.push_back(std::move(segment));
  return comp_off;
}

SeekIndex SeekIndex::build(ByteSource& source) {
  SeekIndex index;
  index.source_size_ = source.size();
  SourceReader reader(source);
  check_format(source.size() >= 4, "serve: input too small for a container");
  const std::uint32_t magic = reader.read_u32le();

  if (magic == format::kMagic) {
    // A single Gompresso container.
    reader.seek_to(0);
    Segment seg;
    seg.header = format::FileHeader::deserialize(reader);
    seg.comp_offset = 0;
    seg.header_bytes = reader.offset();
    seg.header.check_payload(source.size() - seg.header_bytes);
    index.append_segment(std::move(seg));
    index.comp_end_ = source.size();
    return index;
  }

  check_format(magic == kStreamMagic, "serve: not a Gompresso container or stream");
  index.is_stream_ = true;
  while (true) {
    const std::uint64_t seg_size = reader.read_varint();
    if (seg_size == 0) break;  // terminator
    check_format(seg_size <= (1ull << 40), "stream: implausible segment size");
    const std::uint64_t seg_begin = reader.offset();
    check_format(seg_size <= source.size() - seg_begin, "stream: truncated segment");
    Segment seg;
    seg.header = format::FileHeader::deserialize(reader);
    seg.comp_offset = seg_begin;
    seg.header_bytes = reader.offset() - seg_begin;
    check_format(seg.header_bytes <= seg_size, "stream: segment smaller than its header");
    seg.header.check_payload(seg_size - seg.header_bytes);
    index.append_segment(std::move(seg));
    reader.seek_to(seg_begin + seg_size);
  }
  index.comp_end_ = reader.offset();
  return index;
}

SeekIndex SeekIndex::for_container(format::FileHeader header,
                                   std::uint64_t header_bytes) {
  SeekIndex index;
  index.source_size_ = index.comp_end_ =
      index.append_segment(Segment{std::move(header), 0, header_bytes});
  return index;
}

std::size_t SeekIndex::block_containing(std::uint64_t offset) const {
  check(offset < total_uncompressed_, "serve: offset beyond end of data");
  // First block starting after `offset`, minus one. Blocks are sorted by
  // uncompressed offset and tile [0, total) without gaps.
  const auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), offset,
      [](std::uint64_t off, const BlockEntry& e) { return off < e.uncomp_offset; });
  return static_cast<std::size_t>(it - blocks_.begin()) - 1;
}

Bytes SeekIndex::serialize() const {
  Bytes out;
  put_u32le(out, kIndexMagic);
  out.push_back(kIndexVersion);
  put_varint(out, source_size_);
  put_varint(out, comp_end_);
  out.push_back(is_stream_ ? 1 : 0);
  put_varint(out, segments_.size());
  for (const Segment& seg : segments_) {
    const Bytes blob = seg.header.serialize();
    // serialize() is canonical (minimal varints), so the blob length is
    // exactly the header's on-disk length; assert the invariant the
    // block offsets depend on.
    check(blob.size() == seg.header_bytes, "serve: non-canonical header");
    put_varint(out, seg.comp_offset);
    put_varint(out, blob.size());
    out.insert(out.end(), blob.begin(), blob.end());
  }
  return out;
}

SeekIndex SeekIndex::deserialize(ByteSpan sidecar) {
  util::SpanReader reader(sidecar);
  check_format(reader.read_u32le() == kIndexMagic, "serve: bad seek-index magic");
  check_format(reader.read_u8() == kIndexVersion, "serve: unsupported seek-index version");
  SeekIndex index;
  index.source_size_ = reader.read_varint();
  index.comp_end_ = reader.read_varint();
  index.is_stream_ = reader.read_u8() != 0;
  const std::uint64_t num_segments = reader.read_varint();
  check_format(num_segments <= (1ull << 32), "serve: implausible segment count");
  for (std::uint64_t s = 0; s < num_segments; ++s) {
    Segment seg;
    seg.comp_offset = reader.read_varint();
    seg.header_bytes = reader.read_varint();
    const std::uint64_t header_end = reader.offset() + seg.header_bytes;
    seg.header = format::FileHeader::deserialize(reader);
    check_format(reader.offset() == header_end, "serve: seek-index header blob mismatch");
    // The build path runs check_payload, which enforces this; a sidecar
    // is untrusted and skips it (no payload length in hand), so the
    // block-count invariant must be re-checked here. Without it a header
    // claiming e.g. zero blocks for a nonzero uncompressed_size leaves
    // gaps in the block table, block_containing() underflows, and
    // read_impl's `uncomp_size - in_block` wraps into an out-of-bounds
    // copy.
    seg.header.check_block_count();
    // Subtractive bound: a crafted offset near 2^64 must not wrap an
    // additive comparison into acceptance (same hardening discipline as
    // FileHeader::check_payload).
    check_format(seg.header_bytes <= index.source_size_ &&
                     seg.comp_offset <= index.source_size_ - seg.header_bytes,
                 "serve: seek-index segment outside source");
    const std::size_t first_block = index.blocks_.size();
    index.append_segment(std::move(seg));
    // Every block extent the sidecar implies must lie inside the source.
    // Checking each entry also catches accumulator wrap-around: the
    // first oversized comp_size fails its own subtractive bound before a
    // later entry could wrap back into range.
    for (std::size_t b = first_block; b < index.blocks_.size(); ++b) {
      const BlockEntry& e = index.blocks_[b];
      check_format(e.comp_offset <= index.source_size_ &&
                       e.comp_size <= index.source_size_ - e.comp_offset,
                   "serve: seek-index block outside source");
    }
  }
  check_format(index.comp_end_ <= index.source_size_, "serve: corrupt seek index");
  return index;
}

void SeekIndex::save(const std::string& path) const {
  const Bytes data = serialize();
  std::ofstream out(path, std::ios::binary);
  check_io(out.good(), "serve: cannot open sidecar for writing");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  check_io(out.good(), "serve: sidecar write failed");
}

SeekIndex SeekIndex::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  check_io(in.good(), "serve: cannot open sidecar");
  const Bytes data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return deserialize(data);
}

}  // namespace gompresso::serve
