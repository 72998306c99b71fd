#include "ingest/gzip_index.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <span>

#include "obs/metrics.hpp"
#include "util/crc32.hpp"
#include "util/varint.hpp"

namespace gompresso::ingest {
namespace {

struct IngestCounters {
  obs::Counter index_builds;
  obs::Counter sidecar_loads;
  obs::Counter chunks_indexed;
  obs::Counter chunk_fallbacks;
  obs::Counter boundary_candidates;
  obs::Counter boundary_bits_scanned;
  obs::Counter bytes_indexed;
  // One sample per build: time on the calling thread alone (accept or
  // fall back, window tails, trailer checks) and time in the pass that
  // patches and CRCs whole cells (on the pool when speculating).
  obs::Histogram stitch_serial_us;
  obs::Histogram patch_crc_us;
};

const IngestCounters& counters() {
  static const IngestCounters c = {
      obs::registry().counter("ingest.index_builds", "builds"),
      obs::registry().counter("ingest.sidecar_loads", "loads"),
      obs::registry().counter("ingest.chunks_indexed", "chunks"),
      obs::registry().counter("ingest.chunk_fallbacks", "chunks"),
      obs::registry().counter("ingest.boundary_candidates", "candidates"),
      obs::registry().counter("ingest.boundary_bits_scanned", "bits"),
      obs::registry().counter("ingest.bytes_indexed", "bytes"),
      obs::registry().histogram("ingest.stitch_serial_us", "us"),
      obs::registry().histogram("ingest.patch_crc_us", "us"),
  };
  return c;
}

/// Extra slice bytes past the grid pitch so a block straddling the
/// nominal chunk end usually decodes without a grow-and-retry.
constexpr std::uint64_t kSliceMargin = 64 * 1024;

/// Tokens patched per step of the pool pass: the bytes stay in cache
/// between the patch and the CRC that consumes them.
constexpr std::size_t kPatchBlock = 64 * 1024;

/// Patch window of marker cells that start the stream's output (no
/// predecessor bytes): the same zero prefill the rolling window starts
/// with.
constexpr std::array<std::uint8_t, kWindowSize> kZeroWindow{};

/// CRC32 and length of a cell's output between two member events.
struct Segment {
  std::uint32_t crc = 0;
  std::uint64_t len = 0;
};

/// One grid cell's speculative work, filled in by a pool worker.
struct ChunkTask {
  // Inputs.
  std::uint64_t grid_byte = 0;       // c_i: cell begin (slice base)
  std::uint64_t next_grid_byte = 0;  // c_{i+1}: cell end (stop target)
  bool byte_mode = false;            // known start: decode bytes directly
  std::uint64_t start_bit = 0;       // byte mode only (absolute)

  // Outputs.
  bool ok = false;            // a decode from found_bit/start_bit succeeded
  std::uint64_t found_bit = 0;  // absolute block boundary the decode used
  std::uint64_t end_bit = 0;    // absolute end of the decoded run
  ChunkStatus status = ChunkStatus::kStopped;
  std::vector<std::uint16_t> tokens;   // marker mode
  Bytes bytes;                         // byte mode
  std::vector<MemberEvent> members;    // out_offsets are chunk-relative
  BoundaryScanStats stats;

  // Stitch. The serial pass picks the output and its patch window; the
  // pool pass fills `segments`, which the combine reads.
  bool markers = false;  // output is `tokens`, else `bytes`
  std::uint64_t window_offset = kNoWindow;  // into GzipIndex::windows_
  std::vector<Segment> segments;  // members.size() + 1, in output order

  static constexpr std::uint64_t kNoWindow = ~std::uint64_t{0};
};

/// Decodes resolved bytes from absolute `start_bit` until the first
/// block boundary at/after byte `stop_byte`, growing the staged slice
/// on kNeedMoreData. Used for the stream-start chunk (window known to
/// be empty) and for stitch fallbacks (window known from the
/// predecessor). Corruption here is genuine — the window is true.
struct ByteRun {
  std::uint64_t end_bit = 0;
  ChunkStatus status = ChunkStatus::kStopped;
  Bytes out;
  std::vector<MemberEvent> members;
};

ByteRun decode_byte_run(serve::ByteSource& source, std::uint64_t source_size,
                        std::uint64_t start_bit, std::uint64_t stop_byte,
                        ByteSpan start_window, InflateScratch& scratch) {
  const std::uint64_t base = start_bit >> 3;
  std::uint64_t slice_len =
      std::min(stop_byte - base + kSliceMargin, source_size - base);
  while (true) {
    Bytes slice(static_cast<std::size_t>(slice_len));
    source.read_at(base, MutableByteSpan(slice.data(), slice.size()));
    // Bounding by the staged slice (not the whole remaining stream)
    // caps the garbage a short slice's zero padding can decode into
    // before the grow-and-retry kicks in.
    GrowingByteSink sink(start_window, max_inflated_bytes(slice_len));
    ChunkResult res;
    const ChunkStatus status = inflate_chunk(
        ByteSpan(slice.data(), slice.size()), start_bit - 8 * base,
        (stop_byte - base) * 8, source_size - base, sink, scratch, res);
    if (status == ChunkStatus::kNeedMoreData) {
      slice_len = std::min(slice_len * 2, source_size - base);
      continue;  // terminates: a full slice can never report kNeedMoreData
    }
    ByteRun run;
    run.end_bit = 8 * base + res.end_bit;
    run.status = status;
    run.out = std::move(sink.bytes());
    run.members = std::move(res.members);
    return run;
  }
}

/// Speculative path: find a boundary in [grid_byte, next_grid_byte),
/// marker-decode from it. Boundary misses and false candidates leave
/// ok == false / advance the scan; only I/O errors escape.
void run_marker_task(serve::ByteSource& source, std::uint64_t source_size,
                     ChunkTask& t) {
  const std::uint64_t base = t.grid_byte;
  const std::uint64_t stop_rel_bit = (t.next_grid_byte - base) * 8;
  std::uint64_t slice_len =
      std::min(t.next_grid_byte - base + kSliceMargin, source_size - base);
  InflateScratch scratch;
  std::uint64_t scan_from = 0;
  while (true) {
    Bytes slice(static_cast<std::size_t>(slice_len));
    source.read_at(base, MutableByteSpan(slice.data(), slice.size()));
    const ByteSpan span(slice.data(), slice.size());
    bool grow = false;
    while (!grow) {
      const std::uint64_t cand =
          find_block_boundary(span, scan_from, stop_rel_bit, scratch, &t.stats);
      if (cand == kNoBoundary) return;  // stitch will fall back
      MarkerSink sink(t.tokens, max_inflated_bytes(slice_len));
      ChunkResult res;
      ChunkStatus status;
      try {
        status = inflate_chunk(span, cand, stop_rel_bit, source_size - base,
                               sink, scratch, res);
      } catch (const CorruptionError&) {
        scan_from = cand + 1;  // false positive: keep scanning
        continue;
      }
      if (status == ChunkStatus::kNeedMoreData) {
        if (slice_len >= source_size - base) {
          scan_from = cand + 1;  // defensive; a full slice cannot ask for more
          continue;
        }
        slice_len = std::min(slice_len * 2, source_size - base);
        scan_from = cand;  // the candidate itself is still plausible
        grow = true;
        continue;
      }
      t.ok = true;
      t.found_bit = 8 * base + cand;
      t.end_bit = 8 * base + res.end_bit;
      t.status = status;
      t.members = std::move(res.members);
      return;
    }
  }
}

void run_byte_task(serve::ByteSource& source, std::uint64_t source_size,
                   ChunkTask& t) {
  InflateScratch scratch;
  ByteRun run = decode_byte_run(source, source_size, t.start_bit,
                                t.next_grid_byte, ByteSpan(), scratch);
  t.ok = true;
  t.found_bit = t.start_bit;
  t.end_bit = run.end_bit;
  t.status = run.status;
  t.bytes = std::move(run.out);
  t.members = std::move(run.members);
}

/// Serial stitch state threaded through the cells in order.
struct StitchState {
  Bytes window;  // rolling last-32-KiB of output, zero-prefilled
  std::uint64_t uncomp_pos = 0;
  std::uint64_t cur_bit = 0;
  bool eos = false;
  // Member trailer check, advanced by the combine.
  std::uint32_t member_crc = 0;
  std::uint64_t member_len = 0;
};

void roll_window(Bytes& window, ByteSpan out) {
  if (out.size() >= kWindowSize) {
    std::copy(out.end() - kWindowSize, out.end(), window.begin());
    return;
  }
  std::copy(window.begin() + static_cast<std::ptrdiff_t>(out.size()),
            window.end(), window.begin());
  std::copy(out.begin(), out.end(), window.end() - static_cast<std::ptrdiff_t>(out.size()));
}

/// Pool pass for one accepted cell: CRCs its output between member
/// events into t.segments and frees the output. Marker cells are patched
/// kPatchBlock tokens at a time into `buf`, so their bytes are never
/// materialized whole.
void crc_cell(ChunkTask& t, ByteSpan window, MutableByteSpan buf) {
  const std::span<const std::uint16_t> tokens(t.tokens);
  const auto crc_range = [&](std::size_t begin, std::size_t end) {
    if (!t.markers) return crc32(ByteSpan(t.bytes.data() + begin, end - begin));
    std::uint32_t crc = 0;
    for (std::size_t p = begin; p < end; p += buf.size()) {
      const std::size_t m = std::min(buf.size(), end - p);
      patch_markers(tokens.subspan(p, m), window, buf.first(m));
      crc = crc32(ByteSpan(buf.data(), m), crc);
    }
    return crc;
  };
  const std::size_t size = t.markers ? t.tokens.size() : t.bytes.size();
  std::size_t prev = 0;
  for (const MemberEvent& ev : t.members) {
    const std::size_t at = static_cast<std::size_t>(ev.out_offset);
    t.segments.push_back({crc_range(prev, at), at - prev});
    prev = at;
  }
  t.segments.push_back({crc_range(prev, size), size - prev});
  std::vector<std::uint16_t>().swap(t.tokens);
  Bytes().swap(t.bytes);
}

std::uint64_t micros_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

GzipIndex GzipIndex::build(serve::ByteSource& source,
                           const GzipIndexOptions& options) {
  const IngestCounters& ctr = counters();
  ctr.index_builds.inc();

  GzipIndex idx;
  idx.source_size_ = source.size();
  const std::uint64_t S = idx.source_size_;

  serve::SourceReader reader(source);
  const GzipMemberHeader first = parse_member_header(reader);
  check_format(S >= first.header_bytes + kGzipTrailerBytes,
               "gzip: stream too short for a member");
  const std::uint64_t data_begin = first.header_bytes;

  const std::uint64_t chunk_comp = std::max<std::uint64_t>(options.chunk_size, 4096);
  const std::size_t n =
      static_cast<std::size_t>(div_ceil(S - data_begin, chunk_comp));
  const std::size_t par =
      options.pool != nullptr ? options.pool->parallelism() : 1;
  const bool speculate = par > 1 && n > 1;

  StitchState st;
  st.window.assign(kWindowSize, 0);
  st.cur_bit = 8 * data_begin;
  Bytes tail(kWindowSize);
  std::uint64_t serial_us = 0;
  std::uint64_t patch_crc_us = 0;

  // Serial pass: accept the cell's speculative output or decode it
  // again with the true window, record its extents and start window,
  // and roll the window forward. Only the last <= 32 KiB of a marker
  // cell is patched here; the rest waits for the pool pass. Returns
  // false for a cell its predecessor already consumed.
  InflateScratch stitch_scratch;
  const auto stitch_cell = [&](ChunkTask& t, bool counted_fallback) {
    if (st.cur_bit >= 8 * t.next_grid_byte) return false;
    const std::uint64_t start_bit = st.cur_bit;
    if (t.ok && (t.byte_mode || t.found_bit == st.cur_bit)) {
      t.markers = !t.byte_mode;
    } else {
      // Speculation missed (no boundary, or a boundary the stream did
      // not actually stop at): decode this cell sequentially with the
      // true window in hand.
      if (counted_fallback) ctr.chunk_fallbacks.inc();
      const ByteSpan win =
          st.uncomp_pos == 0
              ? ByteSpan()
              : ByteSpan(st.window.data(), st.window.size());
      ByteRun run = decode_byte_run(source, S, st.cur_bit, t.next_grid_byte,
                                    win, stitch_scratch);
      std::vector<std::uint16_t>().swap(t.tokens);
      t.markers = false;
      t.bytes = std::move(run.out);
      t.end_bit = run.end_bit;
      t.status = run.status;
      t.members = std::move(run.members);
    }
    const std::size_t size = t.markers ? t.tokens.size() : t.bytes.size();

    if (size != 0) {
      GzipChunk c;
      c.start_bit = start_bit;
      c.end_bit = t.end_bit;
      c.uncomp_offset = st.uncomp_pos;
      c.uncomp_size = size;
      c.window_offset = idx.windows_.size();
      if (st.uncomp_pos == 0) {
        c.window_bytes = 0;
      } else {
        c.window_bytes = static_cast<std::uint32_t>(kWindowSize);
        idx.windows_.insert(idx.windows_.end(), st.window.begin(), st.window.end());
        t.window_offset = c.window_offset;
      }
      idx.chunks_.push_back(c);
      ctr.chunks_indexed.inc();
      ctr.bytes_indexed.add(size);
    }

    if (t.markers) {
      const std::size_t m = std::min(size, kWindowSize);
      patch_markers(std::span<const std::uint16_t>(t.tokens).last(m),
                    ByteSpan(st.window.data(), st.window.size()),
                    MutableByteSpan(tail.data(), m));
      roll_window(st.window, ByteSpan(tail.data(), m));
    } else {
      roll_window(st.window, ByteSpan(t.bytes.data(), t.bytes.size()));
    }
    st.uncomp_pos += size;
    st.cur_bit = t.end_bit;
    st.eos = t.status == ChunkStatus::kEndOfStream;
    return true;
  };

  // Combine: chain the cell's segment CRCs into the running member and
  // check each trailer the cell closed.
  const auto combine_cell = [&](const ChunkTask& t) {
    for (std::size_t k = 0; k < t.segments.size(); ++k) {
      st.member_crc = crc32_combine(st.member_crc, t.segments[k].crc,
                                    t.segments[k].len);
      st.member_len += t.segments[k].len;
      if (k == t.members.size()) break;  // the last segment stays open
      const MemberEvent& ev = t.members[k];
      check_corrupt(st.member_crc == ev.crc32, "gzip: member CRC32 mismatch");
      check_corrupt(static_cast<std::uint32_t>(st.member_len) == ev.isize,
                    "gzip: member ISIZE mismatch");
      st.member_crc = 0;
      st.member_len = 0;
    }
    idx.num_members_ += t.members.size();
  };

  const auto window_of = [&](const ChunkTask& t) {
    return t.window_offset == ChunkTask::kNoWindow
               ? ByteSpan(kZeroWindow.data(), kZeroWindow.size())
               : ByteSpan(idx.windows_.data() + t.window_offset, kWindowSize);
  };

  const auto make_task = [&](std::size_t i) {
    ChunkTask t;
    t.grid_byte = data_begin + i * chunk_comp;
    t.next_grid_byte = std::min(S, t.grid_byte + chunk_comp);
    if (i == 0) {
      t.byte_mode = true;
      t.start_bit = 8 * data_begin;
    }
    return t;
  };

  // Waves of speculative tasks, then three passes per wave: the serial
  // stitch (window tails only), the pool pass (whole-cell patch + CRC)
  // and the serial combine. The wave width of 2x parallelism keeps
  // workers busy while bounding the token streams held in memory at
  // once. Without speculation (no pool, one participant or one cell)
  // the task pass is skipped and waves are one cell: every cell goes
  // through the stitch's byte-run fallback with its window known, the
  // norm rather than a miss, so not counted, and the patch + CRC pass
  // runs inline.
  using Clock = std::chrono::steady_clock;
  const std::size_t wave = speculate ? 2 * par : 1;
  std::vector<Bytes> bufs(par, Bytes(kPatchBlock));
  for (std::size_t w0 = 0; w0 < n && !st.eos; w0 += wave) {
    const std::size_t w1 = std::min(n, w0 + wave);
    std::vector<ChunkTask> tasks;
    tasks.reserve(w1 - w0);
    for (std::size_t i = w0; i < w1; ++i) tasks.push_back(make_task(i));
    if (speculate) {
      options.pool->parallel_for(tasks.size(), [&](std::size_t k) {
        ChunkTask& t = tasks[k];
        if (t.byte_mode) {
          run_byte_task(source, S, t);
        } else {
          run_marker_task(source, S, t);
        }
      });
    }

    Clock::time_point t0 = Clock::now();
    std::vector<ChunkTask*> accepted;
    for (ChunkTask& t : tasks) {
      ctr.boundary_candidates.add(t.stats.candidates);
      ctr.boundary_bits_scanned.add(t.stats.bits_scanned);
      if (st.eos) break;
      if (stitch_cell(t, /*counted_fallback=*/speculate)) accepted.push_back(&t);
    }
    serial_us += micros_since(t0);

    t0 = Clock::now();
    const auto patch_crc = [&](std::size_t worker, std::size_t k) {
      ChunkTask& t = *accepted[k];
      crc_cell(t, window_of(t),
               MutableByteSpan(bufs[worker].data(), bufs[worker].size()));
    };
    if (speculate) {
      options.pool->parallel_for_worker(accepted.size(), patch_crc);
    } else {
      for (std::size_t k = 0; k < accepted.size(); ++k) patch_crc(0, k);
    }
    patch_crc_us += micros_since(t0);

    t0 = Clock::now();
    for (const ChunkTask* t : accepted) combine_cell(*t);
    serial_us += micros_since(t0);
  }

  check_corrupt(st.eos, "gzip: stream ended without a final member trailer");
  idx.total_uncompressed_ = st.uncomp_pos;
  ctr.stitch_serial_us.record(serial_us);
  ctr.patch_crc_us.record(patch_crc_us);
  return idx;
}

std::size_t GzipIndex::chunk_containing(std::uint64_t offset) const {
  check(offset < total_uncompressed_, "gzip: offset past end of stream");
  const auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), offset,
      [](std::uint64_t off, const GzipChunk& c) { return off < c.uncomp_offset; });
  return static_cast<std::size_t>(it - chunks_.begin()) - 1;
}

Bytes GzipIndex::serialize() const {
  Bytes out;
  put_u32le(out, kGzipIndexMagic);
  out.push_back(kGzipIndexVersion);
  put_varint(out, source_size_);
  put_varint(out, total_uncompressed_);
  put_varint(out, num_members_);
  put_varint(out, chunks_.size());
  for (const GzipChunk& c : chunks_) {
    put_varint(out, c.start_bit);
    put_varint(out, c.end_bit);
    put_varint(out, c.uncomp_offset);
    put_varint(out, c.uncomp_size);
    put_varint(out, c.window_bytes);
    const ByteSpan w(windows_.data() + c.window_offset, c.window_bytes);
    out.insert(out.end(), w.begin(), w.end());
  }
  return out;
}

GzipIndex GzipIndex::deserialize(ByteSpan sidecar) {
  util::SpanReader reader(sidecar);
  check_format(reader.read_u32le() == kGzipIndexMagic,
               "gzip: bad seek-index magic");
  check_format(reader.read_u8() == kGzipIndexVersion,
               "gzip: unsupported seek-index version");
  GzipIndex idx;
  idx.source_size_ = reader.read_varint();
  idx.total_uncompressed_ = reader.read_varint();
  idx.num_members_ = reader.read_varint();
  const std::uint64_t count = reader.read_varint();
  // A chunk costs >= 6 sidecar bytes, so an implausible count fails
  // fast instead of reserving unbounded memory.
  check_format(count <= sidecar.size(), "gzip: implausible chunk count");
  std::uint64_t expect_offset = 0;
  std::uint64_t prev_end_bit = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    GzipChunk c;
    c.start_bit = reader.read_varint();
    c.end_bit = reader.read_varint();
    c.uncomp_offset = reader.read_varint();
    c.uncomp_size = reader.read_varint();
    const std::uint64_t wbytes = reader.read_varint();
    check_format(c.start_bit >= prev_end_bit && c.start_bit < c.end_bit &&
                     c.end_bit <= 8 * idx.source_size_,
                 "gzip: seek-index chunk extents out of order");
    check_format(c.uncomp_offset == expect_offset && c.uncomp_size > 0,
                 "gzip: seek-index offsets not contiguous");
    // The writer's invariant: only the stream-start chunk has no
    // window, and every other window is exactly 32 KiB. decode_block
    // relies on this to resolve any in-window distance.
    check_format(wbytes == (c.uncomp_offset == 0 ? 0 : kWindowSize),
                 "gzip: seek-index window size invalid");
    c.window_bytes = static_cast<std::uint32_t>(wbytes);
    c.window_offset = idx.windows_.size();
    if (wbytes != 0) {
      idx.windows_.resize(idx.windows_.size() + static_cast<std::size_t>(wbytes));
      reader.read_exact(MutableByteSpan(
          idx.windows_.data() + c.window_offset, static_cast<std::size_t>(wbytes)));
    }
    expect_offset += c.uncomp_size;
    prev_end_bit = c.end_bit;
    idx.chunks_.push_back(c);
  }
  check_format(expect_offset == idx.total_uncompressed_,
               "gzip: seek-index total size mismatch");
  check_format(reader.at_end(), "gzip: trailing bytes in seek index");
  counters().sidecar_loads.inc();
  return idx;
}

void GzipIndex::save(const std::string& path) const {
  const Bytes data = serialize();
  std::ofstream out(path, std::ios::binary);
  check_io(out.good(), "gzip: cannot open sidecar for writing");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  check_io(out.good(), "gzip: sidecar write failed");
}

}  // namespace gompresso::ingest
