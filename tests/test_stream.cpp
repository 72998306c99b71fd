// Tests for the bounded-memory streaming layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

#include "core/compressor.hpp"
#include "core/decompressor.hpp"
#include "core/stream.hpp"
#include "datagen/datasets.hpp"
#include "format/header.hpp"
#include "obs/metrics.hpp"
#include "serve/decode_session.hpp"
#include "util/byte_reader.hpp"
#include "util/varint.hpp"

namespace gompresso {
namespace {

std::string to_string(const Bytes& b) { return {b.begin(), b.end()}; }

TEST(Stream, RoundTripMultipleSegments) {
  const Bytes input = datagen::wikipedia(700000);
  std::istringstream in(to_string(input));
  std::ostringstream compressed;
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  // Small chunks force several segments.
  EXPECT_EQ(compress_stream(in, compressed, opt, 128 * 1024), input.size());

  std::istringstream cin(compressed.str());
  std::ostringstream out;
  EXPECT_EQ(decompress_stream(cin, out), input.size());
  EXPECT_EQ(out.str(), to_string(input));
}

TEST(Stream, EmptyInput) {
  std::istringstream in("");
  std::ostringstream compressed;
  EXPECT_EQ(compress_stream(in, compressed, {}), 0u);
  std::istringstream cin(compressed.str());
  std::ostringstream out;
  EXPECT_EQ(decompress_stream(cin, out), 0u);
  EXPECT_TRUE(out.str().empty());
}

TEST(Stream, SingleSegmentExactChunk) {
  const Bytes input = datagen::matrix(131072);
  std::istringstream in(to_string(input));
  std::ostringstream compressed;
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  compress_stream(in, compressed, opt, 131072);
  std::istringstream cin(compressed.str());
  std::ostringstream out;
  decompress_stream(cin, out);
  EXPECT_EQ(out.str(), to_string(input));
}

TEST(Stream, AllCodecsStream) {
  const Bytes input = datagen::matrix(300000);
  for (const Codec c : {Codec::kByte, Codec::kBit, Codec::kTans}) {
    std::istringstream in(to_string(input));
    std::ostringstream compressed;
    CompressOptions opt;
    opt.codec = c;
    opt.block_size = 64 * 1024;
    compress_stream(in, compressed, opt, 100000);
    std::istringstream cin(compressed.str());
    std::ostringstream out;
    decompress_stream(cin, out);
    EXPECT_EQ(out.str(), to_string(input)) << "codec " << static_cast<int>(c);
  }
}

TEST(Stream, BadMagicThrows) {
  std::istringstream cin("NOPE....");
  std::ostringstream out;
  EXPECT_THROW(decompress_stream(cin, out), Error);
}

TEST(Stream, TruncatedSegmentThrows) {
  const Bytes input = datagen::wikipedia(200000);
  std::istringstream in(to_string(input));
  std::ostringstream compressed;
  CompressOptions opt;
  opt.block_size = 32 * 1024;  // chunk must hold at least one block
  compress_stream(in, compressed, opt, 100000);
  const std::string full = compressed.str();
  std::istringstream cin(full.substr(0, full.size() / 2));
  std::ostringstream out;
  EXPECT_THROW(decompress_stream(cin, out), Error);
}

TEST(Stream, MissingTerminatorThrows) {
  const Bytes input = datagen::wikipedia(50000);
  std::istringstream in(to_string(input));
  std::ostringstream compressed;
  compress_stream(in, compressed, {});
  std::string full = compressed.str();
  full.pop_back();  // drop the terminator varint
  std::istringstream cin(full);
  std::ostringstream out;
  EXPECT_THROW(decompress_stream(cin, out), Error);
}

TEST(Stream, RejectsChunkSmallerThanBlock) {
  std::istringstream in("abc");
  std::ostringstream compressed;
  CompressOptions opt;
  opt.block_size = 256 * 1024;
  EXPECT_THROW(compress_stream(in, compressed, opt, 1024), Error);
}

/// A streambuf that reads from a string but cannot seek (pubseekoff
/// keeps the std::streambuf default of failing), modelling a pipe. It
/// drives the sequential block-at-a-time decode path.
class SequentialBuf : public std::streambuf {
 public:
  explicit SequentialBuf(std::string data) : data_(std::move(data)) {
    setg(data_.data(), data_.data(), data_.data() + data_.size());
  }

 private:
  std::string data_;
};

TEST(Stream, NonSeekableInputUsesSequentialBoundedPath) {
  const Bytes input = datagen::wikipedia(400000);
  std::istringstream in(to_string(input));
  std::ostringstream compressed;
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  compress_stream(in, compressed, opt, 120000);  // several segments

  SequentialBuf buf(compressed.str());
  std::istream cin(&buf);
  ASSERT_EQ(cin.tellg(), std::istream::pos_type(-1));  // really not seekable
  cin.clear();
  std::ostringstream out;
  EXPECT_EQ(decompress_stream(cin, out), input.size());
  EXPECT_EQ(out.str(), to_string(input));

  // Multi-threaded batch decode on the pipe path produces the same bytes.
  SequentialBuf buf4(compressed.str());
  std::istream cin4(&buf4);
  cin4.clear();
  std::ostringstream out4;
  DecompressOptions dopt;
  dopt.num_threads = 4;
  EXPECT_EQ(decompress_stream(cin4, out4, dopt), input.size());
  EXPECT_EQ(out4.str(), to_string(input));
}

TEST(Stream, NonSeekableConsumptionIsByteExact) {
  // Two concatenated streams through one pipe: the first decode must
  // consume exactly through its terminator so the second still parses.
  const Bytes a = datagen::wikipedia(120000);
  const Bytes b = datagen::matrix(90000);
  std::string both;
  for (const Bytes* input : {&a, &b}) {
    std::istringstream in(to_string(*input));
    std::ostringstream compressed;
    CompressOptions opt;
    opt.block_size = 32 * 1024;
    compress_stream(in, compressed, opt, 64 * 1024);
    both += compressed.str();
  }
  SequentialBuf buf(both);
  std::istream cin(&buf);
  cin.clear();
  std::ostringstream out_a, out_b;
  EXPECT_EQ(decompress_stream(cin, out_a), a.size());
  EXPECT_EQ(out_a.str(), to_string(a));
  EXPECT_EQ(decompress_stream(cin, out_b), b.size());
  EXPECT_EQ(out_b.str(), to_string(b));
}

TEST(Stream, NonSeekableAcceptsBareContainer) {
  // The documented contract: either decode path serves a bare GMPZ
  // container, including through a pipe. A container of one block
  // (block >= input) is a batch of one on the pipe, so at 4 threads it
  // takes decompress()'s lane fan-out plan: sub-block lanes and sharded
  // resolve across the pool. Every case must match both the input and
  // decompress().
  const Bytes input = datagen::wikipedia(600000);
  struct Case {
    Codec codec;
    std::uint32_t block_size;
  };
  for (const Case c : {Case{Codec::kBit, 32 * 1024}, Case{Codec::kBit, 1u << 20},
                       Case{Codec::kByte, 1u << 20}, Case{Codec::kTans, 1u << 20}}) {
    CompressOptions opt;
    opt.codec = c.codec;
    opt.block_size = c.block_size;
    const Bytes file = compress(input, opt);
    const std::string expected = to_string(decompress(file).data);
    ASSERT_EQ(expected, to_string(input));
    const bool one_block = c.block_size >= input.size();
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "codec " << static_cast<int>(c.codec)
                                      << " block " << c.block_size << " threads "
                                      << threads);
      const std::uint64_t sharded_before =
          obs::metrics_snapshot().counter("resolve.sharded_blocks");
      SequentialBuf buf(std::string(file.begin(), file.end()));
      std::istream cin(&buf);
      cin.clear();
      std::ostringstream out;
      DecompressOptions dopt;
      dopt.num_threads = threads;
      EXPECT_EQ(decompress_stream(cin, out, dopt), input.size());
      EXPECT_EQ(out.str(), expected);
      const std::uint64_t sharded =
          obs::metrics_snapshot().counter("resolve.sharded_blocks") - sharded_before;
      if (one_block && threads == 4) {
        EXPECT_EQ(sharded, 1u) << "a lone block on a pipe must fan out";
      } else {
        EXPECT_EQ(sharded, 0u);
      }
    }
  }
}

TEST(Stream, NonSeekableBareContainerBlockCountMismatchThrows) {
  // A corrupt bare-container header claiming fewer blocks than
  // ceil(uncompressed_size / block_size) used to emit truncated output
  // and return success on the pipe path (no framing payload size to
  // validate against); the block-count invariant must still be checked.
  const Bytes input = datagen::wikipedia(150000);
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  const Bytes file = compress(input, opt);
  std::size_t pos = 0;
  format::FileHeader h = format::FileHeader::deserialize(file, pos);
  ASSERT_GT(h.num_blocks(), 1u);
  const std::size_t last_payload =
      static_cast<std::size_t>(h.block_compressed_sizes.back());
  h.block_compressed_sizes.pop_back();  // claim one block fewer
  Bytes doctored = h.serialize();
  doctored.insert(doctored.end(), file.begin() + pos, file.end() - last_payload);
  SequentialBuf buf(std::string(doctored.begin(), doctored.end()));
  std::istream cin(&buf);
  cin.clear();
  std::ostringstream out;
  EXPECT_THROW(decompress_stream(cin, out), Error);
}

TEST(Stream, NonSeekableImplausibleBlockSizeRejected) {
  // On a pipe there is no payload length to validate the size list
  // against; a crafted tiny header claiming a multi-GiB compressed block
  // must fail with a clean Error, not attempt the allocation.
  format::FileHeader h;
  h.block_size = 1;
  h.uncompressed_size = 1;
  h.block_compressed_sizes = {1ull << 35};
  const Bytes doctored = h.serialize();
  SequentialBuf buf(std::string(doctored.begin(), doctored.end()));
  std::istream cin(&buf);
  cin.clear();
  std::ostringstream out;
  EXPECT_THROW(decompress_stream(cin, out), Error);
}

TEST(Stream, NonSeekableMalformedFramingIsFormatError) {
  // Framing the pipe decoder rejects is malformed data, typed as
  // FormatError the way SeekIndex::build types the same framing on a
  // seekable input, not the API-misuse kind a plain Error carries.
  const auto expect_format_error = [](const Bytes& data, const char* what) {
    SCOPED_TRACE(what);
    SequentialBuf buf(std::string(data.begin(), data.end()));
    std::istream cin(&buf);
    cin.clear();
    std::ostringstream out;
    EXPECT_THROW(decompress_stream(cin, out), FormatError);
  };

  Bytes huge_segment;
  put_u32le(huge_segment, kStreamMagic);
  put_varint(huge_segment, (1ull << 40) + 1);
  expect_format_error(huge_segment, "segment size above 2^40");

  // A real container header behind a segment size of one byte.
  const Bytes file = compress(datagen::wikipedia(10000), {});
  Bytes short_segment;
  put_u32le(short_segment, kStreamMagic);
  put_varint(short_segment, 1);
  short_segment.insert(short_segment.end(), file.begin(), file.end());
  expect_format_error(short_segment, "segment shorter than its header");

  format::FileHeader h;
  h.block_size = (1u << 30) + 1;
  expect_format_error(h.serialize(), "bare header with a block above 1 GiB");
}

TEST(Stream, NonSeekableTruncatedInputThrows) {
  const Bytes input = datagen::wikipedia(100000);
  std::istringstream in(to_string(input));
  std::ostringstream compressed;
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  compress_stream(in, compressed, opt, 100000);
  const std::string full = compressed.str();
  SequentialBuf buf(full.substr(0, full.size() / 2));
  std::istream cin(&buf);
  cin.clear();
  std::ostringstream out;
  EXPECT_THROW(decompress_stream(cin, out), Error);
}

TEST(Stream, DecompressStreamAcceptsBareContainer) {
  // The session-backed decoder serves a plain GMPZ container through the
  // streaming front end too.
  const Bytes input = datagen::matrix(150000);
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  const Bytes file = compress(input, opt);
  std::istringstream cin(std::string(file.begin(), file.end()));
  std::ostringstream out;
  EXPECT_EQ(decompress_stream(cin, out), input.size());
  EXPECT_EQ(out.str(), to_string(input));
}

TEST(Stream, MultiThreadedStreamDecodeMatches) {
  const Bytes input = datagen::wikipedia(500000);
  std::istringstream in(to_string(input));
  std::ostringstream compressed;
  CompressOptions opt;
  opt.block_size = 16 * 1024;
  compress_stream(in, compressed, opt, 150000);
  std::istringstream cin(compressed.str());
  std::ostringstream out;
  DecompressOptions dopt;
  dopt.num_threads = 4;  // exercise the prefetch pipeline inside the stream path
  EXPECT_EQ(decompress_stream(cin, out, dopt), input.size());
  EXPECT_EQ(out.str(), to_string(input));
}

TEST(Stream, ExplicitDeStrategyRejectedOnNonDeStream) {
  // The strategy knob reaches the pipe path too: an explicit DE request
  // on a non-DE stream throws there, as through decompress() and open().
  const Bytes input = datagen::wikipedia(100000);
  std::istringstream in(to_string(input));
  std::ostringstream compressed;
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  opt.dependency_elimination = false;
  compress_stream(in, compressed, opt, 64 * 1024);
  DecompressOptions dopt;
  dopt.strategy = Strategy::kDependencyFree;
  {
    SequentialBuf pipe(compressed.str());
    std::istream cin(&pipe);
    cin.clear();
    std::ostringstream out;
    EXPECT_THROW(decompress_stream(cin, out, dopt), Error);
  }
  {
    std::istringstream cin(compressed.str());  // seekable: the session path
    std::ostringstream out;
    EXPECT_THROW(decompress_stream(cin, out, dopt), Error);
  }
  // Unset, the same stream decodes (MRR, picked from each header).
  SequentialBuf pipe(compressed.str());
  std::istream cin(&pipe);
  cin.clear();
  std::ostringstream out;
  EXPECT_EQ(decompress_stream(cin, out), input.size());
  EXPECT_EQ(out.str(), to_string(input));
}

/// The header of a GMPS stream's first segment, and where its block
/// payloads begin.
format::FileHeader first_segment_header(const std::string& stream,
                                        std::size_t* payload_begin) {
  util::SpanReader reader(ByteSpan(reinterpret_cast<const std::uint8_t*>(stream.data()),
                                   stream.size()));
  EXPECT_EQ(reader.read_u32le(), kStreamMagic);
  reader.read_varint();  // segment size
  format::FileHeader header = format::FileHeader::deserialize(reader);
  *payload_begin = static_cast<std::size_t>(reader.offset());
  return header;
}

std::uint64_t histogram_count(const obs::MetricsSnapshot& snap, const char* name) {
  const obs::MetricValue* m = snap.find(name);
  return m == nullptr ? 0 : m->hist.count();
}

std::uint64_t histogram_sum(const obs::MetricsSnapshot& snap, const char* name) {
  const obs::MetricValue* m = snap.find(name);
  return m == nullptr ? 0 : m->hist.sum;
}

TEST(Stream, PipeSegmentCutMidBlockIsFormatErrorAndNotRetried) {
  const Bytes input = datagen::wikipedia(300000);
  std::istringstream in(to_string(input));
  std::ostringstream compressed;
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  compress_stream(in, compressed, opt, 1u << 20);
  const std::string full = compressed.str();
  std::size_t payload = 0;
  const format::FileHeader h = first_segment_header(full, &payload);
  ASSERT_GT(h.num_blocks(), 3u);
  // Halfway through the third block's payload.
  const std::size_t cut = payload +
                          static_cast<std::size_t>(h.block_compressed_sizes[0] +
                                                   h.block_compressed_sizes[1] +
                                                   h.block_compressed_sizes[2] / 2);
  const std::uint64_t retries_before = obs::metrics_snapshot().counter("serve.retries");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SequentialBuf buf(full.substr(0, cut));
    std::istream cin(&buf);
    cin.clear();
    std::ostringstream out;
    DecompressOptions dopt;
    dopt.num_threads = threads;
    EXPECT_THROW(decompress_stream(cin, out, dopt), FormatError) << threads;
  }
  EXPECT_EQ(obs::metrics_snapshot().counter("serve.retries"), retries_before);
}

TEST(Stream, PipeBufferStaysBoundedAndPrefetches) {
  // One segment of 256 blocks: the forward buffer must hold only the
  // blocks of one copy chunk plus the lookahead window, never the
  // segment.
  constexpr std::uint32_t kBlock = 16 * 1024;
  const Bytes input = datagen::wikipedia(256 * kBlock);
  std::istringstream in(to_string(input));
  std::ostringstream compressed;
  CompressOptions opt;
  opt.block_size = kBlock;
  compress_stream(in, compressed, opt, input.size());
  const std::string full = compressed.str();
  std::size_t payload = 0;
  const format::FileHeader h = first_segment_header(full, &payload);
  ASSERT_GE(h.num_blocks(), 64u);
  const std::uint64_t largest = *std::max_element(h.block_compressed_sizes.begin(),
                                                  h.block_compressed_sizes.end());
  std::uint64_t segment_payload = 0;
  for (const std::uint64_t size : h.block_compressed_sizes) segment_payload += size;
  const std::uint64_t bound = (kStreamCopyChunk / kBlock +
                               serve::SessionOptions{}.max_inflight_blocks + 1) *
                              largest;
  ASSERT_LT(bound, segment_payload) << "the bound must be tighter than the segment";

  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  SequentialBuf buf(full);
  std::istream cin(&buf);
  cin.clear();
  std::ostringstream out;
  DecompressOptions dopt;
  dopt.num_threads = 4;
  EXPECT_EQ(decompress_stream(cin, out, dopt), input.size());
  EXPECT_EQ(out.str(), to_string(input));
  const obs::MetricsSnapshot after = obs::metrics_snapshot();

  const char* peak = "stream.pipe_buffer_peak_bytes";
  ASSERT_EQ(histogram_count(after, peak) - histogram_count(before, peak), 1u)
      << "one sample per container";
  const std::uint64_t held = histogram_sum(after, peak) - histogram_sum(before, peak);
  EXPECT_GT(held, 0u);
  EXPECT_LE(held, bound);
  // The session looked ahead of the copy loop's reads.
  EXPECT_GT(after.counter("serve.prefetch_decodes") -
                before.counter("serve.prefetch_decodes"),
            0u);
}

TEST(Stream, PipeLyingCompressedSizeFailsPromptly) {
  // A bare header claiming one 1 GiB block of 16 GiB compressed (within
  // the plausibility bound) followed by a few KiB: the pipe runs dry
  // long before the claim, and nothing is sized by the claim.
  format::FileHeader h;
  h.block_size = 1u << 30;
  h.uncompressed_size = 1ull << 30;
  h.block_compressed_sizes = {16ull << 30};
  Bytes data = h.serialize();
  data.resize(data.size() + 4096, 0x5A);
  const auto start = std::chrono::steady_clock::now();
  SequentialBuf buf(std::string(data.begin(), data.end()));
  std::istream cin(&buf);
  cin.clear();
  std::ostringstream out;
  DecompressOptions dopt;
  dopt.num_threads = 4;
  try {
    decompress_stream(cin, out, dopt);
    ADD_FAILURE() << "a lying compressed size decoded";
  } catch (const FormatError& e) {
    // The pipe ran dry: not rejected up front as implausible.
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_TRUE(out.str().empty());
}

TEST(Stream, FileRoundTrip) {
  const Bytes input = datagen::wikipedia(250000);
  const std::string src = "/tmp/gompresso_stream_src.bin";
  const std::string gz = "/tmp/gompresso_stream.gmps";
  const std::string back = "/tmp/gompresso_stream_back.bin";
  {
    std::ofstream f(src, std::ios::binary);
    f.write(reinterpret_cast<const char*>(input.data()),
            static_cast<std::streamsize>(input.size()));
  }
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  EXPECT_EQ(compress_file(src, gz, opt, 100000), input.size());
  EXPECT_EQ(decompress_file(gz, back), input.size());
  std::ifstream f(back, std::ios::binary);
  Bytes result((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  EXPECT_EQ(result, input);
}

}  // namespace
}  // namespace gompresso
