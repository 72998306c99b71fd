// The benchmark's own tracing: an in-memory span log plus timing
// decorators around the library's public seams (serve::ByteSource,
// serve::ContainerBackend, DecodeSession reads). Nothing here reaches
// inside the library; every span is recorded at a call the harness
// makes or a virtual call the library makes into a decorator.
//
// A span has a name, start, end, id and parent. Parents come from a
// per-thread stack, so a source read inside a block decode on the same
// thread nests under it. A block decode runs on a pool worker with an
// empty stack; it takes the root span its decorator was built with (the
// `cat` span), or for the HTTP server, the connection tag of the source
// it was handed, which link_requests() later maps to the client request
// that was in flight on that connection.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/gompresso.hpp"
#include "serve/backend.hpp"
#include "serve/byte_source.hpp"

namespace perfbench {

struct Span {
  const char* name = nullptr;  // static storage
  std::uint64_t id = 0;
  std::uint64_t parent = 0;    // 0 = root
  std::uint64_t request = 0;   // HTTP request id shared by its spans; 0 = none
  std::uint64_t conn = 0;      // server connection tag (decode spans); 0 = none
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  std::uint64_t now_ns() const;
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void add(const Span& span);
  std::vector<Span> spans() const;

  /// Gives every span tagged with server connection `conn` the request
  /// (and parent) of the latest client request on that connection that
  /// started before it. `requests` maps connection -> (start_ns,
  /// http.request span id, request id), sorted by start.
  struct RequestMark {
    std::uint64_t start_ns;
    std::uint64_t span_id;
    std::uint64_t request;
  };
  void link_requests(const std::map<std::uint64_t, std::vector<RequestMark>>& requests);

  /// Chrome trace_event JSON ("X" events, µs), ids in args.
  bool write_chrome_trace(const std::string& path) const;

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span. With a null or disabled log it does nothing. The parent
/// is the innermost open span on this thread, else `root`.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t root = 0,
             std::uint64_t request = 0, std::uint64_t conn = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  std::uint64_t start_ns() const { return span_.start_ns; }

 private:
  SpanLog* log_ = nullptr;
  Span span_;
  const Span* outer_ = nullptr;
};

/// Work counted by the decorators of one operation kind (all cats, or
/// all requests of one server). Atomic: decode workers add concurrently.
struct LayerCounters {
  std::atomic<std::uint64_t> source_reads{0};
  std::atomic<std::uint64_t> source_bytes{0};
  std::atomic<std::uint64_t> source_ns{0};
  std::atomic<std::uint64_t> backend_blocks{0};
  std::atomic<std::uint64_t> backend_bytes{0};
  std::atomic<std::uint64_t> backend_ns{0};
  std::atomic<std::uint64_t> pool_peak_bytes{0};
  std::atomic<std::uint64_t> session_ns{0};
  std::atomic<std::uint64_t> open_backend_ns{0};
  std::atomic<std::uint64_t> opens{0};
};

/// ByteSource decorator: counts and times read_at.
class TimedSource final : public gompresso::serve::ByteSource {
 public:
  TimedSource(std::unique_ptr<gompresso::serve::ByteSource> inner,
              LayerCounters& counters, SpanLog* log, std::uint64_t conn)
      : inner_(std::move(inner)), counters_(counters), log_(log), conn_(conn) {}

  std::uint64_t size() const override { return inner_->size(); }
  void read_at(std::uint64_t offset, gompresso::MutableByteSpan dst) override;
  std::uint64_t conn() const { return conn_; }

 private:
  std::unique_ptr<gompresso::serve::ByteSource> inner_;
  LayerCounters& counters_;
  SpanLog* log_;
  const std::uint64_t conn_;
};

/// ContainerBackend decorator: counts and times decode_block and
/// samples the session buffer pool's high-water mark.
class TimedBackend final : public gompresso::serve::ContainerBackend {
 public:
  TimedBackend(std::shared_ptr<gompresso::serve::ContainerBackend> inner,
               LayerCounters& counters, SpanLog* log, std::uint64_t root_span)
      : inner_(std::move(inner)), counters_(counters), log_(log), root_(root_span) {}

  const char* kind_name() const override { return inner_->kind_name(); }
  std::uint64_t total_uncompressed() const override {
    return inner_->total_uncompressed();
  }
  std::uint64_t source_size() const override { return inner_->source_size(); }
  std::uint64_t compressed_end() const override { return inner_->compressed_end(); }
  std::size_t num_blocks() const override { return inner_->num_blocks(); }
  gompresso::serve::BackendBlock block(std::size_t b) const override {
    return inner_->block(b);
  }
  std::size_t block_containing(std::uint64_t offset) const override {
    return inner_->block_containing(offset);
  }
  const gompresso::serve::SeekIndex* seek_index() const override {
    return inner_->seek_index();
  }
  void decode_block(std::size_t b, gompresso::serve::ByteSource& source,
                    gompresso::util::BufferPool& buffers,
                    gompresso::MutableByteSpan out) override;

 private:
  std::shared_ptr<gompresso::serve::ContainerBackend> inner_;
  LayerCounters& counters_;
  SpanLog* log_;
  const std::uint64_t root_;
};

/// Opens `path` the way gompresso::open() does, with both seams
/// decorated: open_backend() over a TimedSource, then a DecodeSession
/// over a TimedBackend. Records an `open` span under `root`.
std::unique_ptr<gompresso::serve::DecodeSession> open_traced(
    const std::string& path, const gompresso::OpenOptions& options,
    LayerCounters& counters, SpanLog* log, std::uint64_t root);

/// DecodeSession::read with a `session.read` span and wait accounting.
std::size_t read_traced(gompresso::serve::DecodeSession& session,
                        gompresso::MutableByteSpan dst, LayerCounters& counters,
                        SpanLog* log, std::uint64_t root);

/// Self time per span name: each span's duration minus the part of it
/// covered by its children, summed by name; only spans whose root
/// ancestor is named `root_name` are counted.
std::map<std::string, double> self_seconds(const std::vector<Span>& spans,
                                           const std::string& root_name);

}  // namespace perfbench
