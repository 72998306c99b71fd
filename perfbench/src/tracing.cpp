#include "tracing.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>

#include "measure.hpp"

namespace perfbench {
namespace {

thread_local const Span* tls_open_span = nullptr;

std::uint32_t this_thread_tid() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid = next.fetch_add(1);
  return tid;
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Max-assign for a high-water mark updated from many threads.
void raise_to(std::atomic<std::uint64_t>& mark, std::uint64_t v) {
  std::uint64_t cur = mark.load(std::memory_order_relaxed);
  while (v > cur && !mark.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::uint64_t SpanLog::now_ns() const { return ns_between(epoch_, Clock::now()); }

void SpanLog::add(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanLog::link_requests(
    const std::map<std::uint64_t, std::vector<RequestMark>>& requests) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Span& s : spans_) {
    if (s.conn == 0 || s.request != 0) continue;
    const auto it = requests.find(s.conn);
    if (it == requests.end()) continue;
    const std::vector<RequestMark>& marks = it->second;
    auto after = std::upper_bound(
        marks.begin(), marks.end(), s.start_ns,
        [](std::uint64_t t, const RequestMark& m) { return t < m.start_ns; });
    if (after == marks.begin()) continue;
    const RequestMark& m = *(after - 1);
    s.request = m.request;
    if (s.parent == 0) s.parent = m.span_id;
  }
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::uint32_t max_tid = 0;
  for (const Span& s : all) max_tid = std::max(max_tid, s.tid);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  if (!all.empty()) {
    for (std::uint32_t t = 0; t <= max_tid; ++t) {
      std::fprintf(f,
                   "%s{\"ph\":\"M\",\"pid\":1,\"tid\":%" PRIu32
                   ",\"name\":\"thread_name\",\"args\":{\"name\":\"perfbench-%" PRIu32
                   "\"}}",
                   first ? "" : ",", t, t);
      first = false;
    }
  }
  for (const Span& s : all) {
    std::fprintf(f,
                 "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%" PRIu32
                 ",\"name\":\"%s\",\"cat\":\"perfbench\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"request\":%" PRIu64 "}}",
                 first ? "" : ",", s.tid, s.name,
                 static_cast<double>(s.start_ns) / 1000.0,
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0, s.id, s.parent,
                 s.request);
    first = false;
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, std::uint64_t root,
                       std::uint64_t request, std::uint64_t conn) {
  if (log == nullptr || !log->enabled()) return;
  log_ = log;
  outer_ = tls_open_span;
  span_.name = name;
  span_.id = log->next_id();
  span_.parent = outer_ != nullptr ? outer_->id : root;
  span_.request = request != 0 ? request : (outer_ != nullptr ? outer_->request : 0);
  span_.conn = conn != 0 ? conn : (outer_ != nullptr ? outer_->conn : 0);
  span_.tid = this_thread_tid();
  span_.start_ns = log->now_ns();
  tls_open_span = &span_;
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = log_->now_ns();
  tls_open_span = outer_;
  log_->add(span_);
}

void TimedSource::read_at(std::uint64_t offset, gompresso::MutableByteSpan dst) {
  ScopedSpan span(log_, "source.read_at", 0, 0, conn_);
  const Clock::time_point t0 = Clock::now();
  inner_->read_at(offset, dst);
  counters_.source_ns += ns_between(t0, Clock::now());
  counters_.source_reads += 1;
  counters_.source_bytes += dst.size();
}

void TimedBackend::decode_block(std::size_t b, gompresso::serve::ByteSource& source,
                                gompresso::util::BufferPool& buffers,
                                gompresso::MutableByteSpan out) {
  const auto* timed = dynamic_cast<const TimedSource*>(&source);
  ScopedSpan span(log_, "backend.decode_block", root_, 0,
                  timed != nullptr ? timed->conn() : 0);
  const Clock::time_point t0 = Clock::now();
  inner_->decode_block(b, source, buffers, out);
  counters_.backend_ns += ns_between(t0, Clock::now());
  counters_.backend_blocks += 1;
  counters_.backend_bytes += out.size();
  raise_to(counters_.pool_peak_bytes, buffers.stats().peak_outstanding_bytes);
}

std::unique_ptr<gompresso::serve::DecodeSession> open_traced(
    const std::string& path, const gompresso::OpenOptions& options,
    LayerCounters& counters, SpanLog* log, std::uint64_t root) {
  ScopedSpan span(log, "open", root);
  auto source = std::make_unique<TimedSource>(gompresso::serve::open_file_source(path),
                                              counters, log, 0);
  const Clock::time_point t0 = Clock::now();
  std::shared_ptr<gompresso::serve::ContainerBackend> backend =
      gompresso::open_backend(*source, options);
  counters.open_backend_ns += ns_between(t0, Clock::now());
  counters.opens += 1;
  auto timed = std::make_shared<TimedBackend>(std::move(backend), counters, log, root);
  return std::make_unique<gompresso::serve::DecodeSession>(std::move(source),
                                                           std::move(timed),
                                                           options.session);
}

std::size_t read_traced(gompresso::serve::DecodeSession& session,
                        gompresso::MutableByteSpan dst, LayerCounters& counters,
                        SpanLog* log, std::uint64_t root) {
  ScopedSpan span(log, "session.read", root);
  const Clock::time_point t0 = Clock::now();
  const std::size_t n = session.read(dst);
  counters.session_ns += ns_between(t0, Clock::now());
  return n;
}

std::map<std::string, double> self_seconds(const std::vector<Span>& spans,
                                           const std::string& root_name) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    const Span* top = &s;
    for (int depth = 0; top->parent != 0 && depth < 64; ++depth) {
      const auto up = by_id.find(top->parent);
      if (up == by_id.end()) break;
      top = &spans[up->second];
    }
    if (root_name != top->name) continue;
    std::uint64_t covered = 0;
    const auto kids = children.find(s.id);
    if (kids != children.end()) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> iv = kids->second;
      std::sort(iv.begin(), iv.end());
      std::uint64_t reach = s.start_ns;
      for (auto [b, e] : iv) {
        b = std::max(b, reach);
        e = std::min(e, s.end_ns);
        if (e > b) {
          covered += e - b;
          reach = e;
        }
      }
    }
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

}  // namespace perfbench
