#include "range_load.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "net/http.hpp"

namespace perfbench {

using gompresso::Rng;

OffsetSampler::OffsetSampler(const gompresso::serve::ContainerBackend& backend,
                             std::uint64_t range_len, double zipf_s,
                             std::uint64_t seed) {
  const std::size_t n = backend.num_blocks();
  for (std::size_t b = 0; b < n; ++b) by_rank_.push_back(backend.block(b));
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(by_rank_[i - 1], by_rank_[rng.next_below(i)]);
  }
  double total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  const std::uint64_t size = backend.total_uncompressed();
  gompresso::check(size >= range_len, "perfbench: archive smaller than one range");
  last_start_ = size - range_len;
}

std::uint64_t OffsetSampler::next(Rng& rng) const {
  const double u = rng.next_double();
  const std::size_t rank = static_cast<std::size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  const gompresso::serve::BackendBlock& b = by_rank_[std::min(rank, by_rank_.size() - 1)];
  const std::uint64_t off = b.uncomp_offset + rng.next_below(std::max<std::uint64_t>(b.uncomp_size, 1));
  return std::min(off, last_start_);
}

std::vector<Arrival> poisson_schedule(const OffsetSampler& sampler, double rate_per_s,
                                      std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Arrival> out;
  double t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.next_double()) / rate_per_s;
    out.push_back({t, sampler.next(rng)});
  }
  return out;
}

namespace {

/// Sleeps until shortly before `due`, then spins. A plain sleep wakes up
/// late, now and then by milliseconds on a shared VM, and every bit of
/// that is charged to the request, which is timed from when it was due.
/// (Yielding inside the spin measured worse than either.)
void wait_until(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(200));
  while (Clock::now() < due) {
  }
}

}  // namespace

struct RangeClients::Client {
  std::unique_ptr<gompresso::net::HttpClient> http;
  std::uint64_t tag = 0;  // server connection tag; 0 once reconnected
  std::vector<SpanLog::RequestMark> marks;
};

RangeClients::RangeClients(std::uint16_t port, const gompresso::Bytes& plain,
                           std::uint64_t range_len, std::size_t connections,
                           SpanLog* log)
    : port_(port), plain_(plain), range_len_(range_len), log_(log) {
  for (std::size_t i = 0; i < connections; ++i) {
    clients_.push_back(std::make_unique<Client>());
    clients_.back()->tag = i + 1;
  }
}

RangeClients::~RangeClients() = default;

void RangeClients::request(Client& c, std::uint64_t offset, LoadResult& out,
                           Clock::time_point timed_from) {
  const std::uint64_t id = next_request_.fetch_add(1) + 1;
  ScopedSpan span(log_, "http.request", 0, id);
  if (log_ != nullptr && c.tag != 0) c.marks.push_back({span.start_ns(), span.id(), id});
  const std::string range = "Range: bytes=" + std::to_string(offset) + "-" +
                            std::to_string(offset + range_len_ - 1);
  gompresso::net::HttpResponse resp;
  bool answered = false;
  try {
    if (c.http == nullptr || !c.http->alive()) {
      if (c.http != nullptr) c.tag = 0;
      c.http = std::make_unique<gompresso::net::HttpClient>(port_);
    }
    answered = c.http->get("/archive", {range}, resp);
  } catch (const gompresso::Error&) {
    c.http.reset();  // timeout or malformed response: reconnect next time
    c.tag = 0;
  }
  const double latency = seconds_since(timed_from);
  if (answered) out.received_body_bytes += resp.body.size();
  if (answered && resp.status == 206 && resp.body.size() == range_len_) {
    if (std::memcmp(resp.body.data(), plain_.data() + offset, range_len_) != 0) {
      out.wrong_bytes = true;
    }
    ++out.ok;
    out.body_bytes += resp.body.size();
    out.ok_latency_sum_s += latency;
    out.latency_s.push_back(latency);
  } else {
    ++out.failed;
    out.latency_s.push_back(std::numeric_limits<double>::infinity());
  }
}

template <typename PerClient>
LoadResult RangeClients::run_clients(PerClient&& body) {
  std::vector<LoadResult> parts(clients_.size());
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    threads.emplace_back([&, i] { body(i, *clients_[i], parts[i]); });
  }
  for (std::thread& t : threads) t.join();
  LoadResult out;
  out.wall_s = seconds_since(t0);
  for (const LoadResult& p : parts) {
    out.latency_s.insert(out.latency_s.end(), p.latency_s.begin(), p.latency_s.end());
    out.late_s.insert(out.late_s.end(), p.late_s.begin(), p.late_s.end());
    out.ok += p.ok;
    out.failed += p.failed;
    out.body_bytes += p.body_bytes;
    out.received_body_bytes += p.received_body_bytes;
    out.ok_latency_sum_s += p.ok_latency_sum_s;
    out.wrong_bytes = out.wrong_bytes || p.wrong_bytes;
  }
  return out;
}

LoadResult RangeClients::prime(const OffsetSampler& sampler, std::uint64_t seed) {
  LoadResult out;
  Rng rng(seed);
  for (const std::unique_ptr<Client>& c : clients_) {
    request(*c, sampler.next(rng), out, Clock::now());
  }
  return out;
}

LoadResult RangeClients::closed_loop(double seconds, const OffsetSampler& sampler,
                                     std::uint64_t seed) {
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  return run_clients([&](std::size_t i, Client& c, LoadResult& part) {
    Rng rng(seed + 0x9E3779B97F4A7C15ull * (i + 1));
    while (Clock::now() < end) {
      request(c, sampler.next(rng), part, Clock::now());
    }
  });
}

LoadResult RangeClients::open_loop(const std::vector<Arrival>& schedule) {
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  return run_clients([&](std::size_t, Client& c, LoadResult& part) {
    for (std::size_t k = next.fetch_add(1); k < schedule.size(); k = next.fetch_add(1)) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(schedule[k].due_s));
      wait_until(due);
      part.late_s.push_back(seconds_since(due));
      request(c, schedule[k].offset, part, due);
    }
  });
}

std::map<std::uint64_t, std::vector<SpanLog::RequestMark>> RangeClients::request_marks()
    const {
  std::map<std::uint64_t, std::vector<SpanLog::RequestMark>> out;
  for (const std::unique_ptr<Client>& c : clients_) {
    if (c->tag != 0) out[c->tag] = c->marks;
  }
  return out;
}

}  // namespace perfbench
