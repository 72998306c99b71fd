// HTTP range load against an in-process net::Server: `connections`
// keep-alive clients issuing fixed-length Range GETs, in a closed loop
// (each client sends its next request when the previous one completes)
// or an open loop (Poisson arrivals on a schedule fixed in advance; a
// request that finds every connection busy waits, and its latency runs
// from when it was due). Every 206 body is compared with the plaintext.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "measure.hpp"
#include "serve/backend.hpp"
#include "tracing.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Range offsets: Zipf(s) over the archive's blocks in a seeded
/// scattered rank order (rank 0, the hottest, is a random block, not
/// block 0), uniform inside the chosen block, clamped so the range ends
/// inside the archive.
class OffsetSampler {
 public:
  OffsetSampler(const gompresso::serve::ContainerBackend& backend,
                std::uint64_t range_len, double zipf_s, std::uint64_t seed);
  std::uint64_t next(gompresso::Rng& rng) const;

 private:
  std::vector<gompresso::serve::BackendBlock> by_rank_;
  std::vector<double> cdf_;
  std::uint64_t last_start_ = 0;
};

struct Arrival {
  double due_s = 0;  // from the start of the open-loop phase
  std::uint64_t offset = 0;
};

/// `count` Poisson arrivals at `rate_per_s`, offsets from `sampler`.
std::vector<Arrival> poisson_schedule(const OffsetSampler& sampler, double rate_per_s,
                                      std::size_t count, std::uint64_t seed);

struct LoadResult {
  /// One entry per attempted request; +inf marks a failure (a 503/502,
  /// any other status, a timeout or a dropped connection).
  std::vector<double> latency_s;
  std::vector<double> late_s;  // open loop: send time minus due time
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t body_bytes = 0;           // bodies of correct 206s
  std::uint64_t received_body_bytes = 0;  // bodies of every response
  double ok_latency_sum_s = 0;
  double wall_s = 0;
  bool wrong_bytes = false;
};

class RangeClients {
 public:
  /// `plain` must outlive the clients; `log` may be null (untraced).
  RangeClients(std::uint16_t port, const gompresso::Bytes& plain,
               std::uint64_t range_len, std::size_t connections, SpanLog* log);
  ~RangeClients();
  RangeClients(const RangeClients&) = delete;
  RangeClients& operator=(const RangeClients&) = delete;

  /// Connects the clients one at a time, each completing one request
  /// (not counted) before the next connects. The server then opens its
  /// per-connection sources in client order, which is what lets
  /// request_marks() tie server-side decode spans to client requests.
  LoadResult prime(const OffsetSampler& sampler, std::uint64_t seed);

  LoadResult closed_loop(double seconds, const OffsetSampler& sampler,
                         std::uint64_t seed);
  LoadResult open_loop(const std::vector<Arrival>& schedule);

  /// Per server connection tag (1-based client index), the traced
  /// requests in start order. A client that had to reconnect drops out:
  /// its new server connection has a tag the harness cannot know.
  std::map<std::uint64_t, std::vector<SpanLog::RequestMark>> request_marks() const;

 private:
  struct Client;
  void request(Client& c, std::uint64_t offset, LoadResult& out,
               Clock::time_point timed_from);
  template <typename PerClient>
  LoadResult run_clients(PerClient&& body);

  std::uint16_t port_;
  const gompresso::Bytes& plain_;
  std::uint64_t range_len_;
  SpanLog* log_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::atomic<std::uint64_t> next_request_{0};
};

}  // namespace perfbench
