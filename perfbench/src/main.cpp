// perfbench: one end-to-end + per-layer benchmark of the gompresso
// library, driven only through its public API.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-out FILE]
//
// Every workload runs the three operations a user performs on one
// archive, on inputs generated from --seed:
//   compress  compress() of the plaintext at nproc threads (timed);
//   cat       gompresso::open(path) + sequential read() of the whole
//             archive, at nproc threads and at one thread;
//   ranges    64 KiB Range GETs against an in-process net::Server:
//             a closed loop on nproc connections, then an open loop
//             with Poisson arrivals at the workload's fixed rate.
// The workloads differ in the archive (see kWorkloads and README.md).
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 the same operations also run through the timing
// decorators of tracing.hpp, and the line carries the per-layer split.
// Any byte that differs from the plaintext makes the exit status 1.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/gompresso.hpp"
#include "datagen/matrix_market.hpp"
#include "datagen/zipf_text.hpp"
#include "measure.hpp"
#include "net/server.hpp"
#include "range_load.hpp"
#include "tracing.hpp"
#include "util/crc32.hpp"

namespace perfbench {
namespace {

using gompresso::Bytes;
using gompresso::ByteSpan;
using gompresso::MutableByteSpan;

constexpr std::uint64_t kMiB = 1024 * 1024;
constexpr std::uint64_t kRangeBytes = 64 * 1024;
constexpr double kZipfS = 1.05;
/// The open loop runs at least this many arrivals, so its p99 has at
/// least ten samples beyond it.
constexpr std::size_t kMinOpenLoopRequests = 1000;
/// setup_s is the median of repeated set-ups: at least kMinSetups, then
/// more until the set-up budget is spent, at most kMaxSetups.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 200;
/// Measurement rounds that compress, cat and closed-loop windows
/// interleave over.
constexpr int kRounds = 3;

enum class Primary { kCat, kRange };

struct Workload {
  const char* name;
  bool matrix;            // corpus: Matrix Market stand-in, else Wikipedia
  std::uint64_t bytes;    // plaintext size
  bool gzip;              // cat/serve a `gzip -6 -n` file instead of compress() output
  std::uint32_t block_size;
  bool dependency_elimination;
  /// Open-loop arrival rate, fixed once at a quarter or less of the
  /// closed-loop capacity this workload measured when the benchmark was
  /// written.
  double open_loop_rps;
  /// Whose layers the traced split describes, and whose set-up setup_s is.
  Primary primary;
};

// cat_oneblock runs but is not in BENCHMARK.json: its range figures are
// cache-hit ping-pong and measure the VM's thread wake-ups (README.md).
constexpr Workload kWorkloads[] = {
    {"cat_native", false, 64 * kMiB, false, 256 * 1024, true, 70, Primary::kCat},
    {"cat_gzip", false, 64 * kMiB, true, 256 * 1024, true, 40, Primary::kCat},
    {"cat_oneblock", false, 32 * kMiB, false, 32 * 1024 * 1024, false, 1000, Primary::kCat},
    {"range_http", true, 64 * kMiB, false, 256 * 1024, true, 150, Primary::kRange},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

/// Independent streams from one seed (SplitMix64 finaliser).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void write_file(const std::string& path, ByteSpan data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out.good()) throw gompresso::Error("perfbench: cannot write " + path);
}

/// Registry counters and histograms summed over a set of windows.
struct RegistryTotals {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, gompresso::obs::HistogramData> hists;

  void add_delta(const gompresso::obs::MetricsSnapshot& before,
                 const gompresso::obs::MetricsSnapshot& after) {
    for (const gompresso::obs::MetricValue& m : after.metrics) {
      const gompresso::obs::MetricValue* b = before.find(m.name);
      if (m.kind == gompresso::obs::MetricKind::kCounter) {
        counters[m.name] += m.value - (b != nullptr ? b->value : 0);
      } else if (m.kind == gompresso::obs::MetricKind::kHistogram) {
        gompresso::obs::HistogramData& h = hists[m.name];
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
          h.buckets[i] += m.hist.buckets[i] - (b != nullptr ? b->hist.buckets[i] : 0);
        }
        h.sum += m.hist.sum - (b != nullptr ? b->hist.sum : 0);
      }
    }
  }
  double counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  double hist_sum(const std::string& name) const {
    const auto it = hists.find(name);
    return it == hists.end() ? 0.0 : static_cast<double>(it->second.sum);
  }
  /// p-quantile of a log2 histogram, interpolated linearly inside the
  /// bucket that holds the rank (the registry keeps only bucket counts).
  double hist_quantile(const std::string& name, double q) const {
    const auto it = hists.find(name);
    if (it == hists.end()) return 0;
    const gompresso::obs::HistogramData& h = it->second;
    const double target = q * static_cast<double>(h.count());
    double seen = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      const double n = static_cast<double>(h.buckets[i]);
      if (n > 0 && seen + n >= target) {
        const double lo = static_cast<double>(gompresso::obs::histogram_bucket_lower(i));
        const double hi = static_cast<double>(gompresso::obs::histogram_bucket_upper(i)) + 1;
        return lo + (hi - lo) * (target - seen) / n;
      }
      seen += n;
    }
    return 0;
  }
};

/// Brackets one window of registry activity.
class RegistryWindow {
 public:
  explicit RegistryWindow(RegistryTotals* totals)
      : totals_(totals),
        before_(totals != nullptr ? gompresso::metrics_snapshot()
                                  : gompresso::obs::MetricsSnapshot{}) {}
  ~RegistryWindow() {
    if (totals_ != nullptr) totals_->add_delta(before_, gompresso::metrics_snapshot());
  }
  RegistryWindow(const RegistryWindow&) = delete;
  RegistryWindow& operator=(const RegistryWindow&) = delete;

 private:
  RegistryTotals* totals_;
  gompresso::obs::MetricsSnapshot before_;
};

/// Waits (up to two seconds) until no pool has a queued or running task,
/// so prefetches a load left behind are counted in the window they
/// belong to.
void wait_for_idle_pools() {
  const Clock::time_point t0 = Clock::now();
  while (seconds_since(t0) < 2.0) {
    const gompresso::obs::MetricsSnapshot m = gompresso::metrics_snapshot();
    if (m.counter("pool.queue_depth") == 0 && m.counter("pool.workers_busy") == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// What one operation kind (cat or HTTP) did under the decorators.
struct TracedOps {
  LayerCounters layers;
  RegistryTotals registry;
  std::uint64_t ops = 0;        // traced cats, or traced requests
  std::uint64_t delivered = 0;  // plaintext bytes those ops delivered
};

class Bench {
 public:
  Bench(const Workload& w, const Args& a)
      : w_(w), a_(a), log_(a.trace),
        nproc_(std::max(1u, std::thread::hardware_concurrency())) {}

  int run();

 private:
  void prepare();
  void compress_once();
  void measure_compress(double budget_s);
  void measure_setup(double budget_s);
  void measure_cat(double budget_s);
  void start_ranges();
  void closed_window(double seconds, int round);
  void finish_ranges(double open_s);
  void gzip_reference();
  void report_layers();
  int report_end_to_end();

  /// One open + full read at `threads`; returns MB/s, or 0 on failure.
  double cat_once(std::size_t threads, bool traced, double* setup_s);
  std::unique_ptr<gompresso::net::Server> start_server(bool traced, double* setup_s);
  /// Accounts one HTTP load (and, on the traced server, its layer work).
  void tally(const LoadResult& r, bool traced_server);
  void count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records one reconciliation check (printed; selftest.py fails on a
  /// mismatch).
  void reconcile(const char* what, std::uint64_t lhs, std::uint64_t rhs) {
    std::printf("reconcile %-52s %" PRIu64 " vs %" PRIu64 " %s\n", what, lhs, rhs,
                lhs == rhs ? "ok" : "MISMATCH");
  }

  const Workload& w_;
  const Args a_;
  SpanLog log_;
  const std::size_t nproc_;

  Bytes plain_;
  Bytes out_;  // cat destination, touched before any timing
  Bytes first_archive_;  // first compress() output; later ones must match it
  std::string archive_path_;
  std::uint64_t archive_bytes_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool wrong_bytes_ = false;

  // End-to-end samples.
  std::vector<double> compress_mb_s_, cat_mb_s_, cat_1t_mb_s_, cat_setup_s_,
      cat_peak_mib_, server_setup_s_, range_rps_;
  double ratio_ = 0;
  double range_peak_mib_ = 0;
  LoadResult open_loop_;

  // HTTP rig: one plain server, plus a decorated one in traced runs.
  std::unique_ptr<OffsetSampler> sampler_;
  std::unique_ptr<gompresso::net::Server> server_, traced_server_;
  std::unique_ptr<RangeClients> clients_, traced_clients_;
  std::uint64_t received_ = 0, traced_received_ = 0;

  // Traced run only.
  TracedOps cat_ops_, http_ops_;
  RegistryTotals compress_registry_;
  RegistryTotals roundtrip_registry_;  // gzip workloads: the native round trip
  std::uint64_t traced_compresses_ = 0;
  std::vector<double> traced_cat_mb_s_, traced_rps_;
  std::atomic<std::uint64_t> next_conn_tag_{0};
  double net_client_ok_sum_s_ = 0;
  std::uint64_t net_client_ok_ = 0;
};

void Bench::prepare() {
  if (w_.matrix) {
    gompresso::datagen::MatrixMarketConfig config;
    config.seed = derive_seed(a_.seed, 1);
    plain_ = gompresso::datagen::make_matrix_market(w_.bytes, config);
  } else {
    gompresso::datagen::WikipediaConfig config;
    config.seed = derive_seed(a_.seed, 1);
    plain_ = gompresso::datagen::make_wikipedia_xml(w_.bytes, config);
  }
  out_.assign(plain_.size(), 0xA5);

  if (w_.gzip) {
    const std::string corpus = a_.work_dir + "/corpus.txt";
    archive_path_ = a_.work_dir + "/corpus.txt.gz";
    write_file(corpus, ByteSpan(plain_.data(), plain_.size()));
    gompresso::check(run_to_file({"gzip", "-6", "-n", "-c", corpus}, archive_path_) == 0,
                     "perfbench: gzip -6 failed");
    std::remove(corpus.c_str());
    std::ifstream in(archive_path_, std::ios::binary | std::ios::ate);
    archive_bytes_ = static_cast<std::uint64_t>(in.tellg());
  } else {
    archive_path_ = a_.work_dir + "/corpus.gmp";
  }
  compress_once();  // the first sample also writes the native archive
}

void Bench::compress_once() {
  gompresso::CompressOptions options;
  options.block_size = w_.block_size;
  options.dependency_elimination = w_.dependency_elimination;
  options.num_threads = nproc_;
  Bytes file;
  {
    RegistryWindow window(a_.trace ? &compress_registry_ : nullptr);
    ScopedSpan span(&log_, "compress");
    const Clock::time_point t0 = Clock::now();
    file = gompresso::compress(ByteSpan(plain_.data(), plain_.size()), options);
    compress_mb_s_.push_back(static_cast<double>(plain_.size()) / 1e6 / seconds_since(t0));
  }
  if (a_.trace) ++traced_compresses_;
  count(true);
  if (!first_archive_.empty()) {
    wrong_bytes_ = wrong_bytes_ || file != first_archive_;
    return;
  }
  // Round trip: every cat of a native archive reads this file back and
  // compares it with the plaintext; the gzip workload serves the .gz, so
  // its compress() output is checked here.
  first_archive_ = std::move(file);
  const ByteSpan archive(first_archive_.data(), first_archive_.size());
  if (w_.gzip) {
    RegistryWindow decode(a_.trace ? &roundtrip_registry_ : nullptr);
    wrong_bytes_ = wrong_bytes_ || gompresso::decompress_bytes(archive) != plain_;
  } else {
    write_file(archive_path_, archive);
    archive_bytes_ = archive.size();
  }
  ratio_ = static_cast<double>(plain_.size()) / static_cast<double>(archive.size());
}

void Bench::measure_compress(double budget_s) {
  const Clock::time_point phase = Clock::now();
  do {
    compress_once();
  } while (seconds_since(phase) < budget_s);
}

double Bench::cat_once(std::size_t threads, bool traced, double* setup_s) {
  gompresso::OpenOptions options;
  options.session.num_threads = threads;
  TracedOps* ops = traced ? &cat_ops_ : nullptr;
  std::uint64_t delivered = 0;
  bool ok = true;
  Rss::trim_heap();  // every cat grows from the same trimmed heap
  double elapsed = 0;
  try {
    RegistryWindow window(ops != nullptr ? &ops->registry : nullptr);
    ScopedSpan root(traced ? &log_ : nullptr, "cat");
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<gompresso::serve::DecodeSession> session =
        traced ? open_traced(archive_path_, options, ops->layers, &log_, root.id())
               : gompresso::open(archive_path_, options);
    const Clock::time_point t_open = Clock::now();
    while (delivered < out_.size()) {
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(gompresso::kStreamCopyChunk, out_.size() - delivered));
      const MutableByteSpan dst(out_.data() + delivered, want);
      const std::size_t n = traced ? read_traced(*session, dst, ops->layers, &log_, root.id())
                                   : session->read(dst);
      if (n == 0) break;
      delivered += n;
    }
    elapsed = seconds_since(t0);
    if (setup_s != nullptr) *setup_s = seconds_between(t0, t_open);
  } catch (const gompresso::Error& e) {
    std::fprintf(stderr, "perfbench: cat failed: %s\n", e.what());
    ok = false;
  }
  ok = ok && delivered == plain_.size();  // a short read is a failure
  if (ok && std::memcmp(out_.data(), plain_.data(), plain_.size()) != 0) {
    wrong_bytes_ = true;
  }
  std::memset(out_.data(), 0xA5, out_.size());  // a stale copy must not pass
  count(ok);
  if (!ok) return 0;
  if (ops != nullptr) {
    ++ops->ops;
    ops->delivered += delivered;
  }
  return static_cast<double>(delivered) / 1e6 / elapsed;
}

void Bench::measure_setup(double budget_s) {
  // open() alone, repeated: on a native archive it takes well under a
  // millisecond, so one sample per cat would leave setup_s at the mercy
  // of one thread start-up. The cats add their own open times.
  const Clock::time_point phase = Clock::now();
  std::vector<double>& samples =
      w_.primary == Primary::kCat ? cat_setup_s_ : server_setup_s_;
  while (samples.size() < kMaxSetups &&
         (samples.size() < kMinSetups || seconds_since(phase) < budget_s)) {
    if (w_.primary == Primary::kRange) {
      double setup = 0;
      start_server(false, &setup);
      samples.push_back(setup);
      continue;
    }
    gompresso::OpenOptions options;
    options.session.num_threads = nproc_;
    try {
      const Clock::time_point t0 = Clock::now();
      std::unique_ptr<gompresso::serve::DecodeSession> session =
          gompresso::open(archive_path_, options);
      samples.push_back(seconds_since(t0));
      count(true);
    } catch (const gompresso::Error& e) {
      std::fprintf(stderr, "perfbench: open failed: %s\n", e.what());
      count(false);
    }
  }
}

void Bench::measure_cat(double budget_s) {
  // peak_rss_mb on the cat workloads: growth of the high-water mark over
  // this round's cats, each started from a trimmed heap; the report takes
  // the largest round, the peak of the whole cat phase.
  Rss::reset_peak();
  const double rss0 = Rss::current_mib();
  const Clock::time_point phase = Clock::now();
  do {
    if (a_.trace) {
      // Untraced and traced reads at nproc threads: the pair gives the
      // tracing overhead, the traced half the layer split.
      cat_mb_s_.push_back(cat_once(nproc_, false, nullptr));
      traced_cat_mb_s_.push_back(cat_once(nproc_, true, nullptr));
      continue;
    }
    // Alternate which thread count goes first, so drift in the host's
    // speed lands on both sides.
    const bool one_first = cat_mb_s_.size() % 2 == 1;
    double setup = 0;
    if (one_first) cat_1t_mb_s_.push_back(cat_once(1, false, nullptr));
    cat_mb_s_.push_back(cat_once(nproc_, false, &setup));
    cat_setup_s_.push_back(setup);
    if (!one_first) cat_1t_mb_s_.push_back(cat_once(1, false, nullptr));
  } while (seconds_since(phase) < budget_s);
  cat_peak_mib_.push_back(Rss::peak_mib() - rss0);
}

std::unique_ptr<gompresso::net::Server> Bench::start_server(bool traced,
                                                            double* setup_s) {
  const std::string path = archive_path_;
  LayerCounters* layers = traced ? &http_ops_.layers : nullptr;
  SpanLog* log = traced ? &log_ : nullptr;
  RegistryWindow window(traced ? &http_ops_.registry : nullptr);
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<gompresso::serve::ByteSource> probe =
      gompresso::serve::open_file_source(path);
  std::shared_ptr<gompresso::serve::ContainerBackend> backend =
      gompresso::open_backend(*probe);
  if (traced) {
    layers->open_backend_ns += static_cast<std::uint64_t>(seconds_since(t0) * 1e9);
    layers->opens += 1;
    backend = std::make_shared<TimedBackend>(std::move(backend), *layers, log, 0);
  }
  gompresso::net::SourceFactory factory = [path, layers, log, this]()
      -> std::unique_ptr<gompresso::serve::ByteSource> {
    std::unique_ptr<gompresso::serve::ByteSource> source =
        gompresso::serve::open_file_source(path);
    if (layers == nullptr) return source;
    return std::make_unique<TimedSource>(std::move(source), *layers, log,
                                         next_conn_tag_.fetch_add(1) + 1);
  };
  gompresso::net::ServeOptions options;
  options.port = 0;
  auto server = std::make_unique<gompresso::net::Server>(std::move(factory),
                                                         std::move(backend), options);
  server->start();
  if (setup_s != nullptr) *setup_s = seconds_since(t0);
  return server;
}

void Bench::tally(const LoadResult& r, bool traced_server) {
  attempted_ += r.ok + r.failed;
  failed_ += r.failed;
  wrong_bytes_ = wrong_bytes_ || r.wrong_bytes;
  (traced_server ? traced_received_ : received_) += r.received_body_bytes;
  if (!traced_server || !a_.trace) return;
  http_ops_.ops += r.ok + r.failed;
  http_ops_.delivered += r.body_bytes;
  net_client_ok_sum_s_ += r.ok_latency_sum_s;
  net_client_ok_ += r.ok;
}

// The HTTP rig lives across the measurement rounds: servers and keep-
// alive connections are set up once, closed-loop windows interleave with
// the compress and cat phases, and the open loop runs at the end.
//
// In traced runs a second server has decorated sources and backend;
// closed-loop windows alternate plain/traced (the overhead pair) and the
// open loop runs on the traced server so request spans carry ids. Every
// request to the traced server falls inside a registry window that
// opens and closes with the decode pools idle, so the decorators' counts
// and the registry's reconcile exactly.
void Bench::start_ranges() {
  const bool peak = !a_.trace && w_.primary == Primary::kRange;
  if (peak) {
    Rss::reset_peak();
    range_peak_mib_ = Rss::current_mib();  // baseline; see closed_window()
  }
  server_ = start_server(false, nullptr);
  std::unique_ptr<gompresso::serve::ByteSource> probe =
      gompresso::serve::open_file_source(archive_path_);
  sampler_ = std::make_unique<OffsetSampler>(*gompresso::open_backend(*probe), kRangeBytes,
                                             kZipfS, derive_seed(a_.seed, 2));
  clients_ = std::make_unique<RangeClients>(server_->port(), plain_, kRangeBytes, nproc_,
                                            nullptr);
  tally(clients_->prime(*sampler_, derive_seed(a_.seed, 3)), false);
  if (!a_.trace) return;
  wait_for_idle_pools();  // the plain server's priming prefetches must not leak in
  traced_server_ = start_server(true, nullptr);
  traced_clients_ = std::make_unique<RangeClients>(traced_server_->port(), plain_,
                                                   kRangeBytes, nproc_, &log_);
  RegistryWindow window(&http_ops_.registry);
  const LoadResult r = traced_clients_->prime(*sampler_, derive_seed(a_.seed, 3));
  wait_for_idle_pools();
  tally(r, true);
}

void Bench::closed_window(double seconds, int round) {
  const std::uint64_t seed = derive_seed(a_.seed, 10 + static_cast<std::uint64_t>(round));
  const LoadResult r = clients_->closed_loop(seconds, *sampler_, seed);
  tally(r, false);
  range_rps_.push_back(static_cast<double>(r.ok) / r.wall_s);
  if (!a_.trace && w_.primary == Primary::kRange && round == 0) {
    // range_http's peak_rss_mb: server start-up, priming and the first
    // window, before any cat or compress can raise the high-water mark.
    range_peak_mib_ = Rss::peak_mib() - range_peak_mib_;
  }
  if (!a_.trace) return;
  wait_for_idle_pools();  // the plain server's prefetches must not leak in
  RegistryWindow window(&http_ops_.registry);
  const LoadResult t = traced_clients_->closed_loop(seconds, *sampler_, seed);
  wait_for_idle_pools();
  tally(t, true);
  traced_rps_.push_back(static_cast<double>(t.ok) / t.wall_s);
}

void Bench::finish_ranges(double open_s) {
  const std::size_t arrivals = std::max(
      kMinOpenLoopRequests, static_cast<std::size_t>(w_.open_loop_rps * open_s));
  const std::vector<Arrival> schedule =
      poisson_schedule(*sampler_, w_.open_loop_rps, arrivals, derive_seed(a_.seed, 4));
  if (!a_.trace) {
    open_loop_ = clients_->open_loop(schedule);
    tally(open_loop_, false);
  } else {
    wait_for_idle_pools();
    RegistryWindow window(&http_ops_.registry);
    open_loop_ = traced_clients_->open_loop(schedule);
    wait_for_idle_pools();
    tally(open_loop_, true);
  }
  reconcile("server bytes_sent == body bytes received", server_->stats().bytes_sent,
            received_);
  if (a_.trace) {
    reconcile("traced server bytes_sent == body bytes received",
              traced_server_->stats().bytes_sent, traced_received_);
    log_.link_requests(traced_clients_->request_marks());
  }
  // Connections close before their servers drain.
  clients_.reset();
  traced_clients_.reset();
}

void Bench::gzip_reference() {
  // `gzip -d` on the same file and host: printed beside cat_mb_s, never
  // a metric of this program. Its output is checked like ours.
  std::vector<double> mb_s;
  for (int i = 0; i < 2; ++i) {
    std::uint64_t at = 0;
    bool same = true;
    const Clock::time_point t0 = Clock::now();
    const int rc = run_to_sink({"gzip", "-d", "-c", archive_path_},
                               [&](const std::uint8_t* p, std::size_t n) {
                                 same = same && at + n <= plain_.size() &&
                                        std::memcmp(p, plain_.data() + at, n) == 0;
                                 at += n;
                               });
    const double s = seconds_since(t0);
    if (rc != 0 || !same || at != plain_.size()) {
      std::printf("reference gzip_d: failed (exit %d)\n", rc);
      return;
    }
    mb_s.push_back(static_cast<double>(at) / 1e6 / s);
  }
  std::printf("reference gzip_d_mb_s %.2f MB/s (gzip -d to a pipe, median of %zu; ungated)\n",
              median(mb_s), mb_s.size());
}

void Bench::report_layers() {
  reconcile("cat bytes delivered == plaintext x traced cats", cat_ops_.delivered,
            cat_ops_.ops * plain_.size());
  for (const auto& [name, ops] : {std::pair<const char*, const TracedOps*>{"cat", &cat_ops_},
                                  {"http", &http_ops_}}) {
    const std::string prefix = std::string(name) + " ";
    reconcile((prefix + "backend blocks == registry serve.blocks_decoded").c_str(),
              ops->layers.backend_blocks.load(),
              static_cast<std::uint64_t>(ops->registry.counter("serve.blocks_decoded")));
    if (!w_.gzip) {  // the gzip backend does not count decode.bytes
      reconcile((prefix + "backend decoded bytes == registry decode.bytes").c_str(),
                ops->layers.backend_bytes.load(),
                static_cast<std::uint64_t>(ops->registry.counter("decode.bytes")));
    }
  }

  MetricList m;
  const bool cat = w_.primary == Primary::kCat;
  const TracedOps& p = cat ? cat_ops_ : http_ops_;
  const double ops = std::max<double>(1.0, static_cast<double>(p.ops));
  const double opens = std::max<double>(1.0, static_cast<double>(p.layers.opens.load()));
  const double delivered = std::max<double>(1.0, static_cast<double>(p.delivered));
  const RegistryTotals& r = p.registry;
  const double backend_bytes = static_cast<double>(p.layers.backend_bytes.load());

  m.add("open.backend_s", static_cast<double>(p.layers.open_backend_ns.load()) * 1e-9 / opens, "s");
  m.add("ingest.boundary_bits_scanned", r.counter("ingest.boundary_bits_scanned") / opens, "count");
  m.add("ingest.chunks_indexed", r.counter("ingest.chunks_indexed") / opens, "count");
  m.add("ingest.chunk_fallbacks", r.counter("ingest.chunk_fallbacks") / opens, "count");
  const double chunks = r.counter("ingest.chunks_indexed");
  m.add("ingest.speculation_hit_share",
        chunks > 0 ? 1.0 - r.counter("ingest.chunk_fallbacks") / chunks : 0.0, "fraction");
  m.add("ingest.bytes_indexed", r.counter("ingest.bytes_indexed") / opens, "bytes");
  m.add("ingest.decode_passes", (r.counter("ingest.bytes_indexed") + backend_bytes) / delivered,
        "x");

  m.add("serve.source.reads", static_cast<double>(p.layers.source_reads.load()) / ops, "count");
  m.add("serve.source.bytes", static_cast<double>(p.layers.source_bytes.load()) / ops, "bytes");
  m.add("serve.source.busy_s", static_cast<double>(p.layers.source_ns.load()) * 1e-9 / ops, "s");
  m.add("serve.backend.blocks", static_cast<double>(p.layers.backend_blocks.load()) / ops, "count");
  m.add("serve.backend.decoded_bytes", backend_bytes / ops, "bytes");
  m.add("serve.backend.busy_s", static_cast<double>(p.layers.backend_ns.load()) * 1e-9 / ops, "s");
  m.add("serve.read_amplification", backend_bytes / delivered, "x");
  // Inside the server the session is not reachable, so its read time
  // comes from the library's own serve.read_latency_us histogram.
  m.add("serve.session.wait_s",
        (cat ? static_cast<double>(p.layers.session_ns.load()) * 1e-9
             : r.hist_sum("serve.read_latency_us") * 1e-6) / ops,
        "s");
  m.add("serve.decode_waits", r.counter("serve.decode_waits") / ops, "count");
  const double fetches = r.counter("serve.cache_hits") + r.counter("serve.demand_decodes") +
                         r.counter("serve.decode_waits");
  m.add("serve.cache_hit_share", fetches > 0 ? r.counter("serve.cache_hits") / fetches : 0.0,
        "fraction");
  m.add("serve.evictions", r.counter("serve.evictions") / ops, "count");
  m.add("serve.pool_peak_mb", static_cast<double>(p.layers.pool_peak_bytes.load()) / kMiB, "MiB");

  // Reads of a gzip archive bypass the native decoder; there the core
  // decode row comes from the one decompress_bytes() round trip of the
  // workload's own compress() output, so it is still a measurement.
  const RegistryTotals& core = w_.gzip ? roundtrip_registry_ : r;
  const double decodes = w_.gzip ? 1.0 : ops;
  m.add("core.entropy_s", core.hist_sum("decode.entropy_us") * 1e-6 / decodes, "s");
  m.add("core.resolve_s", core.hist_sum("decode.resolve_us") * 1e-6 / decodes, "s");
  m.add("core.resolve_sharded_blocks", core.counter("resolve.sharded_blocks") / decodes,
        "count");
  m.add("core.resolve_deferrals", core.counter("resolve.deferrals") / decodes, "count");
  const double compresses = std::max<double>(1.0, static_cast<double>(traced_compresses_));
  m.add("core.compress_parse_s", compress_registry_.hist_sum("compress.parse_us") * 1e-6 / compresses, "s");
  m.add("core.compress_emit_s", compress_registry_.hist_sum("compress.emit_us") * 1e-6 / compresses, "s");

  std::vector<double> crc_s;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    volatile std::uint32_t sink = gompresso::crc32(ByteSpan(plain_.data(), plain_.size()));
    (void)sink;
    crc_s.push_back(seconds_since(t0));
  }
  m.add("util.crc32_s", median(crc_s), "s");

  const RegistryTotals& net = http_ops_.registry;
  m.add("net.queue_wait_p99_ms", net.hist_quantile("net.queue_wait_us", 0.99) / 1e3, "ms");
  m.add("net.request_p99_ms", net.hist_quantile("net.request_us", 0.99) / 1e3, "ms");
  const double served = std::max(1.0, net.counter("net.responses_2xx"));
  const double server_ms =
      (net.hist_sum("net.queue_wait_us") + net.hist_sum("net.request_us")) / 1e3 / served;
  const double client_ms = net_client_ok_sum_s_ * 1e3 / std::max<double>(1, net_client_ok_);
  m.add("net.transport_mean_ms", client_ms - server_ms, "ms");
  m.add("net.shed_503", static_cast<double>(traced_server_->stats().shed_503), "count");
  m.add("loadgen.late_p99_ms", quantile(open_loop_.late_s, 0.99) * 1e3, "ms");
  const double untraced = median(cat ? cat_mb_s_ : range_rps_);
  const double traced = median(cat ? traced_cat_mb_s_ : traced_rps_);
  m.add("trace.overhead_share", untraced > 0 ? 1.0 - traced / untraced : 0.0, "fraction");

  const std::vector<Span> spans = log_.spans();
  const double cats = std::max<double>(1.0, static_cast<double>(cat_ops_.ops));
  const double requests = std::max<double>(1.0, static_cast<double>(http_ops_.ops));
  const std::map<std::string, double> cat_self = self_seconds(spans, "cat");
  const std::map<std::string, double> http_self = self_seconds(spans, "http.request");
  const std::map<std::string, double> compress_self = self_seconds(spans, "compress");
  auto get = [](const std::map<std::string, double>& s, const char* k) {
    const auto it = s.find(k);
    return it == s.end() ? 0.0 : it->second;
  };
  const std::map<std::string, double>& primary_self = cat ? cat_self : http_self;
  m.add("span.compress.self_s", get(compress_self, "compress") / compresses, "s");
  m.add("span.cat.self_s", get(cat_self, "cat") / cats, "s");
  m.add("span.open.self_s", get(cat_self, "open") / cats, "s");
  m.add("span.session_read.self_s", get(cat_self, "session.read") / cats, "s");
  m.add("span.http_request.self_s", get(http_self, "http.request") / requests, "s");
  m.add("span.decode_block.self_s", get(primary_self, "backend.decode_block") / ops, "s");
  m.add("span.source_read.self_s", get(primary_self, "source.read_at") / ops, "s");

  for (const Metric& x : m.items()) {
    std::printf("layer %-32s %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  if (!a_.trace_out.empty()) {
    if (!log_.write_chrome_trace(a_.trace_out)) {
      throw gompresso::Error("perfbench: cannot write " + a_.trace_out);
    }
    std::printf("trace: %zu spans -> %s\n", spans.size(), a_.trace_out.c_str());
  }
  std::fflush(stdout);
  std::puts(result_json(!wrong_bytes_, attempted_, failed_, m).c_str());
}

int Bench::report_end_to_end() {
  MetricList m;
  const bool cat = w_.primary == Primary::kCat;
  m.add("setup_s", median(cat ? cat_setup_s_ : server_setup_s_), "s");
  m.add("cat_mb_s", median(cat_mb_s_), "MB/s");
  m.add("cat_1t_mb_s", median(cat_1t_mb_s_), "MB/s");
  m.add("compress_mb_s", median(compress_mb_s_), "MB/s");
  m.add("ratio", ratio_, "x");
  m.add("peak_rss_mb",
        cat ? *std::max_element(cat_peak_mib_.begin(), cat_peak_mib_.end()) : range_peak_mib_,
        "MiB");
  m.add("range_rps", median(range_rps_), "req/s");
  for (const Metric& x : m.items()) {
    std::printf("%-16s %12.4f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  // Printed, not gated: on a shared VM the open-loop latencies swing with
  // the host's load far beyond any useful bound (README.md).
  std::printf("%-16s %12.4f ms (ungated)\n", "range_p50_ms",
              quantile_band(open_loop_.latency_s, 0.50) * 1e3);
  std::printf("%-16s %12.4f ms (ungated)\n", "range_p99_ms",
              quantile_band(open_loop_.latency_s, 0.99) * 1e3);
  std::printf("%-16s %12.6f fraction (%" PRIu64 " of %" PRIu64 " operations failed; ungated)\n",
              "failed_share",
              attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_)
                             : 0.0,
              failed_, attempted_);
  auto spread = [](const char* what, const std::vector<double>& v) {
    if (v.empty()) return;
    std::printf("  %-12s n=%-4zu min %.6g max %.6g\n", what, v.size(),
                *std::min_element(v.begin(), v.end()), *std::max_element(v.begin(), v.end()));
  };
  std::printf("samples (medians reported):\n");
  spread("setup", cat ? cat_setup_s_ : server_setup_s_);
  spread("compress", compress_mb_s_);
  spread("cat", cat_mb_s_);
  spread("cat_1t", cat_1t_mb_s_);
  spread("peak_rss", cat_peak_mib_);
  spread("range_rps", range_rps_);
  std::printf("  %-12s n=%-4zu (p99 has %zu samples beyond it)\n", "open_loop",
              open_loop_.latency_s.size(), open_loop_.latency_s.size() / 100);
  std::fflush(stdout);
  std::puts(result_json(!wrong_bytes_, attempted_, failed_, m).c_str());
  return wrong_bytes_ ? 1 : 0;
}

int Bench::run() {
  const Clock::time_point t_setup = Clock::now();
  prepare();
  std::printf("workload %s seed %" PRIu64 ": %.0f MiB %s, %s, %zu threads (setup %.1fs)\n",
              w_.name, a_.seed, static_cast<double>(plain_.size()) / kMiB,
              w_.matrix ? "matrix" : "wikipedia", w_.gzip ? "gzip -6" : "native",
              nproc_, seconds_since(t_setup));
  if (w_.gzip) {
    std::printf("reference gzip_ratio %.4f x (plaintext / .gz bytes; ungated)\n",
                static_cast<double>(plain_.size()) / static_cast<double>(archive_bytes_));
  }

  // Shares of --seconds: compress 0.1, set-up 0.05, cat 0.25, closed
  // loop 0.1, open loop 0.5 (or 1000 arrivals, if that takes longer).
  // The first three interleave over kRounds rounds, so a slow spell of
  // the host lands on every metric rather than on one phase.
  const double T = a_.seconds;
  if (!a_.trace) measure_setup(0.05 * T);
  start_ranges();
  for (int round = 0; round < kRounds; ++round) {
    closed_window(0.1 * T / kRounds, round);
    if (round > 0) measure_compress(0.1 * T / kRounds);
    measure_cat(0.25 * T / kRounds);
  }
  finish_ranges(0.5 * T);
  if (w_.gzip && !a_.trace) gzip_reference();

  if (wrong_bytes_) std::printf("WRONG BYTES: an output differs from the plaintext\n");
  if (a_.trace) {
    report_layers();
    return wrong_bytes_ ? 1 : 0;
  }
  return report_end_to_end();
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.work_dir.empty() && a.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--trace-out FILE]\n");
    return 2;
  }
  for (const Workload& w : kWorkloads) {
    if (args.workload != w.name) continue;
    try {
      return Bench(w, args).run();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return 1;
    }
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
