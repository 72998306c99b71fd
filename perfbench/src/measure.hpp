// Measurement primitives shared by every workload: wall clock, order
// statistics, resident-memory probes, child processes, and the metric
// list the harness prints.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t) {
  return seconds_between(t, Clock::now());
}

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty vector.
double median(std::vector<double> v);

/// Nearest-rank quantile, 0 < q <= 1: the smallest sample with at least
/// q of the samples at or below it. +inf samples (failed requests) sort
/// last, so a failure counts as missing every latency limit.
double quantile(std::vector<double> v, double q);

/// Quantile q estimated as the mean of the order statistics between the
/// (q - 0.005) and (q + 0.005) quantiles: a p99 from a single order
/// statistic swings with the few samples around it, the band's mean much
/// less. +inf samples inside the band make the result +inf.
double quantile_band(std::vector<double> v, double q);

/// Resident-memory probes over /proc/self.
struct Rss {
  /// Hands freed heap pages back to the kernel, so a measurement starts
  /// from the same baseline whatever ran before it.
  static void trim_heap();
  /// trim_heap(), then resets VmHWM to the current VmRSS.
  static void reset_peak();
  static double current_mib();
  static double peak_mib();
};

/// Runs `argv` (searched on PATH) with stdin closed and stdout sent to
/// `stdout_path`, and waits for it. Returns the exit status, or -1 when
/// the program could not be started or did not exit normally.
int run_to_file(const std::vector<std::string>& argv,
                const std::string& stdout_path);

/// Runs `argv` with stdout on a pipe and hands every chunk to `sink` as
/// it arrives; waits for the child. Returns the exit status as
/// run_to_file() does.
int run_to_sink(const std::vector<std::string>& argv,
                const std::function<void(const std::uint8_t*, std::size_t)>& sink);

/// One named value of the final report.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Metrics in the order they are printed.
class MetricList {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricList& metrics);

}  // namespace perfbench
