#include "measure.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

extern char** environ;

namespace perfbench {
namespace {

double status_field_mib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      std::istringstream fields(line.substr(key.size()));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

/// posix_spawnp with stdin on /dev/null and stdout on `stdout_fd`.
int spawn_with_stdout(const std::vector<std::string>& argv, int stdout_fd,
                      pid_t& pid) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, stdout_fd, 1);
  const int rc = posix_spawnp(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc;
}

int wait_child(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double quantile_band(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const auto rank = [&](double p) {
    const double r = std::ceil(std::clamp(p, 0.0, 1.0) * n);
    return std::min(v.size() - 1, r < 1 ? std::size_t{0} : static_cast<std::size_t>(r) - 1);
  };
  const std::size_t lo = rank(q - 0.005);
  const std::size_t hi = rank(q + 0.005);
  double sum = 0;
  for (std::size_t i = lo; i <= hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo + 1);
}

void Rss::trim_heap() { ::malloc_trim(0); }

void Rss::reset_peak() {
  trim_heap();
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double Rss::current_mib() { return status_field_mib("VmRSS"); }
double Rss::peak_mib() { return status_field_mib("VmHWM"); }

int run_to_file(const std::vector<std::string>& argv,
                const std::string& stdout_path) {
  const int fd = ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return -1;
  pid_t pid = -1;
  const int rc = spawn_with_stdout(argv, fd, pid);
  ::close(fd);
  return rc == 0 ? wait_child(pid) : -1;
}

int run_to_sink(const std::vector<std::string>& argv,
                const std::function<void(const std::uint8_t*, std::size_t)>& sink) {
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  pid_t pid = -1;
  const int rc = spawn_with_stdout(argv, fds[1], pid);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    return -1;
  }
  std::vector<std::uint8_t> buf(1 << 20);
  while (true) {
    const ssize_t n = ::read(fds[0], buf.data(), buf.size());
    if (n > 0) {
      sink(buf.data(), static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  return wait_child(pid);
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricList& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  char buf[160];
  std::snprintf(buf, sizeof buf, ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {", attempted, failed);
  out += buf;
  bool first = true;
  for (const Metric& m : metrics.items()) {
    // %.17g keeps every digit. JSON has no inf: a latency percentile
    // that lands on failed requests (+inf) is written as a huge finite
    // number, which reads as the regression it is.
    const double v = std::isfinite(m.value) ? m.value : 1e300;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
