// Regression tests for the CLI binary: SIGINT mid-`gomp cat --trace`
// must still finish the trace file and exit 130, SIGTERM against
// `gomp serve` must drain gracefully and exit 0, and `gomp d` must read
// every container `open()` reads, from a pipe too. The tests fork/exec
// the real binary (a sibling of this test executable) so the handlers,
// the TraceGuard teardown order, and the exit codes are exercised
// exactly as a user would hit them.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/gompresso.hpp"
#include "datagen/datasets.hpp"
#include "net/http.hpp"

namespace gompresso {
namespace {

std::string cli_binary() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "./gomp_cli";
  std::string self(buf, static_cast<std::size_t>(n));
  const std::size_t slash = self.rfind('/');
  return self.substr(0, slash + 1) + "gomp_cli";
}

std::string temp_path(const char* tag) {
  return "/tmp/gomp_sig_" + std::to_string(getpid()) + "_" + tag;
}

void write_archive(const std::string& path, std::size_t input_size) {
  const Bytes input = datagen::wikipedia(input_size);
  CompressOptions opt;
  opt.block_size = 16 * 1024;
  const Bytes file = compress(input, opt);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(file.data()),
            static_cast<std::streamsize>(file.size()));
  ASSERT_TRUE(out.good());
}

/// fork/exec the CLI with stdout (and stderr) redirected to
/// `stdout_fd` (`stderr_fd`), or inherited when -1. Returns the child
/// pid.
pid_t spawn_cli(const std::vector<std::string>& args, int stdout_fd,
                int stderr_fd = -1) {
  const std::string bin = cli_binary();
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(bin.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid == 0) {
    if (stdout_fd >= 0) {
      dup2(stdout_fd, STDOUT_FILENO);
      close(stdout_fd);
    }
    if (stderr_fd >= 0) {
      dup2(stderr_fd, STDERR_FILENO);
      close(stderr_fd);
    }
    execv(bin.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

/// waitpid with a deadline; SIGKILLs and fails the test on a hang.
int wait_for_exit(pid_t pid, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  int status = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const pid_t got = waitpid(pid, &status, WNOHANG);
    if (got == pid) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid, SIGKILL);
  waitpid(pid, &status, 0);
  ADD_FAILURE() << "child did not exit within " << timeout_ms << " ms";
  return status;
}

TEST(CliSignals, SigintDuringTracedCatFinishesTheTraceAndExits130) {
  const std::string archive = temp_path("cat.gmpz");
  const std::string output = temp_path("cat.out");
  const std::string trace = temp_path("cat_trace.json");
  write_archive(archive, 800000);  // ~50 blocks

  // 8 ms of injected latency per source read keeps the cat alive for
  // hundreds of milliseconds — plenty of window to land the signal.
  const pid_t pid = spawn_cli(
      {"cat", archive, output, "--trace", trace, "--inject-faults",
       "latency=8000"},
      -1);
  ASSERT_GT(pid, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_EQ(kill(pid, SIGINT), 0);

  const int status = wait_for_exit(pid, 15000);
  ASSERT_TRUE(WIFEXITED(status)) << "killed by signal, handler did not run";
  EXPECT_EQ(WEXITSTATUS(status), 130);

  // The interrupted run still flushed a complete trace: non-empty JSON
  // that terminates properly instead of an abandoned half-written file.
  std::ifstream in(trace);
  ASSERT_TRUE(in.good()) << "trace file missing";
  std::stringstream ss;
  ss << in.rdbuf();
  std::string body = ss.str();
  while (!body.empty() && (body.back() == '\n' || body.back() == ' ')) {
    body.pop_back();
  }
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.front(), '{');
  EXPECT_EQ(body.back(), '}');
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);

  std::remove(archive.c_str());
  std::remove(output.c_str());
  std::remove(trace.c_str());
}

TEST(CliSignals, SigtermDuringServeDrainsAndExitsZero) {
  const std::string archive = temp_path("serve.gmpz");
  write_archive(archive, 300000);

  int pipe_fds[2];
  ASSERT_EQ(pipe(pipe_fds), 0);
  const pid_t pid =
      spawn_cli({"serve", archive, "--port", "0", "--workers", "2"},
                pipe_fds[1]);
  ASSERT_GT(pid, 0);
  close(pipe_fds[1]);

  // The daemon prints a parseable banner once the listener is bound:
  //   gomp serve: listening on 127.0.0.1:PORT (...)
  std::string banner;
  char c;
  while (banner.find('\n') == std::string::npos &&
         read(pipe_fds[0], &c, 1) == 1) {
    banner.push_back(c);
  }
  close(pipe_fds[0]);
  const std::string key = "listening on 127.0.0.1:";
  const std::size_t at = banner.find(key);
  ASSERT_NE(at, std::string::npos) << "banner: " << banner;
  const auto port = static_cast<std::uint16_t>(
      std::stoul(banner.substr(at + key.size())));
  ASSERT_GT(port, 0);

  // It really serves before the signal lands.
  net::HttpClient client(port);
  net::HttpResponse resp;
  ASSERT_TRUE(client.get("/healthz", {}, resp));
  EXPECT_EQ(resp.status, 200);

  ASSERT_EQ(kill(pid, SIGTERM), 0);
  const int status = wait_for_exit(pid, 15000);
  ASSERT_TRUE(WIFEXITED(status)) << "killed by signal, no graceful drain";
  EXPECT_EQ(WEXITSTATUS(status), 0);

  std::remove(archive.c_str());
}

Bytes read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

/// Runs `gomp d` to completion (stdout discarded); returns the exit code.
int run_decompress(const std::vector<std::string>& args) {
  std::vector<std::string> argv = {"d"};
  argv.insert(argv.end(), args.begin(), args.end());
  const int devnull = ::open("/dev/null", O_WRONLY);
  const pid_t pid = spawn_cli(argv, devnull);
  close(devnull);
  if (pid <= 0) return -1;
  const int status = wait_for_exit(pid, 60000);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CliDecompress, ReadsGzipAndGmpsInput) {
  if (std::system("gzip --version >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "no gzip binary";
  }
  const std::string raw = temp_path("d.raw");
  const std::string gz = raw + ".gz";
  const std::string gmps = temp_path("d.gmps");
  const std::string gmps_no_de = temp_path("d_no_de.gmps");
  const std::string back = temp_path("d.back");
  const Bytes input = datagen::wikipedia(300000);
  {
    std::ofstream out(raw, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(input.data()),
              static_cast<std::streamsize>(input.size()));
    ASSERT_TRUE(out.good());
  }
  ASSERT_EQ(std::system(("gzip -6 -n -c " + raw + " > " + gz).c_str()), 0);
  CompressOptions opt;
  opt.block_size = 32 * 1024;
  ASSERT_EQ(compress_file(raw, gmps, opt, 128 * 1024), input.size());
  opt.dependency_elimination = false;
  ASSERT_EQ(compress_file(raw, gmps_no_de, opt, 128 * 1024), input.size());

  for (const std::string& in : {gz, gmps}) {
    SCOPED_TRACE(in);
    std::remove(back.c_str());
    ASSERT_EQ(run_decompress({in, back}), 0);
    EXPECT_EQ(read_bytes(back), input);
  }
  // --strategy reaches the session path: honoured on every segment, and
  // an explicit DE request on a non-DE stream is an error.
  std::remove(back.c_str());
  ASSERT_EQ(run_decompress({"--strategy", "mrr", gmps_no_de, back}), 0);
  EXPECT_EQ(read_bytes(back), input);
  EXPECT_EQ(run_decompress({"--strategy", "de", gmps_no_de, back}), 1);

  for (const std::string& path : {raw, gz, gmps, gmps_no_de, back}) {
    std::remove(path.c_str());
  }
}

std::string read_text(const std::string& path) {
  const Bytes b = read_bytes(path);
  return std::string(b.begin(), b.end());
}

TEST(CliDecompress, ReadsAFifoThatSessionVerbsReject) {
  const std::string fifo = temp_path("d.fifo");
  const std::string back = temp_path("fifo.back");
  const std::string out_log = temp_path("fifo.stdout");
  const std::string err_log = temp_path("fifo.stderr");
  const Bytes input = datagen::wikipedia(300000);
  CompressOptions opt;
  opt.block_size = 16 * 1024;
  const Bytes archive = compress(input, opt);
  ASSERT_EQ(mkfifo(fifo.c_str(), 0600), 0);
  // The child may exit before reading everything; a write must then
  // fail instead of killing this process.
  const auto old_sigpipe = signal(SIGPIPE, SIG_IGN);

  // gomp d reads the FIFO forward: byte-equal output, no compressed size.
  const int out_fd = ::open(out_log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  const pid_t pid = spawn_cli({"d", fifo, back}, out_fd);
  close(out_fd);
  ASSERT_GT(pid, 0);
  // Open the writing end once the child has opened the reading end (a
  // non-blocking open fails with ENXIO until then), then write blocking.
  int wfd = -1;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (wfd < 0 && std::chrono::steady_clock::now() < deadline) {
    wfd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
    if (wfd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(wfd, 0) << "gomp d never opened the FIFO";
  ASSERT_EQ(fcntl(wfd, F_SETFL, fcntl(wfd, F_GETFL) & ~O_NONBLOCK), 0);
  std::size_t sent = 0;
  while (sent < archive.size()) {
    const ssize_t n = write(wfd, archive.data() + sent, archive.size() - sent);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  close(wfd);
  EXPECT_EQ(sent, archive.size());
  const int status = wait_for_exit(pid, 60000);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(read_bytes(back), input);
  EXPECT_EQ(read_text(out_log).rfind(fifo + ": -> " + std::to_string(input.size()) +
                                         " bytes",
                                     0),
            0u)
      << read_text(out_log);

  // A session verb needs random access: a typed error naming the cause,
  // not "unrecognized container format", and no wait for a writer.
  const int err_fd = ::open(err_log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  const int devnull = ::open("/dev/null", O_WRONLY);
  const pid_t cat = spawn_cli({"cat", fifo, back}, devnull, err_fd);
  close(devnull);
  close(err_fd);
  ASSERT_GT(cat, 0);
  const int cat_status = wait_for_exit(cat, 15000);
  ASSERT_TRUE(WIFEXITED(cat_status));
  EXPECT_EQ(WEXITSTATUS(cat_status), 1);
  EXPECT_NE(read_text(err_log).find("not a regular file"), std::string::npos)
      << read_text(err_log);

  signal(SIGPIPE, old_sigpipe);
  for (const std::string& path : {fifo, back, out_log, err_log}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace gompresso
