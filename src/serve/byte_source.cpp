#include "serve/byte_source.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace gompresso::serve {
namespace {

class FileSource final : public ByteSource {
 public:
  explicit FileSource(const std::string& path) {
    // Checked before open(), which would wait for a FIFO's writer. A
    // pipe's st_size 0 once read as an empty container.
    struct stat st{};
    check_format(::stat(path.c_str(), &st) != 0 || S_ISREG(st.st_mode),
                 "serve: input is not a regular file (a pipe or device has no "
                 "random access; only the streaming decoder reads one)");
    fd_ = ::open(path.c_str(), O_RDONLY);
    check_io(fd_ >= 0, "serve: cannot open input file");
    if (::fstat(fd_, &st) != 0) {
      ::close(fd_);
      fd_ = -1;
      throw IoError("serve: cannot stat input file");
    }
    size_ = static_cast<std::uint64_t>(st.st_size);
  }

  ~FileSource() override {
    if (fd_ >= 0) ::close(fd_);
  }

  std::uint64_t size() const override { return size_; }

  void read_at(std::uint64_t offset, MutableByteSpan dst) override {
    check_format(offset <= size_ && dst.size() <= size_ - offset,
                 "serve: read past end of file");
    std::size_t got = 0;
    while (got < dst.size()) {
      const ::ssize_t n =
          ::pread(fd_, dst.data() + got, dst.size() - got,
                  static_cast<::off_t>(offset + got));
      if (n < 0 && errno == EINTR) continue;
      check_io(n >= 0, "serve: file read failed");
      // pread returning 0 inside the sized extent means the file shrank
      // under us (truncated or replaced after open) — an I/O-class
      // failure of the storage contract, not of the data format.
      check_io(n > 0, "serve: file truncated after open (unexpected EOF)");
      got += static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_ = -1;
  std::uint64_t size_ = 0;
};

class MemorySource final : public ByteSource {
 public:
  explicit MemorySource(ByteSpan data) : data_(data) {}

  std::uint64_t size() const override { return data_.size(); }

  void read_at(std::uint64_t offset, MutableByteSpan dst) override {
    check_format(offset <= data_.size() && dst.size() <= data_.size() - offset,
                 "serve: read past end of input");
    std::memcpy(dst.data(), data_.data() + static_cast<std::size_t>(offset),
                dst.size());
  }

 private:
  ByteSpan data_;
};

}  // namespace

std::unique_ptr<ByteSource> open_file_source(const std::string& path) {
  return std::make_unique<FileSource>(path);
}

std::unique_ptr<ByteSource> memory_source(ByteSpan data) {
  return std::make_unique<MemorySource>(data);
}

}  // namespace gompresso::serve
