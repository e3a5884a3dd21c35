// The buffered socket reader under every read shape the server and the
// client produce: many small frames in one kernel read, reads that span
// a refill, reads larger than the buffer (which land in place), and the
// two end-of-stream cases — a clean close between frames and a close in
// the middle of one.

#include "server/socket_io.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace vaq {
namespace {

/// A connected socket pair whose far end a helper thread fills with
/// `bytes`, then closes.
class FedSocket {
 public:
  explicit FedSocket(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::runtime_error("socketpair");
    }
    read_fd_ = fds[0];
    writer_ = std::thread([this, fd = fds[1]] {
      WriteAll(fd, bytes_.data(), bytes_.size());
      ::close(fd);
    });
  }
  ~FedSocket() {
    writer_.join();
    ::close(read_fd_);
  }
  int fd() const { return read_fd_; }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  int read_fd_ = -1;
  std::thread writer_;
};

std::vector<std::uint8_t> Pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i * 131u + i / 251u) & 0xFF);
  }
  return v;
}

TEST(SocketIoTest, MixedReadSizesReassembleTheStreamExactly) {
  constexpr std::size_t kBuf = BufferedReader::kBufferBytes;
  // Small, refill-spanning, exactly-one-buffer and larger-than-buffer
  // reads, in an order that leaves partial buffers behind each one.
  const std::vector<std::size_t> sizes = {
      12, 8000, 1, kBuf - 3, 12, kBuf, 5, 3 * kBuf + 17, 12, 40000, 7};
  const std::size_t total =
      std::accumulate(sizes.begin(), sizes.end(), std::size_t{0});
  FedSocket sock(Pattern(total));
  BufferedReader reader(sock.fd());
  std::size_t at = 0;
  for (const std::size_t n : sizes) {
    std::vector<std::uint8_t> got(n);
    ASSERT_TRUE(reader.ReadExact(got.data(), n)) << "read of " << n;
    ASSERT_TRUE(std::equal(got.begin(), got.end(),
                           sock.bytes().begin() + static_cast<long>(at)))
        << "bytes diverged in the read of " << n << " at offset " << at;
    at += n;
  }
  // The far end closed at a read boundary: a clean end, not an error.
  std::uint8_t byte = 0;
  EXPECT_FALSE(reader.ReadExact(&byte, 1));
}

TEST(SocketIoTest, CloseInsideAReadThrows) {
  FedSocket sock(Pattern(100));
  BufferedReader reader(sock.fd());
  std::vector<std::uint8_t> got(60);
  ASSERT_TRUE(reader.ReadExact(got.data(), got.size()));
  // 40 bytes remain, 60 are asked for: the stream ended mid-frame.
  EXPECT_THROW(reader.ReadExact(got.data(), got.size()), std::runtime_error);
}

TEST(SocketIoTest, ZeroByteReadNeedsNoData) {
  FedSocket sock({});
  BufferedReader reader(sock.fd());
  EXPECT_TRUE(reader.ReadExact(nullptr, 0));
  std::uint8_t byte = 0;
  EXPECT_FALSE(reader.ReadExact(&byte, 1));
}

}  // namespace
}  // namespace vaq
