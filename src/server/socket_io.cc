#include "server/socket_io.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace vaq {

BufferedReader::BufferedReader(int fd)
    : fd_(fd), buf_(std::make_unique<std::uint8_t[]>(kBufferBytes)) {}

bool BufferedReader::ReadExact(std::uint8_t* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    if (begin_ < end_) {
      const std::size_t take = std::min(n - got, end_ - begin_);
      std::memcpy(out + got, buf_.get() + begin_, take);
      begin_ += take;
      got += take;
      continue;
    }
    // The buffer is drained. A remainder of a buffer or more is read in
    // place; anything smaller refills the buffer with all that is ready.
    const bool direct = n - got >= kBufferBytes;
    const ssize_t r = direct ? ::read(fd_, out + got, n - got)
                             : ::read(fd_, buf_.get(), kBufferBytes);
    if (r > 0) {
      if (direct) {
        got += static_cast<std::size_t>(r);
      } else {
        begin_ = 0;
        end_ = static_cast<std::size_t>(r);
      }
      continue;
    }
    if (r == 0) {
      if (got == 0) return false;  // Clean close between frames.
      throw std::runtime_error("connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    throw std::runtime_error(std::string("read failed: ") +
                             std::strerror(errno));
  }
  return true;
}

void WriteAll(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    throw std::runtime_error(std::string("write failed: ") +
                             std::strerror(errno));
  }
}

}  // namespace vaq
