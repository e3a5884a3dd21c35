#ifndef VAQ_SERVER_SOCKET_IO_H_
#define VAQ_SERVER_SOCKET_IO_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace vaq {

/// Reads one connected socket through a fixed buffer, the only read path
/// of both `QueryServer` connections and `QueryClient`. Each `read()`
/// takes whatever the kernel already holds, up to the buffer, so a whole
/// reply — several id frames and the stats frame — or a request's header
/// and payload costs about one system call instead of two per frame.
/// Reads of at least a buffer's size bypass it and land in place.
///
/// Not thread-safe; one reader per connection, used by the thread that
/// owns the connection. Does not own `fd`.
class BufferedReader {
 public:
  /// 64 KiB holds a typical reply whole (about 20 KB for ~2500 ids).
  static constexpr std::size_t kBufferBytes = 64 * 1024;

  explicit BufferedReader(int fd);

  BufferedReader(const BufferedReader&) = delete;
  BufferedReader& operator=(const BufferedReader&) = delete;

  /// Copies exactly `n` bytes to `out`. Returns false on an orderly EOF
  /// before the first of them (the peer closed between frames); throws
  /// `std::runtime_error` on an EOF after the first byte or a read error.
  /// EINTR retries.
  bool ReadExact(std::uint8_t* out, std::size_t n);

 private:
  int fd_;
  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t begin_ = 0;  // Unconsumed bytes are buf_[begin_, end_).
  std::size_t end_ = 0;
};

/// Writes all `n` bytes to `fd`; EINTR retries, any other failure throws
/// `std::runtime_error`. MSG_NOSIGNAL: a peer that vanished mid-write is
/// this connection's problem (EPIPE, a typed exception), never a
/// process-wide SIGPIPE.
void WriteAll(int fd, const std::uint8_t* data, std::size_t n);

}  // namespace vaq

#endif  // VAQ_SERVER_SOCKET_IO_H_
