#include "server/client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

#include "server/socket_io.h"

namespace vaq {

namespace {

/// Opens a TCP connection to 127.0.0.1:`port`. Throws `std::system_error`.
int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::system_error(errno, std::generic_category(), "socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(), "connect");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

QueryClient::QueryClient(std::uint16_t port)
    : fd_(ConnectLoopback(port)), reader_(fd_) {}

QueryClient::~QueryClient() { ::close(fd_); }

void QueryClient::SendFrame(Opcode opcode,
                            std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame;
  AppendFrame(frame, opcode, payload);
  WriteAll(fd_, frame.data(), frame.size());
}

void QueryClient::ReadExact(std::uint8_t* out, std::size_t n) {
  if (!reader_.ReadExact(out, n)) {
    throw std::runtime_error("server closed the connection");
  }
}

QueryClient::Frame QueryClient::ReadFrame() {
  std::uint8_t header[kFrameHeaderBytes];
  ReadExact(header, sizeof(header));
  // The client holds the server to the same framing discipline the
  // server holds clients to (throws ProtocolError on violations). The
  // length is validated before the payload buffer grows to it.
  const FrameHeader fh = DecodeFrameHeader({header, sizeof(header)});
  if (!IsResponseOpcode(static_cast<std::uint8_t>(fh.opcode))) {
    throw ProtocolError(ProtocolError::Kind::kBadOpcode,
                        "request opcode in a response frame");
  }
  payload_.resize(fh.payload_len);
  if (fh.payload_len > 0) ReadExact(payload_.data(), payload_.size());
  return Frame{fh.opcode, payload_};
}

QueryClient::Frame QueryClient::Expect(Opcode expected) {
  Frame frame = ReadFrame();
  if (frame.opcode == Opcode::kError) {
    const WireError e = DecodeErrorPayload(frame.payload);
    throw ServerError(e.code, e.detail);
  }
  if (frame.opcode != expected &&
      !(expected == Opcode::kQueryDone &&
        frame.opcode == Opcode::kResultIds)) {
    throw std::runtime_error("unexpected response opcode");
  }
  return frame;
}

QueryClient::QueryOutcome QueryClient::Query(const WireQueryRequest& req) {
  SendFrame(Opcode::kQuery, EncodeQueryRequest(req));
  QueryOutcome outcome;
  for (;;) {
    Frame frame = Expect(Opcode::kQueryDone);
    if (frame.opcode == Opcode::kResultIds) {
      DecodeResultIdsPayload(frame.payload, outcome.ids);
      continue;
    }
    outcome.stats = DecodeQueryStatsPayload(frame.payload);
    break;
  }
  if (outcome.stats.results != outcome.ids.size()) {
    throw std::runtime_error(
        "result count mismatch between id frames and the summary");
  }
  return outcome;
}

QueryClient::QueryOutcome QueryClient::Query(std::string_view wkt) {
  WireQueryRequest req;
  req.wkt = std::string(wkt);
  return Query(req);
}

WireMutationResult QueryClient::Insert(double x, double y) {
  SendFrame(Opcode::kInsert, EncodeInsertRequest(x, y));
  return DecodeMutationPayload(Expect(Opcode::kMutated).payload);
}

WireMutationResult QueryClient::Erase(PointId id) {
  SendFrame(Opcode::kErase, EncodeEraseRequest(id));
  return DecodeMutationPayload(Expect(Opcode::kMutated).payload);
}

WireMutationResult QueryClient::Compact() {
  SendFrame(Opcode::kCompact, {});
  return DecodeMutationPayload(Expect(Opcode::kMutated).payload);
}

WireServerStats QueryClient::Stats() {
  SendFrame(Opcode::kStats, {});
  return DecodeServerStatsPayload(Expect(Opcode::kStatsReply).payload);
}

bool QueryClient::Ping() {
  const std::uint8_t nonce[4] = {0xde, 0xad, 0xbe, 0xef};
  SendFrame(Opcode::kPing, nonce);
  const Frame frame = Expect(Opcode::kPong);
  return frame.payload.size() == sizeof(nonce) &&
         std::memcmp(frame.payload.data(), nonce, sizeof(nonce)) == 0;
}

std::vector<std::uint8_t> QueryClient::RoundTripRaw(
    std::span<const std::uint8_t> bytes) {
  WriteAll(fd_, bytes.data(), bytes.size());
  std::vector<std::uint8_t> out(kFrameHeaderBytes);
  ReadExact(out.data(), kFrameHeaderBytes);
  const FrameHeader fh = DecodeFrameHeader({out.data(), kFrameHeaderBytes});
  out.resize(kFrameHeaderBytes + fh.payload_len);
  if (fh.payload_len > 0) {
    ReadExact(out.data() + kFrameHeaderBytes, fh.payload_len);
  }
  return out;
}

}  // namespace vaq
