#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace tablegan {
namespace serve {

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::Connect(const std::string& host, int port) {
  Close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const Status st = Status::IOError("connect " + host + ":" +
                                      std::to_string(port) + ": " +
                                      std::strerror(errno));
    ::close(fd);
    return st;
  }
  // Frames go out whole (WriteFrame); see Server::AcceptLoop.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::OK();
}

Result<SampleResponse> Client::Call(const SampleRequest& req) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  Status sent = WriteFrame(fd_, EncodeRequest(req));
  if (!sent.ok()) {
    // The connection byte stream is in an unknown state after a failed
    // send; drop it so the next Connect starts clean.
    Close();
    return sent;
  }
  Result<std::string> body = ReadFrame(fd_, kMaxResponseBody);
  if (!body.ok()) {
    Close();
    if (body.status().code() == StatusCode::kNotFound) {
      return Status::IOError("server closed connection before responding");
    }
    return body.status();
  }
  Result<SampleResponse> resp = DecodeResponse(*body);
  if (!resp.ok()) Close();
  return resp;
}

Result<std::string> Client::SampleRange(const std::string& model_id,
                                        uint64_t seed, int64_t row_begin,
                                        int64_t row_end, Format format,
                                        std::optional<double> where_label) {
  SampleRequest req;
  req.model_id = model_id;
  req.seed = seed;
  req.row_begin = row_begin;
  req.row_end = row_end;
  req.format = format;
  req.where_label = where_label;
  TABLEGAN_ASSIGN_OR_RETURN(SampleResponse resp, Call(req));
  if (resp.status != WireStatus::kOk) {
    return Status::IOError(std::string("server replied ") +
                           WireStatusToString(resp.status) + ": " +
                           resp.payload);
  }
  return std::move(resp.payload);
}

}  // namespace serve
}  // namespace tablegan
