#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "data/csv.h"

namespace tablegan {
namespace serve {
namespace {

WireStatus WireStatusForSampling(const Status& s) {
  switch (s.code()) {
    case StatusCode::kInvalidArgument:
    // A conditional request against a source without conditional
    // support is a client mistake, not a server fault.
    case StatusCode::kFailedPrecondition:
      return WireStatus::kBadRequest;
    // SampleConditional's "label not in the training vocabulary".
    case StatusCode::kNotFound:
      return WireStatus::kUnknownLabel;
    default:
      return WireStatus::kInternal;
  }
}

}  // namespace

Server::Server(const ModelRegistry* registry, ServerOptions options)
    : registry_(registry), options_(std::move(options)) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (started_.load()) {
    return Status::FailedPrecondition("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("not an IPv4 address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status st = Status::IOError("bind " + options_.host + ":" +
                                      std::to_string(options_.port) + ": " +
                                      std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 128) != 0) {
    const Status st =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  stopping_.store(false);
  started_.store(true);
  listener_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Shutdown closed the listen socket (EBADF/EINVAL), or accept
      // hit a transient error; either way stop when asked to.
      if (stopping_.load()) return;
      if (errno == ECONNABORTED || errno == EAGAIN) continue;
      TABLEGAN_LOG(Error) << "accept failed: " << std::strerror(errno);
      return;
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    // Every frame is one send (WriteFrame), so nothing is gained by
    // letting Nagle hold a response's tail for the client's ACK.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    accepted_.fetch_add(1);
    // Admission control: the counter covers running AND pool-queued
    // connections, so the pool's FIFO can never grow past
    // admission_depth. Over the limit the client gets an immediate
    // BUSY frame — explicit backpressure instead of unbounded queueing.
    int admitted = admitted_.load();
    bool ok = false;
    while (admitted < options_.admission_depth &&
           !(ok = admitted_.compare_exchange_weak(admitted, admitted + 1))) {
    }
    if (!ok) {
      rejected_busy_.fetch_add(1);
      SampleResponse busy;
      busy.status = WireStatus::kBusy;
      busy.payload = "admission queue full (depth " +
                     std::to_string(options_.admission_depth) + ")";
      // Best effort; the rejected client may already be gone.
      (void)WriteFrame(fd, EncodeResponse(busy));
      ::close(fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.insert(fd);
    }
    pool_->Submit([this, fd] {
      HandleConnection(fd);
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns_.erase(fd);
      }
      ::close(fd);
      admitted_.fetch_sub(1);
    });
  }
}

void Server::HandleConnection(int fd) {
  // Requests on one connection are served in order until the client
  // hangs up, a frame is malformed (the byte stream may be desynced —
  // answer, then close), or shutdown EOFs the socket.
  for (;;) {
    Result<std::string> frame = ReadFrame(fd, kMaxRequestBody);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kNotFound) return;  // EOF
      requests_error_.fetch_add(1);
      // Drain whatever else already arrived (e.g. the body of a frame
      // whose header was rejected): closing a socket with unread data
      // sends an RST that can destroy the error reply before the
      // client reads it. Non-blocking, so a silent peer cannot park
      // the worker here.
      char sink[4096];
      while (::recv(fd, sink, sizeof(sink), MSG_DONTWAIT) > 0) {
      }
      SampleResponse err;
      err.status = WireStatus::kBadRequest;
      err.payload = frame.status().message();
      (void)WriteFrame(fd, EncodeResponse(err));
      return;
    }
    SampleResponse resp;
    Result<SampleRequest> req = DecodeRequest(*frame);
    if (!req.ok()) {
      resp.status = WireStatus::kBadRequest;
      resp.payload = req.status().message();
    } else {
      resp = Serve(*req);
    }
    (resp.status == WireStatus::kOk ? requests_ok_ : requests_error_)
        .fetch_add(1);
    Status sent = WriteFrame(fd, EncodeResponse(resp));
    if (!sent.ok()) {
      // WriteFrame sends with MSG_NOSIGNAL, so a mid-response hangup
      // lands here as EPIPE: log and drop this connection only.
      TABLEGAN_LOG(Error) << "response write failed: "
                          << sent.ToString();
      return;
    }
    if (!req.ok()) return;  // desynced stream; see above
    if (stopping_.load()) return;
  }
}

SampleResponse Server::Serve(const SampleRequest& req) const {
  SampleResponse resp;
  const RowSource* model = registry_->Find(req.model_id);
  if (model == nullptr) {
    resp.status = WireStatus::kUnknownModel;
    resp.payload = "unknown model id '" + req.model_id + "'";
    return resp;
  }
  if (req.row_end - req.row_begin > options_.max_rows_per_request) {
    resp.status = WireStatus::kBadRequest;
    resp.payload = "range of " + std::to_string(req.row_end - req.row_begin) +
                   " rows exceeds per-request cap of " +
                   std::to_string(options_.max_rows_per_request);
    return resp;
  }
  Result<data::Table> rows =
      req.where_label.has_value()
          ? model->SampleConditionalRange(req.seed, req.row_begin,
                                          req.row_end, *req.where_label)
          : model->SampleRange(req.seed, req.row_begin, req.row_end);
  if (!rows.ok()) {
    resp.status = WireStatusForSampling(rows.status());
    resp.payload = rows.status().ToString();
    return resp;
  }
  Result<std::string> csv = data::WriteCsvToString(
      *rows, /*include_header=*/req.format == Format::kCsv);
  if (!csv.ok()) {
    resp.status = WireStatus::kInternal;
    resp.payload = csv.status().ToString();
    return resp;
  }
  resp.status = WireStatus::kOk;
  resp.payload = std::move(*csv);
  return resp;
}

void Server::Shutdown() {
  if (!started_.exchange(false)) return;
  stopping_.store(true);
  // Unblock the listener first: no new work is admitted while we
  // drain.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (listener_.joinable()) listener_.join();
  listen_fd_ = -1;
  // EOF idle connections; handlers mid-request finish and flush their
  // response before noticing (stopping_ is checked between requests).
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (int fd : conns_) ::shutdown(fd, SHUT_RD);
  }
  pool_->WaitIdle();
  pool_.reset();
}

Server::Stats Server::stats() const {
  Stats s;
  s.accepted = accepted_.load();
  s.rejected_busy = rejected_busy_.load();
  s.requests_ok = requests_ok_.load();
  s.requests_error = requests_error_.load();
  return s;
}

}  // namespace serve
}  // namespace tablegan
