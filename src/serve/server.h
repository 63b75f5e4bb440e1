#ifndef TABLEGAN_SERVE_SERVER_H_
#define TABLEGAN_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "common/status.h"
#include "common/thread_pool.h"
#include "serve/protocol.h"
#include "serve/registry.h"

namespace tablegan {
namespace serve {

struct ServerOptions {
  /// Bind address. The default only accepts loopback clients; bind
  /// 0.0.0.0 explicitly to serve a fleet.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with Server::port().
  int port = 0;
  /// Handler threads in the shared ThreadPool. Each admitted connection
  /// occupies one worker while a request is in flight; generation
  /// itself additionally fans out over the process-wide ParallelFor
  /// pool inside TableGan::SampleRange.
  int num_workers = 4;
  /// Maximum admitted connections (running + waiting for a worker).
  /// Beyond this the listener replies with a BUSY frame and closes
  /// instead of queueing unboundedly — clients get instant, explicit
  /// backpressure.
  int admission_depth = 64;
  /// Per-request row cap; larger ranges are rejected as BAD_REQUEST so
  /// one request cannot balloon server memory. Clients shard bigger
  /// tables across range requests (that is the point of the protocol).
  int64_t max_rows_per_request = 1 << 20;
};

/// Long-lived synthesis server: accepts length-prefixed sample requests
/// (serve/protocol.h) and answers them from an immutable ModelRegistry.
///
/// Threading: one listener thread accepts and admits connections; every
/// admitted connection is handled on the shared ThreadPool, requests on
/// one connection serially, different connections concurrently.
/// Admission is a counter, not a queue copy — the pool's FIFO is the
/// queue, the counter bounds it.
///
/// Shutdown (Shutdown(), also run by the destructor) is graceful: the
/// listen socket closes first, in-flight requests run to completion and
/// their responses are flushed, then idle connections are unblocked
/// with an EOF and the workers drain. Responses are sent with
/// MSG_NOSIGNAL, so a client hanging up mid-response surfaces as a
/// per-connection write error instead of a SIGPIPE that kills the
/// daemon; the host process's signal disposition is left alone.
class Server {
 public:
  Server(const ModelRegistry* registry, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the listener thread. IOError when the
  /// address cannot be bound.
  Status Start();

  /// Stops accepting, drains in-flight requests, joins every thread.
  /// Idempotent.
  void Shutdown();

  /// Actual bound port (after Start; useful with options.port == 0).
  int port() const { return port_; }

  /// Monotonic counters, readable at any time (tests, the bench, and
  /// the daemon's exit log).
  struct Stats {
    uint64_t accepted = 0;
    uint64_t rejected_busy = 0;
    uint64_t requests_ok = 0;
    uint64_t requests_error = 0;
  };
  Stats stats() const;

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  /// Builds the response to one decoded request (the sampling hot
  /// path).
  SampleResponse Serve(const SampleRequest& req) const;

  const ModelRegistry* registry_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread listener_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int> admitted_{0};

  /// Open connection fds, so Shutdown can EOF idle readers.
  std::mutex conns_mu_;
  std::set<int> conns_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_busy_{0};
  std::atomic<uint64_t> requests_ok_{0};
  std::atomic<uint64_t> requests_error_{0};
};

}  // namespace serve
}  // namespace tablegan

#endif  // TABLEGAN_SERVE_SERVER_H_
