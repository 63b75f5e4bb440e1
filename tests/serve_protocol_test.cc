// Serve-protocol tests: frame codec round trips, strict rejection of
// malformed frames (forced through the serve.* failpoints on live
// sockets), registry behavior, and the loopback end-to-end contract —
// rows fetched over the wire are byte-identical to a local Sample at
// any sharding and from concurrent clients.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/io_retry.h"
#include "core/table_gan.h"
#include "data/csv.h"
#include "data/table.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace tablegan {
namespace {

class ServeProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::Reset(); }
  void TearDown() override { failpoint::Reset(); }
};

// Connected socket pair; both ends closed on scope exit.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  }
  ~SocketPair() {
    CloseWrite();
    CloseRead();
  }
  int write_end() const { return fds[0]; }
  int read_end() const { return fds[1]; }
  void CloseWrite() {
    if (fds[0] >= 0) ::close(fds[0]);
    fds[0] = -1;
  }
  void CloseRead() {
    if (fds[1] >= 0) ::close(fds[1]);
    fds[1] = -1;
  }
};

/// Raw loopback connection (no Client), for tests that speak frames
/// directly — e.g. reading the BUSY frame without sending anything.
int ConnectRaw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

template <typename T>
void AppendLe(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

// ------------------------------------------------------------------
// Body codecs.

TEST_F(ServeProtocolTest, RequestCodecRoundTrips) {
  serve::SampleRequest req;
  req.model_id = "adult-v3";
  req.seed = 0xDEADBEEFCAFEBABEull;
  req.row_begin = 12345;
  req.row_end = 67890;
  req.format = serve::Format::kCsvNoHeader;
  auto decoded = serve::DecodeRequest(serve::EncodeRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->model_id, req.model_id);
  EXPECT_EQ(decoded->seed, req.seed);
  EXPECT_EQ(decoded->row_begin, req.row_begin);
  EXPECT_EQ(decoded->row_end, req.row_end);
  EXPECT_EQ(decoded->format, req.format);
}

TEST_F(ServeProtocolTest, ResponseCodecRoundTripsBinaryPayload) {
  serve::SampleResponse resp;
  resp.status = serve::WireStatus::kOk;
  resp.payload = std::string("a,b\n1,\0two\n", 11);  // embedded NUL
  auto decoded = serve::DecodeResponse(serve::EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status, resp.status);
  EXPECT_EQ(decoded->payload, resp.payload);

  for (auto s : {serve::WireStatus::kBusy, serve::WireStatus::kUnknownModel,
                 serve::WireStatus::kBadRequest,
                 serve::WireStatus::kInternal}) {
    serve::SampleResponse e;
    e.status = s;
    e.payload = "why";
    auto d = serve::DecodeResponse(serve::EncodeResponse(e));
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->status, s);
  }
}

TEST_F(ServeProtocolTest, DecodeRequestRejectsMalformedBodies) {
  serve::SampleRequest req;
  req.model_id = "m";
  req.row_end = 4;
  const std::string good = serve::EncodeRequest(req);
  ASSERT_TRUE(serve::DecodeRequest(good).ok());

  // Truncation at every prefix length must be caught, never crash.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(serve::DecodeRequest(good.substr(0, cut)).ok())
        << "prefix of " << cut << " bytes decoded";
  }
  // Trailing garbage.
  EXPECT_FALSE(serve::DecodeRequest(good + "x").ok());

  // Unsupported version.
  {
    std::string b;
    AppendLe<uint32_t>(&b, 99);
    b.append(good.substr(4));
    EXPECT_FALSE(serve::DecodeRequest(b).ok());
  }
  // Unknown format code.
  {
    std::string b = good;
    b[4] = 7;
    EXPECT_FALSE(serve::DecodeRequest(b).ok());
  }
  // Zero-length and oversized model id.
  {
    std::string b;
    AppendLe<uint32_t>(&b, serve::kProtocolVersion);
    AppendLe<uint8_t>(&b, 0);
    AppendLe<uint16_t>(&b, 0);
    AppendLe<uint64_t>(&b, 0);
    AppendLe<int64_t>(&b, 0);
    AppendLe<int64_t>(&b, 0);
    EXPECT_FALSE(serve::DecodeRequest(b).ok());
  }
  {
    serve::SampleRequest big;
    big.model_id.assign(serve::kMaxModelIdLen + 1, 'x');
    big.row_end = 1;
    EXPECT_FALSE(serve::DecodeRequest(serve::EncodeRequest(big)).ok());
  }
  // Negative / inverted row ranges.
  {
    serve::SampleRequest bad = req;
    bad.row_begin = -1;
    bad.row_end = 1;
    EXPECT_FALSE(serve::DecodeRequest(serve::EncodeRequest(bad)).ok());
    bad.row_begin = 10;
    bad.row_end = 3;
    EXPECT_FALSE(serve::DecodeRequest(serve::EncodeRequest(bad)).ok());
  }
}

TEST_F(ServeProtocolTest, DecodeResponseRejectsGarbage) {
  EXPECT_FALSE(serve::DecodeResponse("").ok());
  EXPECT_FALSE(serve::DecodeResponse("ab").ok());
  std::string b;
  AppendLe<uint32_t>(&b, 42);  // not a WireStatus
  EXPECT_FALSE(serve::DecodeResponse(b).ok());
}

// ------------------------------------------------------------------
// Frame I/O on live sockets.

TEST_F(ServeProtocolTest, FrameRoundTripsOverSocket) {
  SocketPair sp;
  const std::string body = "hello frame";
  ASSERT_TRUE(serve::WriteFrame(sp.write_end(), body).ok());
  ASSERT_TRUE(serve::WriteFrame(sp.write_end(), "").ok());
  auto got = serve::ReadFrame(sp.read_end(), serve::kMaxRequestBody);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, body);
  auto empty = serve::ReadFrame(sp.read_end(), serve::kMaxRequestBody);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST_F(ServeProtocolTest, CleanEofAtFrameBoundaryIsNotFound) {
  SocketPair sp;
  sp.CloseWrite();
  auto got = serve::ReadFrame(sp.read_end(), serve::kMaxRequestBody);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST_F(ServeProtocolTest, MidFrameEofIsIOError) {
  SocketPair sp;
  // A header promising 32 bytes, then hangup after 3.
  std::string partial;
  AppendLe<uint32_t>(&partial, serve::kFrameMagic);
  AppendLe<uint32_t>(&partial, 32);
  partial.append("abc");
  ASSERT_EQ(::write(sp.write_end(), partial.data(), partial.size()),
            static_cast<ssize_t>(partial.size()));
  sp.CloseWrite();
  auto got = serve::ReadFrame(sp.read_end(), serve::kMaxRequestBody);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
}

TEST_F(ServeProtocolTest, CorruptMagicFailpointIsRejected) {
  SocketPair sp;
  failpoint::Scoped fp("serve.frame.corrupt_magic", "once");
  ASSERT_TRUE(serve::WriteFrame(sp.write_end(), "body").ok());
  auto got = serve::ReadFrame(sp.read_end(), serve::kMaxRequestBody);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(got.status().message().find("magic"), std::string::npos);
  EXPECT_EQ(failpoint::TriggerCount("serve.frame.corrupt_magic"), 1);
}

TEST_F(ServeProtocolTest, OversizeFailpointIsRejected) {
  SocketPair sp;
  failpoint::Scoped fp("serve.frame.oversize", "once");
  ASSERT_TRUE(serve::WriteFrame(sp.write_end(), "body").ok());
  auto got = serve::ReadFrame(sp.read_end(), serve::kMaxRequestBody);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(got.status().message().find("exceeds cap"), std::string::npos);
}

TEST_F(ServeProtocolTest, TruncateFailpointSurfacesBothEnds) {
  SocketPair sp;
  {
    failpoint::Scoped fp("serve.frame.truncate", "once");
    Status sent = serve::WriteFrame(sp.write_end(), "0123456789");
    EXPECT_FALSE(sent.ok());  // the writer learns about the short write
  }
  sp.CloseWrite();
  // Exactly the full header (declaring 10 bytes) plus half the body,
  // then EOF.
  char wire[64];
  auto n = io::ReadFull(sp.read_end(), wire, sizeof(wire));
  ASSERT_TRUE(n.ok());
  std::string expected;
  AppendLe<uint32_t>(&expected, serve::kFrameMagic);
  AppendLe<uint32_t>(&expected, 10);
  expected += "01234";
  EXPECT_EQ(std::string(wire, *n), expected);

  // Replayed to a reader, those bytes are a mid-frame EOF.
  SocketPair replay;
  ASSERT_TRUE(io::WriteFull(replay.write_end(), wire, *n).ok());
  replay.CloseWrite();
  auto got = serve::ReadFrame(replay.read_end(), serve::kMaxRequestBody);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
}

TEST_F(ServeProtocolTest, InjectedReadFailureSurfaces) {
  SocketPair sp;
  ASSERT_TRUE(serve::WriteFrame(sp.write_end(), "ok").ok());
  failpoint::Scoped fp("serve.frame.read", "once");
  auto got = serve::ReadFrame(sp.read_end(), serve::kMaxRequestBody);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
  // The failpoint is one-shot: the frame is still in the socket and the
  // retry succeeds.
  auto retry = serve::ReadFrame(sp.read_end(), serve::kMaxRequestBody);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(*retry, "ok");
}

TEST_F(ServeProtocolTest, FrameIoRetriesEintr) {
  SocketPair sp;
  failpoint::Scoped w("io.write_eintr", "once");
  failpoint::Scoped r("io.read_eintr", "once");
  ASSERT_TRUE(serve::WriteFrame(sp.write_end(), "interrupted").ok());
  auto got = serve::ReadFrame(sp.read_end(), serve::kMaxRequestBody);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "interrupted");
  EXPECT_EQ(failpoint::TriggerCount("io.write_eintr"), 1);
  EXPECT_EQ(failpoint::TriggerCount("io.read_eintr"), 1);
}

// A client-only process (no Server::Start anywhere) must survive writing
// into a connection its peer has closed. The peer answers BUSY and
// closes; the first Call reads that answer, and its request write drew
// an RST, so the second Call's write hits EPIPE. Without MSG_NOSIGNAL
// that write raises SIGPIPE, which at SIG_DFL kills the process.
TEST_F(ServeProtocolTest, ClientSurvivesWritingToClosedPeer) {
  EXPECT_EXIT(
      {
        std::signal(SIGPIPE, SIG_DFL);
        const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sin_family = AF_INET;
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        socklen_t len = sizeof(addr);
        if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
            ::listen(listener, 1) != 0 ||
            ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &len) != 0) {
          std::_Exit(2);
        }
        serve::Client client;
        if (!client.Connect("127.0.0.1", ntohs(addr.sin_port)).ok()) {
          std::_Exit(2);
        }
        const int peer = ::accept(listener, nullptr, nullptr);
        serve::SampleResponse busy;
        busy.status = serve::WireStatus::kBusy;
        if (!serve::WriteFrame(peer, serve::EncodeResponse(busy)).ok()) {
          std::_Exit(2);
        }
        ::close(peer);
        serve::SampleRequest req;
        req.model_id = "m";
        req.row_end = 1;
        auto first = client.Call(req);
        if (!first.ok() || first->status != serve::WireStatus::kBusy) {
          std::_Exit(3);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        std::_Exit(client.Call(req).ok() ? 4 : 0);
      },
      ::testing::ExitedWithCode(0), "");
}

// ------------------------------------------------------------------
// Registry.

core::TableGan FitTinyGan() {
  data::Schema schema;
  data::ColumnSpec a;
  a.name = "x";
  a.type = data::ColumnType::kContinuous;
  schema.AddColumn(a);
  data::ColumnSpec b;
  b.name = "label";
  b.type = data::ColumnType::kDiscrete;
  b.role = data::ColumnRole::kLabel;
  schema.AddColumn(b);
  data::Table t(schema);
  for (int64_t r = 0; r < 12; ++r) {
    t.AppendRow({static_cast<double>(r) * 0.25,
                 static_cast<double>(r % 2)});
  }
  core::TableGanOptions opt;
  opt.latent_dim = 4;
  opt.base_channels = 4;
  opt.epochs = 1;
  opt.batch_size = 4;
  opt.num_threads = 1;
  core::TableGan gan(opt);
  TABLEGAN_CHECK_OK(gan.Fit(t, 1));
  return gan;
}

TEST_F(ServeProtocolTest, RegistryRejectsBadRegistrations) {
  serve::ModelRegistry registry;
  EXPECT_FALSE(registry.Add("", FitTinyGan()).ok());
  EXPECT_TRUE(registry.Add("tiny", FitTinyGan()).ok());
  EXPECT_FALSE(registry.Add("tiny", FitTinyGan()).ok());  // duplicate
  core::TableGan unfitted((core::TableGanOptions()));
  EXPECT_FALSE(registry.Add("cold", std::move(unfitted)).ok());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_NE(registry.Find("tiny"), nullptr);
  EXPECT_EQ(registry.Find("nope"), nullptr);
  EXPECT_FALSE(registry.Load("ghost", "/no/such/file.tgan").ok());
}

// ------------------------------------------------------------------
// Loopback end-to-end.

TEST_F(ServeProtocolTest, ServerAnswersUnknownModelAndBadRange) {
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", FitTinyGan()).ok());
  serve::ServerOptions opts;
  opts.max_rows_per_request = 100;
  serve::Server server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  serve::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  serve::SampleRequest req;
  req.model_id = "missing";
  req.row_end = 4;
  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, serve::WireStatus::kUnknownModel);

  req.model_id = "tiny";
  req.row_end = 101;  // over max_rows_per_request
  resp = client.Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, serve::WireStatus::kBadRequest);

  req.row_end = 4;  // connection still usable after served errors
  resp = client.Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, serve::WireStatus::kOk);

  server.Shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests_ok, 1u);
  EXPECT_EQ(stats.requests_error, 2u);
}

TEST_F(ServeProtocolTest, RemoteRowsAreBitwiseIdenticalToLocalSample) {
  // One model instance serves; an identical fresh fit plays the "local"
  // baseline (training is deterministic, so the two instances are the
  // same model).
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", FitTinyGan()).ok());
  core::TableGan local = FitTinyGan();
  const uint64_t seed = local.options().seed;

  constexpr int64_t kRows = 23;
  auto whole = local.Sample(kRows);
  ASSERT_TRUE(whole.ok());
  auto whole_csv = data::WriteCsvToString(*whole);
  ASSERT_TRUE(whole_csv.ok());

  serve::Server server(&registry, serve::ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  // Whole table in one request.
  serve::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto remote = client.SampleRange("tiny", seed, 0, kRows);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(*remote, *whole_csv);

  // Sharded: header shard + headerless continuation shards concatenate
  // into the same bytes.
  auto shard0 = client.SampleRange("tiny", seed, 0, 7);
  auto shard1 = client.SampleRange("tiny", seed, 7, 15,
                                   serve::Format::kCsvNoHeader);
  auto shard2 = client.SampleRange("tiny", seed, 15, kRows,
                                   serve::Format::kCsvNoHeader);
  ASSERT_TRUE(shard0.ok() && shard1.ok() && shard2.ok());
  EXPECT_EQ(*shard0 + *shard1 + *shard2, *whole_csv);

  // An empty range is a valid request for zero rows.
  auto empty = client.SampleRange("tiny", seed, 5, 5,
                                  serve::Format::kCsvNoHeader);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  // Concurrent clients fetching interleaved single-row shards all see
  // the same logical table.
  constexpr int kClients = 4;
  std::vector<std::vector<std::string>> by_client(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client cl;
      if (!cl.Connect("127.0.0.1", server.port()).ok()) return;
      for (int64_t i = c; i < kRows; i += kClients) {
        auto one = cl.SampleRange("tiny", seed, i, i + 1,
                                  serve::Format::kCsvNoHeader);
        if (!one.ok()) return;
        by_client[static_cast<size_t>(c)].push_back(*one);
      }
    });
  }
  for (auto& t : threads) t.join();
  std::string interleaved;
  for (int64_t i = 0; i < kRows; ++i) {
    const auto& mine = by_client[static_cast<size_t>(i % kClients)];
    ASSERT_LT(static_cast<size_t>(i / kClients), mine.size())
        << "client " << i % kClients << " dropped a row";
    interleaved += mine[static_cast<size_t>(i / kClients)];
  }
  auto headerless = data::WriteCsvToString(*whole, /*include_header=*/false);
  ASSERT_TRUE(headerless.ok());
  EXPECT_EQ(interleaved, *headerless);

  server.Shutdown();
}

TEST_F(ServeProtocolTest, MalformedFramesOnLiveConnectionGetBadRequest) {
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", FitTinyGan()).ok());
  serve::Server server(&registry, serve::ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  // Corrupt magic from the client: the server answers BAD_REQUEST and
  // closes (its byte stream may be desynced), but keeps serving new
  // connections. The frame carries an empty body so nothing is left
  // unread server-side.
  {
    const int fd = ConnectRaw(server.port());
    {
      failpoint::Scoped fp("serve.frame.corrupt_magic", "once");
      ASSERT_TRUE(serve::WriteFrame(fd, "").ok());
    }
    auto body = serve::ReadFrame(fd, serve::kMaxResponseBody);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    auto resp = serve::DecodeResponse(*body);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, serve::WireStatus::kBadRequest);
    // ... and then the server closes the desynced connection.
    auto eof = serve::ReadFrame(fd, serve::kMaxResponseBody);
    EXPECT_FALSE(eof.ok());
    ::close(fd);
  }
  // Oversized length prefix: same answer.
  {
    const int fd = ConnectRaw(server.port());
    {
      failpoint::Scoped fp("serve.frame.oversize", "once");
      ASSERT_TRUE(serve::WriteFrame(fd, "").ok());
    }
    auto body = serve::ReadFrame(fd, serve::kMaxResponseBody);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    auto resp = serve::DecodeResponse(*body);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, serve::WireStatus::kBadRequest);
    ::close(fd);
  }
  // Garbage inside a well-formed frame: strict body decoding rejects
  // it, the connection answers BAD_REQUEST and closes.
  {
    const int fd = ConnectRaw(server.port());
    ASSERT_TRUE(serve::WriteFrame(fd, "this is not a request").ok());
    auto body = serve::ReadFrame(fd, serve::kMaxResponseBody);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    auto resp = serve::DecodeResponse(*body);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, serve::WireStatus::kBadRequest);
    auto eof = serve::ReadFrame(fd, serve::kMaxResponseBody);
    EXPECT_FALSE(eof.ok());
    ::close(fd);
  }
  // The server survived all of it.
  serve::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto fetched = client.SampleRange("tiny", 47, 0, 3);
  EXPECT_TRUE(fetched.ok()) << fetched.status().ToString();
  server.Shutdown();
  EXPECT_GE(server.stats().requests_error, 3u);
}

TEST_F(ServeProtocolTest, AdmissionDepthRejectsWithBusyFrame) {
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", FitTinyGan()).ok());
  serve::ServerOptions opts;
  opts.admission_depth = 1;
  serve::Server server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  // First client occupies the only admission slot (a served request
  // proves it is fully admitted, and the connection stays open).
  serve::Client first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server.port()).ok());
  auto ok = first.SampleRange("tiny", 47, 0, 2);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();

  // Second connection gets an immediate BUSY frame without sending
  // anything.
  {
    const int fd = ConnectRaw(server.port());
    auto body = serve::ReadFrame(fd, serve::kMaxResponseBody);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    auto resp = serve::DecodeResponse(*body);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, serve::WireStatus::kBusy);
    ::close(fd);
  }

  // Releasing the slot re-opens admission (the server reaps the closed
  // connection asynchronously, so poll).
  first.Close();
  serve::SampleResponse admitted;
  admitted.status = serve::WireStatus::kBusy;
  for (int attempt = 0; attempt < 500; ++attempt) {
    serve::Client third;
    ASSERT_TRUE(third.Connect("127.0.0.1", server.port()).ok());
    serve::SampleRequest req;
    req.model_id = "tiny";
    req.row_end = 1;
    auto r = third.Call(req);
    // A BUSY close can race our request write; treat transport errors
    // like BUSY and retry.
    if (r.ok() && r->status != serve::WireStatus::kBusy) {
      admitted = *r;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(admitted.status, serve::WireStatus::kOk);

  server.Shutdown();
  EXPECT_GE(server.stats().rejected_busy, 1u);
}

TEST_F(ServeProtocolTest, ShutdownUnblocksIdleConnections) {
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", FitTinyGan()).ok());
  serve::Server server(&registry, serve::ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  serve::Client idle;
  ASSERT_TRUE(idle.Connect("127.0.0.1", server.port()).ok());
  auto warm = idle.SampleRange("tiny", 47, 0, 1);
  ASSERT_TRUE(warm.ok());
  // The handler is now parked in ReadFrame waiting for this client's
  // next request; Shutdown must EOF it and return promptly.
  server.Shutdown();
  serve::SampleRequest req;
  req.model_id = "tiny";
  req.row_end = 1;
  EXPECT_FALSE(idle.Call(req).ok());  // daemon is gone
}

}  // namespace
}  // namespace tablegan
