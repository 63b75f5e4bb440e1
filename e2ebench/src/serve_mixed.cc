// serve-mixed: an in-process serve::Server on loopback with kThreads
// workers, driven as a closed loop by kThreads serve::Client connections.
// Half the requests go to a side-4 Adult table-GAN loaded from a
// checkpoint, half to a columnar synthetic table, 64 and 1024 rows in a
// 3:1 mix (RequestMix). The frame codec, TCP, admission and CSV encoding
// dominate; the table requests exercise the serve path with no generation
// at all.

#include <memory>
#include <thread>

#include "bench.h"
#include "common/crc32.h"
#include "core/table_gan.h"
#include "data/columnar.h"
#include "data/csv.h"
#include "data/datasets.h"
#include "nn_replay.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace e2ebench {

using tablegan::Rng;
using tablegan::core::TableGan;
using tablegan::core::TableGanOptions;
namespace data = tablegan::data;
namespace serve = tablegan::serve;

namespace {

constexpr int64_t kFixtureRows = 512;
constexpr int kFixtureEpochs = 1;
/// Set-up repetitions before and after the timed window, so their median
/// spans the host load of the whole run.
constexpr int kSetupsBefore = 16;
constexpr int kSetupsAfter = 15;
/// Rows of the columnar table source; each connection's table requests
/// walk a quarter of it.
constexpr int64_t kTableRows = int64_t{1} << 17;
constexpr const char* kGanId = "gan";
constexpr const char* kTableId = "table";

/// One request as the client saw it.
struct Sent {
  ServeRequestSpec spec;
  int64_t latency_ns = 0;
  uint32_t crc = 0;
  size_t bytes = 0;
  bool ok = false;
};

/// In-process work the server does for one request, replayed afterwards.
struct Replay {
  double generate_ms = 0.0;  // RowSource::SampleRange
  double encode_ms = 0.0;    // data::WriteCsvToString
  double codec_ms = 0.0;     // request and response frame body codecs
  bool match = false;        // same bytes as the response
};

serve::SampleRequest ToRequest(const ServeRequestSpec& spec, uint64_t seed) {
  serve::SampleRequest req;
  req.model_id = spec.to_table ? kTableId : kGanId;
  req.seed = seed;
  req.row_begin = spec.row_begin;
  req.row_end = spec.row_end;
  req.format = serve::Format::kCsvNoHeader;
  return req;
}

/// One closed-loop connection: sends its seeded request sequence until
/// `deadline_ns`, each request only after the previous reply.
void DriveConnection(int port, int conn, uint64_t seed, int64_t deadline_ns,
                     Tracer* tracer, OpCounter* ops, std::vector<Sent>* sent) {
  RequestMix mix(seed, conn, kThreads, kTableRows);
  serve::Client client;
  bool connected = client.Connect("127.0.0.1", port).ok();
  while (NowNs() < deadline_ns) {
    Sent s;
    s.spec = mix.Next();
    if (!connected) connected = client.Connect("127.0.0.1", port).ok();
    if (connected) {
      const serve::SampleRequest req = ToRequest(s.spec, seed);
      const int64_t t0 = NowNs();
      tablegan::Result<serve::SampleResponse> resp = [&] {
        ScopedSpan span(tracer, "serve.Client.Call");
        return client.Call(req);
      }();
      s.latency_ns = NowNs() - t0;
      if (resp.ok()) {
        s.ok = resp->status == serve::WireStatus::kOk;
        s.bytes = resp->payload.size();
        s.crc = tablegan::Crc32(resp->payload.data(), resp->payload.size());
      } else {
        client.Close();
        connected = false;
      }
    }
    ops->Record(s.ok);
    sent->push_back(s);
  }
}

/// Recomputes one response locally and times the server's phases.
Replay ReplayRequest(const serve::ModelRegistry& registry, const Sent& s,
                     uint64_t seed) {
  Replay r;
  const serve::SampleRequest req = ToRequest(s.spec, seed);
  const serve::RowSource* source = registry.Find(req.model_id);
  int64_t t0 = NowNs();
  tablegan::Result<data::Table> rows =
      source->SampleRange(req.seed, req.row_begin, req.row_end);
  int64_t t1 = NowNs();
  r.generate_ms = Seconds(t0, t1) * 1e3;
  if (!rows.ok()) return r;
  tablegan::Result<std::string> csv =
      data::WriteCsvToString(*rows, /*include_header=*/false);
  int64_t t2 = NowNs();
  r.encode_ms = Seconds(t1, t2) * 1e3;
  if (!csv.ok()) return r;
  r.match = s.ok && csv->size() == s.bytes &&
            tablegan::Crc32(csv->data(), csv->size()) == s.crc;
  // The codecs both ends run: request encode/decode, response
  // encode/decode.
  serve::SampleResponse resp;
  resp.payload = std::move(*csv);
  t0 = NowNs();
  const bool codec_ok =
      serve::DecodeRequest(serve::EncodeRequest(req)).ok() &&
      serve::DecodeResponse(serve::EncodeResponse(resp)).ok();
  r.codec_ms = Seconds(t0, NowNs()) * 1e3;
  r.match = r.match && codec_ok;
  return r;
}

}  // namespace

void RunServeMixed(const Context& ctx, Outcome* out) {
  Tracer* tracer = ctx.tracer;
  const std::string ckpt = ctx.work_dir + "/adult.tgan";
  const std::string table_path = ctx.work_dir + "/synthetic.tgcl";

  // Fixture, not timed as set-up: the owner's trained model and a
  // pre-generated synthetic table.
  FitLog log;
  {
    Rng rng(ctx.seed);
    const data::Table adult = data::MakeAdultLike(kFixtureRows, &rng);
    TableGanOptions options = TableGanOptions::LowPrivacy();
    options.epochs = kFixtureEpochs;
    options.num_threads = kThreads;
    options.seed = ctx.seed;
    log.Attach(&options, tracer);
    TableGan gan(options);
    const int label_col =
        adult.schema().ColumnsWithRole(data::ColumnRole::kLabel).at(0);
    Must(gan.Fit(adult, label_col), "fixture Fit");
    Must(gan.Save(ckpt), "fixture Save");
    const data::Table synthetic =
        Must(gan.SampleRange(ctx.seed + 1, 0, kTableRows), "fixture table");
    Must(data::WriteColumnar(synthetic, table_path), "fixture columnar");
  }

  // One set-up: load the checkpoint, open the table, start serving.
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::Server> server;
  std::vector<double> setup_s, load_ms, open_ms, start_ms;
  auto set_up = [&] {
    server.reset();
    registry.reset();
    const int64_t t0 = NowNs();
    registry = std::make_unique<serve::ModelRegistry>();
    Must(registry->Load(kGanId, ckpt), "registry Load");
    const int64_t t1 = NowNs();
    Must(registry->Add(kTableId, Must(data::ColumnarReader::Open(table_path),
                                      "open columnar")),
         "registry Add");
    const int64_t t2 = NowNs();
    serve::ServerOptions options;
    options.num_workers = kThreads;
    server = std::make_unique<serve::Server>(registry.get(), options);
    Must(server->Start(), "server Start");
    const int64_t t3 = NowNs();
    setup_s.push_back(Seconds(t0, t3));
    load_ms.push_back(Seconds(t0, t1) * 1e3);
    open_ms.push_back(Seconds(t1, t2) * 1e3);
    start_ms.push_back(Seconds(t2, t3) * 1e3);
  };
  for (int i = 0; i < kSetupsBefore; ++i) set_up();

  // Timed window: the closed loop.
  std::vector<std::vector<Sent>> sent(kThreads);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(ctx.seconds * 1e9);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kThreads; ++c) {
      clients.emplace_back(DriveConnection, server->port(), c, ctx.seed,
                           deadline, tracer, &out->ops, &sent[c]);
    }
    for (std::thread& t : clients) t.join();
  }
  const double window_s = Seconds(start, NowNs());
  const serve::Server::Stats stats = server->stats();
  server->Shutdown();

  // Output check: every response must equal the local RowSource bytes.
  std::vector<std::vector<Replay>> replays(kThreads);
  {
    std::vector<std::thread> checkers;
    for (int c = 0; c < kThreads; ++c) {
      checkers.emplace_back([&, c] {
        for (const Sent& s : sent[c]) {
          replays[c].push_back(ReplayRequest(*registry, s, ctx.seed));
        }
      });
    }
    for (std::thread& t : checkers) t.join();
  }

  for (int i = 0; i < kSetupsAfter; ++i) set_up();
  out->setup_s = SetupSeconds(setup_s);

  std::vector<double> latency_ms, wait_ms, codec_us;
  std::map<std::string, std::vector<double>> phase_ms;
  double rows_ok = 0.0, bytes = 0.0, busy_ms = 0.0;
  int64_t mismatches = 0;
  for (int c = 0; c < kThreads; ++c) {
    for (size_t i = 0; i < sent[c].size(); ++i) {
      const Sent& s = sent[c][i];
      const Replay& r = replays[c][i];
      if (s.ok && !r.match) {
        ++mismatches;
        out->ops.MarkFailed();
      }
      if (!s.ok || !r.match) continue;
      const double lat = static_cast<double>(s.latency_ns) * 1e-6;
      const double work = r.generate_ms + r.encode_ms + r.codec_ms;
      latency_ms.push_back(lat);
      wait_ms.push_back(lat - work);
      codec_us.push_back(r.codec_ms * 1e3);
      busy_ms += work;
      rows_ok += static_cast<double>(s.spec.rows());
      bytes += static_cast<double>(s.bytes);
      const std::string n = std::to_string(s.spec.rows());
      phase_ms[(s.spec.to_table ? "data.columnar_range_ms."
                                : "core.sample_range_ms.") + n]
          .push_back(r.generate_ms);
      phase_ms["data.csv_encode_ms." + n].push_back(r.encode_ms);
    }
  }
  out->rows_per_s = rows_ok / window_s;
  out->p50_ms = Median(latency_ms);
  const Percentile p99 = ComputePercentile(latency_ms, 99.0);
  const std::string p99_text =
      p99.reportable ? std::to_string(p99.value) + " ms"
                     : "not reported (" + std::to_string(p99.beyond) +
                           " samples beyond it, fewer than " +
                           std::to_string(kMinSamplesBeyond) + ")";
  Note("serve-mixed: %lld requests over %d connections in %.3f s (%.3f "
       "req/s), %lld response mismatches; latency p50 %.4f ms, p99 %s, "
       "n=%zu",
       static_cast<long long>(out->ops.attempted()), kThreads, window_s,
       static_cast<double>(out->ops.attempted()) / window_s,
       static_cast<long long>(mismatches), out->p50_ms, p99_text.c_str(),
       latency_ms.size());
  if (!tracer->enabled()) return;

  log.Summarize(&out->layer);
  for (const auto& [name, ms] : phase_ms) out->layer[name] = Median(ms);
  out->layer["serve.transport_wait_ms"] = Median(wait_ms);
  out->layer["serve.codec_us"] = Median(codec_us);
  out->layer["serve.bytes_per_row"] = rows_ok > 0 ? bytes / rows_ok : 0.0;
  out->layer["serve.busy_frac"] = busy_ms * 1e-3 / (window_s * kThreads);
  out->layer["serve.p99_ms"] = p99.reportable ? p99.value : 0.0;
  out->layer["serve.accepted"] = static_cast<double>(stats.accepted);
  out->layer["serve.rejected_busy"] = static_cast<double>(stats.rejected_busy);
  out->layer["serve.requests_ok"] = static_cast<double>(stats.requests_ok);
  out->layer["serve.requests_error"] =
      static_cast<double>(stats.requests_error);
  out->layer["core.load_ms"] = Median(load_ms);
  out->layer["data.columnar_open_ms"] = Median(open_ms);
  out->layer["serve.start_ms"] = Median(start_ms);

  const TableGan gan = Must(TableGan::Load(ckpt), "reload checkpoint");
  const TableGanOptions& o = gan.options();
  ReplayNetworks({gan.side(), o.latent_dim, o.base_channels, o.batch_size},
                 RequestMix::kSmallRows, tracer, &out->layer);
  AddStepShare(kFixtureRows, o.batch_size, &out->layer);
}

}  // namespace e2ebench
