// bench_serve — request latency and throughput of the synthesis daemon.
//
//   bench_serve [out.json]   full run: p50/p95/p99 request latency and
//                            aggregate rows/s at 1, 4 and 16 concurrent
//                            clients (default out: BENCH_serve.json)
//   bench_serve --smoke      CI gate: a short two-client run that
//                            also asserts the served bytes are
//                            bitwise identical to a local Sample;
//                            exits nonzero on any error or mismatch,
//                            or when p50 exceeds kSmokeMaxP50Ms
//
// The server runs in-process on a loopback socket, so the measured
// path is the real one (frame codec, admission, worker pool, SampleRange,
// CSV serialization, TCP) minus only true network distance. Each client
// thread owns one connection and issues sequential requests for
// disjoint row ranges, the sharded-fetch pattern the protocol is
// designed for.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "data/csv.h"
#include "data/datasets.h"
#include "serve/client.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace tablegan {
namespace {

constexpr int64_t kRowsPerRequest = 64;
constexpr char kModelId[] = "bench";
/// A 64-row request costs well under a millisecond of work; a p50 above
/// this bound means requests wait on the transport (a frame split over
/// two writes cost a ~88 ms delayed-ACK stall per round trip).
constexpr double kSmokeMaxP50Ms = 20.0;

core::TableGanOptions BenchModelOptions() {
  core::TableGanOptions opt;
  opt.latent_dim = 16;
  opt.base_channels = 8;
  opt.epochs = 1;
  opt.batch_size = 64;
  opt.num_threads = 1;
  opt.verbose = false;
  return opt;
}

core::TableGan FitBenchGan() {
  Rng rng(7);
  data::Table table = data::MakeAdultLike(512, &rng);
  const int label_col =
      table.schema().ColumnsWithRole(data::ColumnRole::kLabel)[0];
  core::TableGan gan(BenchModelOptions());
  TABLEGAN_CHECK_OK(gan.Fit(table, label_col));
  return gan;
}

struct LevelResult {
  int clients = 0;
  int requests = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double rows_per_sec = 0.0;
};

double Percentile(std::vector<double>* sorted_ms, double p) {
  if (sorted_ms->empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_ms->size() - 1) + 0.5);
  return (*sorted_ms)[std::min(idx, sorted_ms->size() - 1)];
}

/// Runs `requests_per_client` sequential requests on each of `clients`
/// connections; request i of client c fetches rows
/// [(c + i*clients) * kRowsPerRequest, ...) so ranges are disjoint and
/// spread across the logical table.
LevelResult RunLevel(int port, int clients, int requests_per_client,
                     uint64_t seed) {
  std::vector<std::vector<double>> lat(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  Stopwatch wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        failures.fetch_add(requests_per_client);
        return;
      }
      for (int i = 0; i < requests_per_client; ++i) {
        const int64_t first =
            (static_cast<int64_t>(i) * clients + c) * kRowsPerRequest;
        Stopwatch one;
        auto got = client.SampleRange(kModelId, seed, first,
                                      first + kRowsPerRequest,
                                      serve::Format::kCsvNoHeader);
        if (!got.ok()) {
          failures.fetch_add(1);
          continue;
        }
        lat[static_cast<size_t>(c)].push_back(one.ElapsedMillis());
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = wall.ElapsedSeconds();
  TABLEGAN_CHECK(failures.load() == 0)
      << failures.load() << " failed requests at " << clients << " clients";

  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  LevelResult r;
  r.clients = clients;
  r.requests = static_cast<int>(all.size());
  r.p50_ms = Percentile(&all, 0.50);
  r.p95_ms = Percentile(&all, 0.95);
  r.p99_ms = Percentile(&all, 0.99);
  r.rows_per_sec = wall_s > 0.0
                       ? static_cast<double>(all.size()) *
                             static_cast<double>(kRowsPerRequest) / wall_s
                       : 0.0;
  return r;
}

int RunSmoke() {
  core::TableGan local = FitBenchGan();
  serve::ModelRegistry registry;
  TABLEGAN_CHECK_OK(registry.Add(kModelId, FitBenchGan()));
  serve::Server server(&registry, serve::ServerOptions());
  TABLEGAN_CHECK_OK(server.Start());
  const uint64_t seed = local.options().seed;

  // Bitwise contract first: remote shard == local SampleRange bytes.
  auto local_rows = local.SampleRange(seed, 128, 192);
  TABLEGAN_CHECK_OK(local_rows.status());
  auto local_csv =
      data::WriteCsvToString(*local_rows, /*include_header=*/false);
  TABLEGAN_CHECK_OK(local_csv.status());
  serve::Client probe;
  TABLEGAN_CHECK_OK(probe.Connect("127.0.0.1", server.port()));
  auto remote_csv = probe.SampleRange(kModelId, seed, 128, 192,
                                      serve::Format::kCsvNoHeader);
  TABLEGAN_CHECK_OK(remote_csv.status());
  if (*remote_csv != *local_csv) {
    std::fprintf(stderr,
                 "FAIL: remote rows [128,192) differ from local Sample "
                 "(%zu vs %zu bytes)\n",
                 remote_csv->size(), local_csv->size());
    return 1;
  }

  const LevelResult r = RunLevel(server.port(), 2, 8, seed);
  server.Shutdown();
  if (r.p50_ms > kSmokeMaxP50Ms) {
    std::fprintf(stderr,
                 "FAIL: smoke p50 %.2f ms exceeds the %.0f ms bound\n",
                 r.p50_ms, kSmokeMaxP50Ms);
    return 1;
  }
  std::printf("serve smoke OK: %d requests, p50 %.2f ms, %.0f rows/s, "
              "remote output bitwise identical to local Sample\n",
              r.requests, r.p50_ms, r.rows_per_sec);
  return 0;
}

void RunFull(const std::string& out_path) {
  bench::PrintHeader("Serve latency: loopback daemon, 64-row requests");
  serve::ModelRegistry registry;
  TABLEGAN_CHECK_OK(registry.Add(kModelId, FitBenchGan()));
  serve::ServerOptions opts;
  opts.num_workers = 16;  // enough for the widest client level
  serve::Server server(&registry, opts);
  TABLEGAN_CHECK_OK(server.Start());
  const uint64_t seed = BenchModelOptions().seed;

  const int total_requests =
      static_cast<int>(256 * std::max(0.125, bench::BenchScale()));
  const std::vector<int> levels{1, 4, 16};
  std::vector<LevelResult> results;
  const std::vector<int> widths{10, 12, 12, 12, 14};
  bench::PrintRow({"Clients", "p50 ms", "p95 ms", "p99 ms", "Rows/s"},
                  widths);
  for (int clients : levels) {
    const int per_client = std::max(1, total_requests / clients);
    // One untimed warmup round lets workers fault in stacks and the
    // first-connection costs stay out of the percentiles.
    RunLevel(server.port(), clients, 2, seed);
    LevelResult r = RunLevel(server.port(), clients, per_client, seed);
    results.push_back(r);
    bench::PrintRow({std::to_string(clients),
                     bench::FormatDouble(r.p50_ms, 2),
                     bench::FormatDouble(r.p95_ms, 2),
                     bench::FormatDouble(r.p99_ms, 2),
                     bench::FormatDouble(r.rows_per_sec, 0)},
                    widths);
  }
  server.Shutdown();

  std::ofstream out(out_path);
  TABLEGAN_CHECK(out.good());
  out << "{\n"
      << "  \"bench\": \"serve_latency\",\n"
      << "  \"rows_per_request\": " << kRowsPerRequest << ",\n"
      << "  \"num_workers\": " << opts.num_workers << ",\n"
      << "  \"levels\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const LevelResult& r = results[i];
    out << "    {\"clients\": " << r.clients
        << ", \"requests\": " << r.requests
        << ", \"p50_ms\": " << bench::JsonNumber(r.p50_ms, 3)
        << ", \"p95_ms\": " << bench::JsonNumber(r.p95_ms, 3)
        << ", \"p99_ms\": " << bench::JsonNumber(r.p99_ms, 3)
        << ", \"rows_per_sec\": " << bench::JsonNumber(r.rows_per_sec, 1)
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nWrote %s\n", out_path.c_str());
}

}  // namespace
}  // namespace tablegan

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return tablegan::RunSmoke();
  }
  tablegan::RunFull(argc > 1 ? argv[1] : "BENCH_serve.json");
  return 0;
}
