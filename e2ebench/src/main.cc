// End-to-end benchmark of table-GAN. One run executes one workload for a
// fixed number of seconds with inputs derived from --seed, checks its
// outputs, and prints "# " report lines followed by one JSON result line:
//
//   e2ebench --workload <train-lacity|serve-mixed|release-audit>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--git-sha <sha>] [--source-digest <hex>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records a span around
// every layer call the benchmark makes, replays the per-layer probes and
// prints the per-layer metrics instead, writing the spans as a Chrome
// trace-event file to .bench_build/traces/. Exit code 0 only when every
// output check passed.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "common/parallel.h"
#include "tensor/kernels/kernels.h"

namespace e2ebench {
namespace {

/// Variables through which the library would pick its own thread count,
/// ISA, failpoints or output files. A run with any of them set would not
/// measure the configuration this benchmark names, so it refuses to start.
constexpr const char* kPinnedEnv[] = {
    "TABLEGAN_NUM_THREADS", "TABLEGAN_ISA",         "TABLEGAN_FMA",
    "TABLEGAN_FAILPOINTS",  "TABLEGAN_BENCH_SCALE", "TABLEGAN_METRICS_OUT",
};

/// Every per-layer metric, in output order. A workload that does not
/// exercise a layer reports 0 for its metrics.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"core.fit.d_s", "s"},
    {"core.fit.c_s", "s"},
    {"core.fit.g_s", "s"},
    {"core.fit.other_s", "s"},
    {"core.fit.first_epoch_s", "s"},
    {"core.fit.steady_epoch_s", "s"},
    {"tensor.workspace.hit_ratio", "ratio"},
    {"nn.G.dense.fwd_ms", "ms"},
    {"nn.G.dense.bwd_ms", "ms"},
    {"nn.G.dense.gflops", "GFLOP/s"},
    {"nn.G.convT.fwd_ms", "ms"},
    {"nn.G.convT.bwd_ms", "ms"},
    {"nn.G.convT.gflops", "GFLOP/s"},
    {"nn.D.conv.fwd_ms", "ms"},
    {"nn.D.conv.bwd_ms", "ms"},
    {"nn.D.conv.gflops", "GFLOP/s"},
    {"nn.D.dense.fwd_ms", "ms"},
    {"nn.D.dense.bwd_ms", "ms"},
    {"nn.D.dense.gflops", "GFLOP/s"},
    {"nn.G.elementwise_ms", "ms"},
    {"nn.D.elementwise_ms", "ms"},
    {"nn.adam_ms", "ms"},
    {"nn.step_ms", "ms"},
    {"nn.step_gflop", "GFLOP"},
    {"nn.step_share", "ratio"},
    {"nn.G.infer_ms", "ms"},
    {"core.sample_range_ms.64", "ms"},
    {"core.sample_range_ms.1024", "ms"},
    {"data.columnar_range_ms.64", "ms"},
    {"data.columnar_range_ms.1024", "ms"},
    {"data.csv_encode_ms.64", "ms"},
    {"data.csv_encode_ms.1024", "ms"},
    {"serve.transport_wait_ms", "ms"},
    {"serve.codec_us", "us"},
    {"serve.bytes_per_row", "B/row"},
    {"serve.busy_frac", "ratio"},
    {"serve.p99_ms", "ms"},
    {"serve.accepted", "count"},
    {"serve.rejected_busy", "count"},
    {"serve.requests_ok", "count"},
    {"serve.requests_error", "count"},
    {"core.load_ms", "ms"},
    {"data.columnar_open_ms", "ms"},
    {"serve.start_ms", "ms"},
    {"core.sample_range_s", "s"},
    {"data.csv_encode_s", "s"},
    {"privacy.dcr_s", "s"},
    {"eval.fidelity_s", "s"},
    {"ml.compat.tree_s", "s"},
    {"ml.compat.forest_s", "s"},
    {"ml.compat.adaboost_s", "s"},
    {"ml.compat.mlp_s", "s"},
    {"common.self_s", "s"},
    {"nn.self_s", "s"},
    {"core.self_s", "s"},
    {"data.self_s", "s"},
    {"serve.self_s", "s"},
    {"privacy.self_s", "s"},
    {"eval.self_s", "s"},
    {"ml.self_s", "s"},
};

constexpr int kOverheadProbes = 100000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "<train-lacity|serve-mixed|release-audit> --seed <n> "
               "--seconds <s> --trace <0|1> [--git-sha <sha>] "
               "[--source-digest <hex>]\n",
               error.c_str());
  std::exit(2);
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  *out = std::stoull(s);
  return true;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &a.seed)) Usage("bad value for --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n < 1 || n > 600) {
        Usage("bad value for --seconds");
      }
      a.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad value for --trace");
      a.trace = value == "1";
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else if (flag == "--source-digest") {
      a.source_digest = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds == 0.0 || a.trace < 0) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PrintProvenance(const Args& a) {
  const bool release = std::strcmp(E2EBENCH_BUILD_TYPE, "Release") == 0;
  const std::vector<std::pair<const char*, std::string>> fields = {
      {"git_sha", a.git_sha},
      {"source_digest", a.source_digest},
      {"cpu", CpuModel()},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"isa", tablegan::kernels::Active().name},
      {"build_type", E2EBENCH_BUILD_TYPE},
      {"compiler", std::string("g++ ") + __VERSION__},
      {"threads", std::to_string(kThreads)},
      {"workload", a.workload},
      {"seed", std::to_string(a.seed)},
      {"seconds", std::to_string(static_cast<int>(a.seconds))},
      {"trace", std::to_string(a.trace)},
  };
  std::string json = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(fields[i].first) + ": " + JsonString(fields[i].second);
  }
  json += std::string(", \"release_build\": ") + (release ? "true" : "false");
  Note("provenance %s}", json.c_str());
  if (!release) {
    Note("WARNING: %s build; timings are not comparable to a Release build",
         E2EBENCH_BUILD_TYPE);
  }
}

int Main(int argc, char** argv) {
  for (const char* var : kPinnedEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "e2ebench: refusing to start: %s is set; unset it so the "
                   "run measures the pinned configuration\n",
                   var);
      return 2;
    }
  }
  const Args args = ParseArgs(argc, argv);
  void (*run)(const Context&, Outcome*) = nullptr;
  if (args.workload == "train-lacity") run = &RunTrainLacity;
  if (args.workload == "serve-mixed") run = &RunServeMixed;
  if (args.workload == "release-audit") run = &RunReleaseAudit;
  if (run == nullptr) Usage("unknown workload '" + args.workload + "'");

  tablegan::SetNumThreads(kThreads);
  PrintProvenance(args);

  Tracer tracer(args.trace == 1);
  Context ctx;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.tracer = &tracer;
  ctx.work_dir = ".bench_build/run/" + args.workload + "-" +
                 std::to_string(static_cast<long>(getpid()));
  std::filesystem::create_directories(ctx.work_dir);

  Outcome out;
  bool completed = true;
  try {
    ScopedSpan root(&tracer, "bench." + args.workload);
    run(ctx, &out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s: %s\n", args.workload.c_str(), e.what());
    completed = false;
  }
  std::error_code ignored;
  std::filesystem::remove_all(ctx.work_dir, ignored);
  if (!completed) return 1;

  const double rss = PeakRssMb();
  Note("end-to-end: setup_s %.6f s | peak_rss_mb %.3f MB | rows_per_s %.3f "
       "rows/s | p50_ms %.6f ms | failed_frac %.6f (%lld of %lld failed)",
       out.setup_s, rss, out.rows_per_s, out.p50_ms, out.ops.failed_frac(),
       static_cast<long long>(out.ops.failed()),
       static_cast<long long>(out.ops.attempted()));

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {{"setup_s", out.setup_s, "s"},
               {"peak_rss_mb", rss, "MB"},
               {"rows_per_s", out.rows_per_s, "rows/s"},
               {"p50_ms", out.p50_ms, "ms"}};
  } else {
    // bench.* spans are the benchmark's own framing, not a layer.
    for (const auto& [layer, self_s] : SelfSecondsByLayer(tracer.spans())) {
      if (layer != "bench") out.layer[layer + ".self_s"] = self_s;
    }
    for (const auto& [name, unit] : kLayerMetrics) {
      auto it = out.layer.find(name);
      metrics.push_back({name, it == out.layer.end() ? 0.0 : it->second, unit});
    }
    const std::string dir = ".bench_build/traces";
    const std::string path = dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    std::filesystem::create_directories(dir);
    // Tracing overhead: the cost of one span, measured here, times the
    // spans the run recorded bounds what tracing added to it.
    Tracer probe(true);
    const int64_t probe_start = NowNs();
    for (int i = 0; i < kOverheadProbes; ++i) {
      ScopedSpan s(&probe, "bench.overhead_probe");
    }
    const double span_ns =
        static_cast<double>(NowNs() - probe_start) / kOverheadProbes;
    const size_t spans = tracer.spans().size();
    Note("trace overhead: %zu spans x %.1f ns per span = %.3f ms for the run",
         spans, span_ns, static_cast<double>(spans) * span_ns * 1e-6);
    if (tracer.WriteChromeTrace(path)) {
      Note("trace: %zu spans written to %s", spans, path.c_str());
    } else {
      Note("trace: could not write %s", path.c_str());
    }
    for (const Metric& m : metrics) {
      Note("layer %-30s %.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  const bool correct = out.ops.failed() == 0 && out.ops.attempted() > 0;
  std::printf("%s\n", ResultJson(correct, out.ops.attempted(),
                                 out.ops.failed(), metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
