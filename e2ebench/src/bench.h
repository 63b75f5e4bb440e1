#ifndef E2EBENCH_BENCH_H_
#define E2EBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "core/table_gan.h"
#include "core/table_gan_options.h"
#include "data/table_view.h"
#include "stats.h"
#include "trace.h"

namespace e2ebench {

/// Threads or connections driving load, set explicitly in code (the
/// library's environment fallbacks are refused at start-up).
constexpr int kThreads = 4;

/// What a workload gets from the command line.
struct Context {
  uint64_t seed = 1;
  double seconds = 10.0;
  Tracer* tracer = nullptr;
  /// Scratch directory for the run's files; removed at exit.
  std::string work_dir;
};

/// What a workload reports. The four end-to-end values share one meaning
/// on every workload (see README.md): set-up seconds (median of several
/// set-ups), rows of output per second of the timed window, and the
/// median latency of the workload's unit operation.
struct Outcome {
  OpCounter ops;
  double setup_s = 0.0;
  double rows_per_s = 0.0;
  double p50_ms = 0.0;
  /// Per-layer metric values by name; names absent here print as 0 (the
  /// workload does not exercise that layer).
  std::map<std::string, double> layer;
};

void RunTrainLacity(const Context& ctx, Outcome* out);
void RunServeMixed(const Context& ctx, Outcome* out);
void RunReleaseAudit(const Context& ctx, Outcome* out);

/// Prints one "# " report line (stdout, before the result line).
void Note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Median of the set-up repetitions; notes their count and range.
double SetupSeconds(const std::vector<double>& reps);

/// Set-up and fixture calls that must succeed for the run to mean
/// anything: a failure throws, and the run exits non-zero without a
/// result line. Failures of measured operations are counted instead.
void Must(const tablegan::Status& status, const char* what);
template <typename T>
T Must(tablegan::Result<T> result, const char* what) {
  Must(result.status(), what);
  return std::move(result).value();
}

/// Per-epoch TrainingMetrics of the Fit calls made with options passed
/// through Attach, reduced to the core.fit.* and tensor.workspace.*
/// per-layer metrics.
class FitLog {
 public:
  /// Installs a metrics_callback on `options` that appends to this log
  /// and, when tracing, records a core.epoch span ending at the callback.
  void Attach(tablegan::core::TableGanOptions* options, Tracer* tracer);
  /// Drops the epochs recorded so far.
  void Clear() { epochs_.clear(); }
  const std::vector<tablegan::TrainingMetrics>& epochs() const {
    return epochs_;
  }
  /// True when every loss recorded from epoch index `first` on is finite
  /// and none of those epochs reported an anomaly.
  bool Healthy(size_t first = 0) const;
  /// core.fit.{d,c,g,other}_s (median over steady epochs, or over all
  /// epochs when every Fit ran a single one), core.fit.first_epoch_s,
  /// core.fit.steady_epoch_s and tensor.workspace.hit_ratio.
  void Summarize(std::map<std::string, double>* layer) const;

 private:
  std::vector<tablegan::TrainingMetrics> epochs_;
};

/// nn.step_share: the replayed conv, conv-transpose and dense time of one
/// training step (nn.step_ms) times the steps of one epoch, as a share of
/// the measured steady epoch. Requires Summarize and ReplayNetworks to
/// have filled `layer`.
void AddStepShare(int64_t rows, int batch, std::map<std::string, double>* layer);

/// core.sample_range_ms.{64,1024} and data.csv_encode_ms.{64,1024}:
/// medians of replayed SampleRange calls on `gan` at the serve request
/// sizes, and of CSV-encoding their rows.
void ReplayGanRanges(const tablegan::core::TableGan& gan, uint64_t seed,
                     Tracer* tracer, std::map<std::string, double>* layer);

/// data.columnar_range_ms.{64,1024}: medians of materializing row ranges
/// of a columnar table, as the serve layer's table source does.
void ReplayColumnarRanges(const tablegan::data::TableView& table,
                          Tracer* tracer,
                          std::map<std::string, double>* layer);

/// Median wall milliseconds of `reps` calls of `f`, after one untimed
/// warm-up call.
template <typename F>
double MedianMs(int reps, F&& f) {
  f();
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    f();
    ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  }
  return Median(ms);
}

/// Seconds between two NowNs() readings.
inline double Seconds(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

/// Whether one more unit of work, expected to last as long as the one
/// that started at `unit_start_ns` and just ended, still ends inside the
/// window of `seconds` that began at `window_start_ns`.
inline bool AnotherFits(int64_t window_start_ns, int64_t unit_start_ns,
                        double seconds) {
  const int64_t now = NowNs();
  return Seconds(window_start_ns, now) + Seconds(unit_start_ns, now) <=
         seconds;
}

}  // namespace e2ebench

#endif  // E2EBENCH_BENCH_H_
