#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "data/csv.h"

namespace e2ebench {

void Note(const char* fmt, ...) {
  std::fputs("# ", stdout);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::fputc('\n', stdout);
}

double SetupSeconds(const std::vector<double>& reps) {
  const auto [lo, hi] = std::minmax_element(reps.begin(), reps.end());
  const double median = Median(reps);
  Note("set-up: %zu repetitions, min %.6f / median %.6f / max %.6f s",
       reps.size(), *lo, median, *hi);
  return median;
}

void Must(const tablegan::Status& status, const char* what) {
  if (!status.ok()) {
    throw std::runtime_error(std::string(what) + ": " + status.ToString());
  }
}

void FitLog::Attach(tablegan::core::TableGanOptions* options,
                    Tracer* tracer) {
  options->metrics_callback = [this, tracer](const tablegan::TrainingMetrics& m) {
    const int64_t now = NowNs();
    tracer->Record("core.epoch",
                   now - static_cast<int64_t>(m.epoch_seconds * 1e9), now);
    epochs_.push_back(m);
  };
}

bool FitLog::Healthy(size_t first) const {
  for (size_t i = first; i < epochs_.size(); ++i) {
    const tablegan::TrainingMetrics& m = epochs_[i];
    for (double v : {m.d_loss, m.g_loss, m.info_loss, m.class_loss}) {
      if (!std::isfinite(v)) return false;
    }
    if (!m.anomaly.empty()) return false;
  }
  return true;
}

void FitLog::Summarize(std::map<std::string, double>* layer) const {
  std::vector<double> first, steady, d, c, g, other;
  bool any_steady = false;
  for (const tablegan::TrainingMetrics& m : epochs_) any_steady |= m.epoch > 1;
  int64_t reuses = 0, allocs = 0;
  for (const tablegan::TrainingMetrics& m : epochs_) {
    reuses += m.workspace_reuses;
    allocs += m.workspace_allocs;
    (m.epoch == 1 ? first : steady).push_back(m.epoch_seconds);
    if (any_steady && m.epoch == 1) continue;
    d.push_back(m.d_seconds);
    c.push_back(m.c_seconds);
    g.push_back(m.g_seconds);
    other.push_back(m.epoch_seconds - m.d_seconds - m.c_seconds - m.g_seconds);
  }
  (*layer)["core.fit.d_s"] = Median(d);
  (*layer)["core.fit.c_s"] = Median(c);
  (*layer)["core.fit.g_s"] = Median(g);
  (*layer)["core.fit.other_s"] = Median(other);
  (*layer)["core.fit.first_epoch_s"] = Median(first);
  (*layer)["core.fit.steady_epoch_s"] = Median(any_steady ? steady : first);
  (*layer)["tensor.workspace.hit_ratio"] =
      reuses + allocs == 0 ? 0.0
                           : static_cast<double>(reuses) /
                                 static_cast<double>(reuses + allocs);
}

void AddStepShare(int64_t rows, int batch,
                  std::map<std::string, double>* layer) {
  const double steps = std::ceil(static_cast<double>(rows) / batch);
  const double epoch_s = (*layer)["core.fit.steady_epoch_s"];
  (*layer)["nn.step_share"] =
      epoch_s > 0 ? (*layer)["nn.step_ms"] * 1e-3 * steps / epoch_s : 0.0;
}

namespace {
constexpr int kReplays = 15;
}  // namespace

void ReplayGanRanges(const tablegan::core::TableGan& gan, uint64_t seed,
                     Tracer* tracer, std::map<std::string, double>* layer) {
  for (int64_t rows : {RequestMix::kSmallRows, RequestMix::kLargeRows}) {
    const std::string n = std::to_string(rows);
    int64_t begin = int64_t{1} << 32;
    tablegan::data::Table last;
    (*layer)["core.sample_range_ms." + n] = MedianMs(kReplays, [&] {
      ScopedSpan s(tracer, "core.TableGan.SampleRange");
      last = Must(gan.SampleRange(seed, begin, begin + rows), "SampleRange");
      begin += rows;
    });
    (*layer)["data.csv_encode_ms." + n] = MedianMs(kReplays, [&] {
      ScopedSpan s(tracer, "data.WriteCsvToString");
      (void)Must(tablegan::data::WriteCsvToString(last, false), "CSV encode");
    });
  }
}

void ReplayColumnarRanges(const tablegan::data::TableView& table,
                          Tracer* tracer,
                          std::map<std::string, double>* layer) {
  for (int64_t rows : {RequestMix::kSmallRows, RequestMix::kLargeRows}) {
    int64_t begin = 0;
    (*layer)["data.columnar_range_ms." + std::to_string(rows)] =
        MedianMs(kReplays, [&] {
          if (begin + rows > table.num_rows()) begin = 0;
          ScopedSpan s(tracer, "data.TableRangeView.Materialize");
          (void)tablegan::data::TableRangeView(table, begin, rows)
              .Materialize();
          begin += rows;
        });
  }
}

}  // namespace e2ebench
