#ifndef TABLEGAN_COMMON_METRICS_H_
#define TABLEGAN_COMMON_METRICS_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace tablegan {

/// One machine-readable record per training epoch: the loss terms of
/// Algorithm 2 (the trajectories behind the paper's Fig. 4-6 runs),
/// per-phase wall time, and throughput. Loss fields mirror
/// core::EpochStats; timing fields come from Stopwatch around the three
/// optimizer phases of the training loop.
struct TrainingMetrics {
  int64_t epoch = 0;         // 1-based index of the completed epoch
  int64_t total_epochs = 0;  // configured target
  double d_loss = 0.0;       // discriminator BCE (real + fake halves)
  double g_loss = 0.0;       // generator adversarial loss
  double info_loss = 0.0;    // hinge information loss (Eq. 4)
  double class_loss = 0.0;   // classifier discrepancy (Eq. 5)
  double l_mean = 0.0;       // relative first-order statistics gap
  double l_sd = 0.0;         // relative second-order statistics gap
  double d_seconds = 0.0;    // wall time in discriminator updates
  double c_seconds = 0.0;    // wall time in classifier updates
  double g_seconds = 0.0;    // wall time in generator updates
  double epoch_seconds = 0.0;
  int64_t examples = 0;      // training examples consumed this epoch
  double examples_per_sec = 0.0;
  // Always 0, and not written to the JSONL record. They remain only
  // because e2ebench/src/bench.cc:63-64 reads them for its
  // tensor.workspace.hit_ratio metric; they go when that metric does.
  int64_t workspace_allocs = 0;
  int64_t workspace_reuses = 0;
  // Divergence-guardrail observability (DESIGN.md §15): the loss-EWMA
  // the guard tracks, and a human-readable anomaly description when
  // this epoch tripped it (empty = healthy). Non-finite losses are
  // serialized as JSON null, so `anomaly` is also what tells a
  // downstream parser *why* a null appeared.
  double loss_ewma = 0.0;
  std::string anomaly;
};

/// A discrete training event (as opposed to the per-epoch metrics
/// stream): currently `diverged`, emitted when the guardrail fires.
struct TrainingEvent {
  std::string event;            // e.g. "diverged"
  int64_t epoch = 0;            // epoch the event fired on (1-based)
  std::string detail;           // anomaly description
  std::string checkpoint_path;  // last-good auto-checkpoint, if written
};

/// Pluggable per-epoch telemetry consumer. The training loop calls
/// Record once per completed epoch; a non-OK return aborts training with
/// that status (telemetry the caller asked for must not be lost
/// silently — mid-run state is recoverable via checkpoints).
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  virtual Status Record(const TrainingMetrics& metrics) = 0;
  /// Discrete events (guardrail triggers). Default: ignored, so existing
  /// sinks keep compiling; JsonlMetricsSink writes an event record.
  virtual Status RecordEvent(const TrainingEvent& event) {
    (void)event;
    return Status::OK();
  }
};

/// Streams each record as one JSON object per line (JSONL), flushed per
/// record so a killed run keeps every completed epoch on disk. The
/// schema is documented in DESIGN.md §9.
class JsonlMetricsSink : public MetricsSink {
 public:
  /// Opens `path` for writing; `append` keeps existing records (used
  /// when resuming a checkpointed run).
  JsonlMetricsSink(const std::string& path, bool append = false);

  /// Non-OK if the file could not be opened.
  const Status& status() const { return status_; }

  Status Record(const TrainingMetrics& metrics) override;
  Status RecordEvent(const TrainingEvent& event) override;

 private:
  std::string path_;
  std::ofstream out_;
  Status status_;
};

/// Per-epoch loss watchdog behind the training-stability guardrail
/// (DESIGN.md §15). Observe() folds the epoch's loss terms into an EWMA
/// of their total magnitude and reports an anomaly when
///  - any observed loss is non-finite (always armed), or
///  - the EWMA exceeds `runaway_factor` times the baseline established
///    over the first `warmup_epochs` healthy epochs.
///
/// The guard only *reads* losses — arming it never changes the training
/// arithmetic. State is tiny (two doubles + two counters) and is
/// serialized in checkpoint format v5 so a resumed run replays the same
/// guard decisions.
class DivergenceGuard {
 public:
  DivergenceGuard(double ewma_weight, double runaway_factor,
                  int warmup_epochs);

  /// Folds one epoch's named loss values into the EWMA. Returns an
  /// empty string when healthy, else a description of the anomaly
  /// ("non-finite d_loss", "runaway loss EWMA ..."). A non-finite or
  /// runaway epoch does NOT update the EWMA (the poisoned value would
  /// stick in the statistics).
  std::string Observe(
      const std::vector<std::pair<const char*, double>>& losses);

  double ewma() const { return ewma_; }
  double baseline() const { return baseline_; }

  /// --- Checkpoint state (v5 training section) -----------------------
  int64_t observed_epochs() const { return observed_; }
  void Restore(double ewma, double baseline, int64_t observed) {
    ewma_ = ewma;
    baseline_ = baseline;
    observed_ = observed;
  }

 private:
  double w_, factor_;
  int warmup_;
  double ewma_ = 0.0;
  double baseline_ = 0.0;
  int64_t observed_ = 0;  // healthy epochs folded into the EWMA
};

}  // namespace tablegan

#endif  // TABLEGAN_COMMON_METRICS_H_
