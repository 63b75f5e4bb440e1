// release-audit: the owner's release followed by the paper's audit. The
// release synthesizes kReleaseRows rows through TableGan::SampleRange and
// CSV-encodes them; the audit compares the first kOriginalRows released
// rows with the original table: DCR on both column sets (§5.1.2), the
// statistical-fidelity report, and the 40-classifier model-compatibility
// grid (§5.2), each classifier fit on the original and on the release and
// scored on held-out rows. The ml, privacy and eval layers do nearly all
// the work.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "common/crc32.h"
#include "core/table_gan.h"
#include "data/csv.h"
#include "data/datasets.h"
#include "eval/fidelity.h"
#include "ml/metrics.h"
#include "ml/ml_data.h"
#include "ml/model_zoo.h"
#include "nn_replay.h"
#include "privacy/dcr.h"

namespace e2ebench {

using tablegan::Rng;
using tablegan::core::TableGan;
using tablegan::core::TableGanOptions;
namespace data = tablegan::data;
namespace ml = tablegan::ml;

namespace {

constexpr int64_t kOriginalRows = 1024;
constexpr int64_t kTestRows = 512;
constexpr int kFitEpochs = 2;
/// Set-up repetitions before and after the timed window, so their median
/// spans the host load of the whole run.
constexpr int kSetupsBefore = 4;
constexpr int kSetupsAfter = 3;
constexpr int64_t kReleaseRows = int64_t{1} << 17;
constexpr int64_t kChunkRows = RequestMix::kLargeRows;

/// What one release-audit cycle produced; equal across the cycles of a
/// run, since every cycle releases and audits the same rows.
struct CycleResult {
  uint32_t release_digest = 0;
  std::vector<double> values;  // DCR, fidelity and F1 figures, in order
  bool ok = true;
};

bool InUnit(double v) { return std::isfinite(v) && v >= 0.0 && v <= 1.0; }

struct Inputs {
  data::Table original, test;
  int label_col = -1;
  int drop_col = -1;  // the label's source column, kept out of features
};

/// Releases rows [0, kReleaseRows) in chunks; returns the CSV digest and
/// keeps the first kOriginalRows rows in `*head`.
uint32_t Release(const TableGan& gan, uint64_t seed, Tracer* tracer,
                 data::Table* head, double* sample_s, double* encode_s,
                 bool* ok) {
  uint32_t crc = 0;
  for (int64_t b = 0; b < kReleaseRows; b += kChunkRows) {
    int64_t t0 = NowNs();
    tablegan::Result<data::Table> rows = [&] {
      ScopedSpan s(tracer, "core.TableGan.SampleRange");
      return gan.SampleRange(seed, b, b + kChunkRows);
    }();
    int64_t t1 = NowNs();
    *sample_s += Seconds(t0, t1);
    if (!rows.ok() || rows->num_rows() != kChunkRows) {
      *ok = false;
      return 0;
    }
    tablegan::Result<std::string> csv = [&] {
      ScopedSpan s(tracer, "data.WriteCsvToString");
      return data::WriteCsvToString(*rows, /*include_header=*/b == 0);
    }();
    *encode_s += Seconds(t1, NowNs());
    if (!csv.ok()) {
      *ok = false;
      return 0;
    }
    {
      ScopedSpan s(tracer, "common.Crc32");
      crc = tablegan::Crc32(csv->data(), csv->size(), crc);
    }
    if (b == 0) {
      *head = data::TableRangeView(*rows, 0, kOriginalRows).Materialize();
    }
  }
  return crc;
}

/// Runs the audit of `released` against the original; appends every
/// figure to `result` and the seconds of each step to `step_s`: the two
/// DCRs as privacy.dcr_s, the fidelity report as eval.fidelity_s, and
/// each classifier spec, fit twice and scored, under "ml/<spec name>".
void Audit(const Inputs& in, const data::Table& released, Tracer* tracer,
           CycleResult* result, std::map<std::string, double>* step_s) {
  auto add = [&](double v) {
    result->values.push_back(v);
    return v;
  };
  int64_t t0 = NowNs();
  for (const std::vector<int>& cols :
       {tablegan::privacy::QidAndSensitiveColumns(in.original.schema()),
        tablegan::privacy::SensitiveOnlyColumns(in.original.schema())}) {
    tablegan::Result<tablegan::privacy::DcrResult> dcr = [&] {
      ScopedSpan s(tracer, "privacy.ComputeDcr");
      return tablegan::privacy::ComputeDcr(in.original, released, cols);
    }();
    result->ok &= dcr.ok() && std::isfinite(add(dcr->mean)) &&
                  dcr->mean >= 0 && std::isfinite(add(dcr->stddev)) &&
                  dcr->stddev >= 0;
  }
  int64_t t1 = NowNs();
  (*step_s)["privacy.dcr_s"] = Seconds(t0, t1);

  tablegan::Result<tablegan::eval::FidelityReport> fid = [&] {
    ScopedSpan s(tracer, "eval.EvaluateFidelity");
    return tablegan::eval::EvaluateFidelity(in.original, released);
  }();
  (*step_s)["eval.fidelity_s"] = Seconds(t1, NowNs());
  result->ok &= fid.ok();
  if (fid.ok()) {
    for (const tablegan::eval::ColumnFidelity& c : fid->columns) {
      result->ok &= InUnit(add(c.ks)) && InUnit(add(c.tv));
    }
    result->ok &= InUnit(add(fid->mean_ks)) && InUnit(add(fid->worst_ks)) &&
                  std::isfinite(add(fid->correlation_difference)) &&
                  fid->correlation_difference >= 0 &&
                  add(fid->pmse) >= 0 && fid->pmse <= 0.25;
  }

  // Model compatibility: each spec fit on the original and on the release,
  // both scored by F1 on the held-out rows.
  const std::vector<int> drop = {in.drop_col};
  const ml::MlData train_orig =
      Must(ml::TableToMlData(in.original, in.label_col, drop), "ml data");
  const ml::MlData train_rel =
      Must(ml::TableToMlData(released, in.label_col, drop), "ml data");
  const ml::MlData test =
      Must(ml::TableToMlData(in.test, in.label_col, drop), "ml data");
  std::vector<int> truth;
  for (double y : test.y) truth.push_back(y > 0.5 ? 1 : 0);
  for (const ml::ClassifierSpec& spec : ml::ModelCompatibilityClassifiers()) {
    const std::string family = spec.name.substr(0, spec.name.find('/'));
    const int64_t s0 = NowNs();
    for (const ml::MlData* train : {&train_orig, &train_rel}) {
      ScopedSpan s(tracer, "ml." + family + ".FitScore");
      std::unique_ptr<ml::Classifier> model = spec.make();
      const bool fit = model->Fit(*train).ok();
      result->ok &= fit && InUnit(add(ml::F1Score(truth, model->PredictAll(test))));
    }
    (*step_s)["ml/" + spec.name] = Seconds(s0, NowNs());
  }
}

}  // namespace

void RunReleaseAudit(const Context& ctx, Outcome* out) {
  Tracer* tracer = ctx.tracer;

  // One set-up: build the original and held-out tables, train a side-4
  // Adult model with a fixed seed. Every repetition rebuilds the same
  // inputs and model.
  FitLog log;
  Inputs in;
  std::unique_ptr<TableGan> gan;
  std::vector<double> setup_s;
  auto set_up = [&] {
    log.Clear();
    gan.reset();
    const int64_t t0 = NowNs();
    Rng rng(ctx.seed);
    const data::Table all = data::MakeAdultLike(kOriginalRows + kTestRows, &rng);
    in.original = data::TableRangeView(all, 0, kOriginalRows).Materialize();
    in.test = data::TableRangeView(all, kOriginalRows, kTestRows).Materialize();
    in.label_col = all.schema().ColumnsWithRole(data::ColumnRole::kLabel).at(0);
    in.drop_col = Must(all.schema().FindColumn("hours_per_week"), "column");
    TableGanOptions options = TableGanOptions::LowPrivacy();
    options.epochs = kFitEpochs;
    options.num_threads = kThreads;
    options.seed = ctx.seed;
    log.Attach(&options, tracer);
    gan = std::make_unique<TableGan>(options);
    {
      ScopedSpan s(tracer, "core.TableGan.Fit");
      Must(gan->Fit(in.original, in.label_col), "Fit");
    }
    setup_s.push_back(Seconds(t0, NowNs()));
    if (!log.Healthy()) throw std::runtime_error("set-up Fit diverged");
  };
  for (int i = 0; i < kSetupsBefore; ++i) set_up();

  // Timed window: release-audit cycles, each over the same release.
  std::optional<CycleResult> first;
  std::vector<double> cycle_ms, sample_s, encode_s;
  std::map<std::string, std::vector<double>> step_s;
  std::vector<double> release_s;
  const int64_t start = NowNs();
  int64_t t0;
  do {
    t0 = NowNs();
    CycleResult r;
    data::Table head;
    double gen = 0.0, enc = 0.0;
    r.release_digest = Release(*gan, ctx.seed, tracer, &head, &gen, &enc, &r.ok);
    const int64_t t1 = NowNs();
    release_s.push_back(Seconds(t0, t1));
    out->ops.Record(r.ok);
    std::map<std::string, double> steps;
    if (r.ok) Audit(in, head, tracer, &r, &steps);
    cycle_ms.push_back(Seconds(t0, NowNs()) * 1e3);
    sample_s.push_back(gen);
    encode_s.push_back(enc);
    for (const auto& [name, s] : steps) step_s[name].push_back(s);
    // The audit is the second operation of the cycle; its figures must
    // match the first cycle's, as the release does.
    bool same = true;
    if (first.has_value()) {
      same = r.release_digest == first->release_digest &&
             r.values == first->values;
    } else {
      first = r;
    }
    out->ops.Record(r.ok && same);
  } while (AnotherFits(start, t0, ctx.seconds));
  for (int i = 0; i < kSetupsAfter; ++i) set_up();
  out->setup_s = SetupSeconds(setup_s);

  // Every cycle does the same work, so the typical cycle is the release
  // plus each audit step at its median over the run's cycles: a burst of
  // outside contention then moves one step of one cycle, not the figure.
  std::map<std::string, double> step_median;
  double typical_s = Median(release_s);
  for (const auto& [name, s] : step_s) {
    step_median[name] = Median(s);
    typical_s += step_median[name];
  }
  out->rows_per_s = static_cast<double>(kReleaseRows) / Median(release_s);
  out->p50_ms = typical_s * 1e3;
  const auto [lo, hi] = std::minmax_element(cycle_ms.begin(), cycle_ms.end());
  Note("release-audit: %zu cycles of %lld released rows + audit of %lld "
       "rows; cycle min %.3f / median %.3f / max %.3f ms; median release "
       "%.3f s; release CSV digest %08x; %zu audit figures checked",
       cycle_ms.size(), static_cast<long long>(kReleaseRows),
       static_cast<long long>(kOriginalRows), *lo, out->p50_ms, *hi,
       Median(release_s), first->release_digest, first->values.size());
  if (!tracer->enabled()) return;

  log.Summarize(&out->layer);
  out->layer["core.sample_range_s"] = Median(sample_s);
  out->layer["data.csv_encode_s"] = Median(encode_s);
  for (const auto& [name, s] : step_median) {
    if (name.rfind("ml/", 0) == 0) {
      out->layer["ml.compat." + name.substr(3, name.find('/', 3) - 3) + "_s"] += s;
    } else {
      out->layer[name] = s;
    }
  }
  ReplayGanRanges(*gan, ctx.seed, tracer, &out->layer);
  const TableGanOptions& o = gan->options();
  ReplayNetworks({gan->side(), o.latent_dim, o.base_channels, o.batch_size},
                 RequestMix::kSmallRows, tracer, &out->layer);
  AddStepShare(kOriginalRows, o.batch_size, &out->layer);
}

}  // namespace e2ebench
