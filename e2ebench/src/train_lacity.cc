// train-lacity: the owner trains table-GAN with the paper defaults on a
// LACity-like table (24 columns, side 8) read out-of-core from a TGCL0001
// columnar file. GEMM, im2col and the trainer do nearly all the work; the
// serve, privacy, eval and ml layers do none.

#include <algorithm>
#include <memory>
#include <optional>

#include "bench.h"
#include "common/crc32.h"
#include "core/table_gan.h"
#include "data/columnar.h"
#include "data/csv.h"
#include "data/datasets.h"
#include "nn_replay.h"

namespace e2ebench {

using tablegan::Rng;
using tablegan::core::TableGan;
using tablegan::core::TableGanOptions;
namespace data = tablegan::data;

namespace {

constexpr int64_t kRows = 2048;
/// Set-up repetitions before and after the timed window, so their median
/// spans the host load of the whole run.
constexpr int kSetupsBefore = 16;
constexpr int kSetupsAfter = 15;
constexpr int kEpochs = 3;
constexpr int64_t kDigestRows = 256;

/// CSV digest of SampleRange(seed, 0, kDigestRows): equal digests mean a
/// change kept the trained model's bits.
uint32_t SampleDigest(const TableGan& gan, uint64_t seed, Tracer* tracer,
                      bool* ok) {
  tablegan::Result<data::Table> rows = [&] {
    ScopedSpan s(tracer, "core.TableGan.SampleRange");
    return gan.SampleRange(seed, 0, kDigestRows);
  }();
  if (!rows.ok() || rows->num_rows() != kDigestRows) {
    *ok = false;
    return 0;
  }
  tablegan::Result<std::string> csv = [&] {
    ScopedSpan s(tracer, "data.WriteCsvToString");
    return data::WriteCsvToString(*rows, /*include_header=*/false);
  }();
  if (!csv.ok()) {
    *ok = false;
    return 0;
  }
  ScopedSpan s(tracer, "common.Crc32");
  return tablegan::Crc32(csv->data(), csv->size());
}

}  // namespace

void RunTrainLacity(const Context& ctx, Outcome* out) {
  Tracer* tracer = ctx.tracer;
  const std::string path = ctx.work_dir + "/lacity.tgcl";

  // One set-up: generate the table, write it as TGCL0001, open it.
  std::optional<data::ColumnarReader> reader;
  std::vector<double> setup_s, open_ms;
  auto set_up = [&] {
    const int64_t t0 = NowNs();
    Rng rng(ctx.seed);
    data::Table table = data::MakeLaCityLike(kRows, &rng);
    Must(data::WriteColumnar(table, path), "write columnar table");
    const int64_t t_open = NowNs();
    reader.reset();
    reader.emplace(Must(data::ColumnarReader::Open(path), "open columnar"));
    const int64_t t1 = NowNs();
    setup_s.push_back(Seconds(t0, t1));
    open_ms.push_back(Seconds(t_open, t1) * 1e3);
  };
  for (int i = 0; i < kSetupsBefore; ++i) set_up();
  const int label_col =
      reader->schema().ColumnsWithRole(data::ColumnRole::kLabel).at(0);

  // Timed window: back-to-back Fits, each with the same seed, while another
  // fits in the run's seconds. Every Fit must produce the same model.
  FitLog log;
  std::unique_ptr<TableGan> gan;
  double fit_s = 0.0;
  int64_t examples = 0;
  std::optional<uint32_t> digest;
  const int64_t start = NowNs();
  int64_t unit_start;
  do {
    unit_start = NowNs();
    TableGanOptions options = TableGanOptions::LowPrivacy();
    options.epochs = kEpochs;
    options.num_threads = kThreads;
    options.seed = ctx.seed;
    log.Attach(&options, tracer);
    gan = std::make_unique<TableGan>(options);
    const size_t before = log.epochs().size();
    const int64_t t0 = NowNs();
    tablegan::Status st;
    {
      ScopedSpan s(tracer, "core.TableGan.Fit");
      st = gan->Fit(*reader, label_col);
    }
    fit_s += Seconds(t0, NowNs());
    examples += kRows * kEpochs;
    bool ok = st.ok() && log.epochs().size() == before + kEpochs &&
              log.Healthy(before);
    const uint32_t d = SampleDigest(*gan, ctx.seed, tracer, &ok);
    if (digest.has_value() && *digest != d) ok = false;
    if (!digest.has_value()) digest = d;
    if (!ok) Note("train-lacity: Fit failed: %s", st.ToString().c_str());
    out->ops.Record(ok);
  } while (AnotherFits(start, unit_start, ctx.seconds));
  for (int i = 0; i < kSetupsAfter; ++i) set_up();
  out->setup_s = SetupSeconds(setup_s);

  std::vector<double> epoch_ms;
  for (const tablegan::TrainingMetrics& m : log.epochs()) {
    epoch_ms.push_back(m.epoch_seconds * 1e3);
  }
  // The median epoch, not the total, sets both figures: a burst of
  // contention from outside the process then moves one epoch, not the run.
  out->p50_ms = Median(epoch_ms);
  out->rows_per_s = static_cast<double>(kRows) / (out->p50_ms * 1e-3);
  const auto [lo, hi] = std::minmax_element(epoch_ms.begin(), epoch_ms.end());
  Note("train-lacity: %lld Fits of %lld rows x %d epochs; epochs %zu, min "
       "%.3f / median %.3f / max %.3f ms; whole-Fit throughput %.3f "
       "examples/s; SampleRange(seed, 0, %lld) CSV digest %08x",
       static_cast<long long>(out->ops.attempted()),
       static_cast<long long>(kRows), kEpochs, epoch_ms.size(), *lo,
       out->p50_ms, *hi, static_cast<double>(examples) / fit_s,
       static_cast<long long>(kDigestRows), digest.value_or(0));
  if (!tracer->enabled()) return;

  // Per-layer replays, outside the timed window.
  log.Summarize(&out->layer);
  out->layer["data.columnar_open_ms"] = Median(open_ms);
  ReplayGanRanges(*gan, ctx.seed, tracer, &out->layer);
  ReplayColumnarRanges(*reader, tracer, &out->layer);
  const TableGanOptions& o = gan->options();
  ReplayNetworks({gan->side(), o.latent_dim, o.base_channels, o.batch_size},
                 RequestMix::kSmallRows, tracer, &out->layer);
  AddStepShare(kRows, o.batch_size, &out->layer);
}

}  // namespace e2ebench
