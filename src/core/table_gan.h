#ifndef TABLEGAN_CORE_TABLE_GAN_H_
#define TABLEGAN_CORE_TABLE_GAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/networks.h"
#include "core/table_gan_options.h"
#include "data/gmm_normalizer.h"
#include "data/record_matrix.h"
#include "data/table.h"
#include "data/table_view.h"

namespace tablegan {
namespace nn {
class Adam;
class SpectralNormRegularizer;
}  // namespace nn
namespace core {

class InfoLossState;
struct ModelHeader;

/// Per-epoch training telemetry.
struct EpochStats {
  float d_loss = 0.0f;      // discriminator BCE (real + fake halves)
  float g_orig_loss = 0.0f; // generator adversarial loss
  float info_loss = 0.0f;   // hinge information loss (Eq. 4)
  float class_loss = 0.0f;  // classifier discrepancy (Eq. 5)
  float l_mean = 0.0f;      // relative first-order statistics gap
  float l_sd = 0.0f;        // relative second-order statistics gap
};

/// table-GAN (paper §4): a DCGAN-based generator/discriminator pair plus
/// a classifier network, trained with the original GAN loss, the hinge
/// information loss and the classification loss per Algorithm 2, over
/// records encoded as zero-padded square matrices in [-1, 1].
///
/// Typical use:
///   TableGan gan(TableGanOptions::LowPrivacy());
///   gan.Fit(train_table, label_col);
///   data::Table synthetic = *gan.Sample(train_table.num_rows());
///
/// Setting options.use_info_loss = options.use_classifier = false yields
/// the DCGAN baseline of §5.1.3.
class TableGan {
 public:
  explicit TableGan(TableGanOptions options);

  TableGan(const TableGan&) = delete;
  TableGan& operator=(const TableGan&) = delete;
  TableGan(TableGan&&) = default;

  /// Trains on `table`; `label_col` is the ground-truth label attribute
  /// the classifier network learns (paper §4.1.3). The whole table —
  /// label included — is synthesized.
  ///
  /// Takes any TableView: training reads rows through the view's column
  /// pointers one mini-batch at a time (never materializing the encoded
  /// table), so an mmap-backed ColumnarReader trains out-of-core with
  /// memory proportional to the batch size — and, because every batch
  /// cell is computed with the identical per-cell expression, produces
  /// checkpoints and samples bitwise identical to fitting the same rows
  /// from an in-RAM Table at any thread count (DESIGN.md §14).
  Status Fit(const data::TableView& table, int label_col);

  /// Multi-label variant (paper §4.2.3): the classifier becomes a
  /// multi-task network with one sigmoid head per label sharing the
  /// convolutional trunk; the classification loss averages the per-label
  /// discrepancies.
  Status FitMultiLabel(const data::TableView& table,
                       std::vector<int> label_cols);

  /// True after a successful Fit or Load. A failed Fit leaves it false —
  /// except a divergence halt (DivergenceAction::kHalt), whose model
  /// holds the restored last-good state and stays usable.
  bool fitted() const { return fitted_; }

  /// Generates `n` synthetic records and decodes them to a table with
  /// the training schema.
  ///
  /// Determinism contract: the latent vector of output row i is drawn
  /// from its own counter-derived RNG substream, indexed by the number of
  /// rows emitted by earlier Sample calls plus i. The output is therefore
  /// a pure function of (options.seed, rows emitted so far, n) — bitwise
  /// identical across batch sizes and thread counts, while successive
  /// calls still produce fresh rows. Row blocks are generated in
  /// parallel across disjoint output slices when threads are available.
  ///
  /// n <= 0 returns an empty table with the training schema without
  /// advancing the persisted rows-emitted position, so a zero-row
  /// request — e.g. relayed from a remote client — cannot perturb
  /// subsequent deterministic output.
  Result<data::Table> Sample(int64_t n);

  /// Stateless range sampling for the serving path: rows
  /// [row_begin, row_end) of the logical sample table that a fresh model
  /// with options.seed == `seed` would emit through Sample. Pure
  /// function of (seed, row_begin, row_end) — it neither reads nor
  /// advances the model's own sampling-stream position, so any worker
  /// holding this model can serve any slice of the logical table,
  /// bitwise identical to every other worker at any thread count.
  /// Const and safe to call concurrently (the inference path is
  /// cache-free; see nn::Layer::Infer).
  Result<data::Table> SampleRange(uint64_t seed, int64_t row_begin,
                                  int64_t row_end) const;

  /// Condition-by-label range sampling: rows [row_begin, row_end) of the
  /// per-label logical sample table for `label`, which must exactly
  /// match one of the primary label column's training levels (otherwise
  /// NotFound — the serve layer maps that onto its unknown-label wire
  /// status). Requires a model fitted with options.conditional
  /// (FailedPrecondition otherwise).
  ///
  /// Same determinism contract as SampleRange — a pure function of
  /// (seed, label, row index) at any batch size, thread count or
  /// chunking — and each label's stream is keyed by a label-tagged
  /// substream, so per-label streams are mutually disjoint and disjoint
  /// from the unconditional stream of the same seed.
  Result<data::Table> SampleConditional(uint64_t seed, int64_t row_begin,
                                        int64_t row_end, double label) const;

  /// Discriminator probability D(r) of being real, per record of
  /// `records` (normalized with the training normalizer). Used by the
  /// customized membership attack (§4.5), which trains shadow table-GANs
  /// and reads their discriminators.
  Result<std::vector<double>> DiscriminatorScores(const data::Table& records);

  /// Per-epoch losses recorded during Fit.
  const std::vector<EpochStats>& history() const { return history_; }

  /// Persists the fitted model (schema, normalizer, all three networks
  /// with their BatchNorm running statistics) to a binary file, so a
  /// trained generator can be shared and reloaded (the paper's release
  /// workflow gives partners generator access only). The write is
  /// atomic (temp file + rename) and the file carries a CRC-32 footer.
  Status Save(const std::string& path) const;

  /// Restores a model saved by Save() or a mid-training checkpoint.
  /// Truncated, bit-flipped or wrong-version files are rejected with a
  /// non-OK Status (the CRC footer is verified before any field is
  /// parsed). The returned model samples with a fresh RNG seeded from
  /// its stored options.
  static Result<TableGan> Load(const std::string& path);

  const TableGanOptions& options() const { return options_; }
  int side() const { return side_; }
  /// First (primary) label column.
  int label_col() const { return label_cols_.empty() ? -1 : label_cols_[0]; }
  const std::vector<int>& label_cols() const { return label_cols_; }

 private:
  class Trainer;

  /// Borrowed views of the mutable mid-training state a checkpoint must
  /// capture beyond the model itself (see DESIGN.md §9 for the format).
  struct TrainingState {
    int epochs_completed = 0;
    nn::Adam* adam_g = nullptr;
    nn::Adam* adam_d = nullptr;
    nn::Adam* adam_c = nullptr;
    InfoLossState* info = nullptr;
    DivergenceGuard* guard = nullptr;
    /// Null unless options.loss_mode is kSpectralNorm.
    nn::SpectralNormRegularizer* sn = nullptr;
    int64_t rollbacks_used = 0;
  };

  /// Encodes the model — plus the training section when `train` is
  /// non-null — as a complete current-format file image, CRC-32 footer
  /// included, into `*image` (cleared first; its capacity is reused).
  void EncodeCheckpoint(const TrainingState* train, std::string* image) const;

  /// Appends the model-section header (options, schema, normalizer,
  /// sampling-stream counters, encoding and conditioning section) in the
  /// current format to `*out`.
  void EncodeHeader(std::string* out) const;

  /// Takes over a decoded header's fields; the codec and the networks
  /// are left to the caller.
  void AdoptHeader(ModelHeader&& h);

  /// EncodeCheckpoint, written to `path` atomically.
  Status SaveImpl(const std::string& path, const TrainingState* train) const;

  /// Decodes a checkpoint image (`source` names it in errors) into this
  /// partially initialized model (networks and optimizers already built
  /// by Fit): weights, optimizer moments, EWMA and guard statistics,
  /// history, and the RNG stream when `restore_rng`. Rejects images whose
  /// model header does not encode to this run's header bytes.
  Status DecodeTrainingState(const std::string& image,
                             const std::string& source, TrainingState* train,
                             bool restore_rng);

  /// Reads a checkpoint file and decodes it, RNG stream included.
  Status RestoreTrainingState(const std::string& path, TrainingState* train);

  /// The five networks in serialization order: generator, then the
  /// discriminator's and the classifier's features and head.
  std::vector<nn::Sequential*> Networks() const {
    return {generator_.get(), discriminator_.features.get(),
            discriminator_.head.get(), classifier_.features.get(),
            classifier_.head.get()};
  }

  /// Zeroes every label cell of every record matrix — remove(.) in Eq. 5.
  void ZeroLabelCells(Tensor* matrices) const;

  /// Shared core of Sample, SampleRange and SampleConditional: decodes
  /// rows [first, first + n) of the latent stream keyed by `stream_seed`
  /// (already domain-tagged) into a table. Requires n >= 1. On a
  /// conditional model the generator input of each row is its latent
  /// vector plus one conditioning cell per label column; `fixed_label`,
  /// when non-null, pins the primary label to that (canonicalized)
  /// level, while remaining labels draw from their training frequencies
  /// on the row's own substream.
  Result<data::Table> GenerateRows(uint64_t stream_seed, uint64_t first,
                                   int64_t n,
                                   const double* fixed_label = nullptr) const;

  /// Width of the conditioning vector appended to the latent input: one
  /// cell per label column when options.conditional, else 0.
  int cond_dim() const {
    return options_.conditional ? static_cast<int>(label_cols_.size()) : 0;
  }

  /// Encoded-record cell index of label column j (== the column itself
  /// when every column is min-max).
  int64_t label_cell(int j) const {
    return normalizer_.column_offset(label_cols_[static_cast<size_t>(j)]);
  }

  TableGanOptions options_;
  bool fitted_ = false;
  int side_ = 0;
  std::vector<int> label_cols_;

  data::Schema schema_;
  data::RecordNormalizer normalizer_;
  std::unique_ptr<data::RecordMatrixCodec> codec_;

  /// Conditional-model label vocabulary, one entry per label column:
  /// sorted distinct training values and their empirical frequencies.
  /// SampleConditional validates requested labels against the primary
  /// column's levels; unpinned label columns draw levels from these
  /// frequencies. Serialized since format v6. Empty when
  /// !options.conditional.
  std::vector<std::vector<double>> label_levels_;
  std::vector<std::vector<double>> label_level_freqs_;

  std::unique_ptr<nn::Sequential> generator_;
  TwoPartNet discriminator_;
  TwoPartNet classifier_;
  Rng rng_{47};

  /// Stream seed for Sample's per-row latent substreams, derived from
  /// options.seed; row i of a call draws from
  /// Rng(MixSeeds(sample_stream_seed_, sample_rows_emitted_ + i)).
  uint64_t sample_stream_seed_ = 0;
  /// Rows emitted by prior Sample calls. Serialized (with the stream
  /// seed) since format v4, so a saved-and-reloaded model continues the
  /// sampling stream exactly where it left off instead of replaying rows.
  /// Version-3 files default both fields from options.seed / 0.
  uint64_t sample_rows_emitted_ = 0;

  std::vector<EpochStats> history_;
};

}  // namespace core
}  // namespace tablegan

#endif  // TABLEGAN_CORE_TABLE_GAN_H_
