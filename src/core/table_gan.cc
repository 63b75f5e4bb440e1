#include "core/table_gan.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "core/info_loss.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/spectral_norm.h"
#include "tensor/tensor_ops.h"

namespace tablegan {
namespace core {
namespace {

// Writes sigmoid(logits) into *out (capacity-reusing); same per-element
// expression as the old copy-then-mutate helper, so results are bitwise
// identical.
void SigmoidInto(const Tensor& logits, Tensor* out) {
  out->ResizeUninitialized(logits.shape());
  for (int64_t i = 0; i < logits.size(); ++i) {
    (*out)[i] = 1.0f / (1.0f + std::exp(-logits[i]));
  }
}

std::string CheckpointPath(const std::string& dir, int epoch) {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-epoch-%04d.tgan", epoch);
  return dir + "/" + name;
}

// Rows per generator/discriminator inference block. A fixed constant —
// never the training batch size — so the block decomposition, and with
// it every row's latent draw and forward pass, is identical no matter
// what batch_size the model was configured with.
constexpr int64_t kInferBlockRows = 64;

// Domain tag separating Sample's latent stream from every other use of
// options.seed (weight init, shuffling).
constexpr uint64_t kSampleStreamTag = 0x53616d706c65ULL;  // "Sample"

// Domain tag for the spectral-norm power-iteration init vectors.
constexpr uint64_t kSpectralStreamTag = 0x53706563ULL;  // "Spec"

// Extra domain tag layered onto the sample stream for conditional
// sampling; the requested label's bits are mixed in after it, so every
// label's row stream is disjoint from every other label's and from the
// unconditional stream of the same seed.
constexpr uint64_t kCondStreamTag = 0x436F6E64ULL;  // "Cond"

// Step size of the central-difference Hessian-vector product that turns
// the WGAN gradient penalty into parameter gradients (DESIGN.md §15).
// The record space is [-1, 1] and the perturbation direction is a unit
// vector, so 1e-2 sits well inside the smooth regime of the LeakyReLU
// critic while staying far above float cancellation noise.
constexpr float kGpFdEpsilon = 1e-2f;

// Option checks that need no data.
Status ValidateOptions(const TableGanOptions& o) {
  if (o.checkpoint_every < 0) {
    return Status::InvalidArgument("checkpoint_every must be >= 0");
  }
  if (o.checkpoint_every > 0 && o.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "checkpoint_every requires a checkpoint_dir");
  }
  if (o.gmm_components < 1 || o.gmm_components > 64) {
    return Status::InvalidArgument("gmm_components must be in [1, 64], got " +
                                   std::to_string(o.gmm_components));
  }
  if (o.sn_power_iters < 1) {
    return Status::InvalidArgument("sn_power_iters must be >= 1");
  }
  if (o.guard_warmup_epochs < 0 || o.guard_max_rollbacks < 0) {
    return Status::InvalidArgument(
        "guard_warmup_epochs and guard_max_rollbacks must be >= 0");
  }
  return Status::OK();
}

// Label and GMM column indices against the table. Fills the per-column
// normalizer selection (DESIGN.md §16): min-max everywhere unless a
// column opted into the GMM encoding. Label columns stay min-max so
// their encoded cell is the single scalar the classifier and the
// conditioning vector read.
Status ValidateColumns(const data::TableView& table,
                       const std::vector<int>& label_cols,
                       const TableGanOptions& o,
                       std::vector<data::ColumnNormalizerSpec>* specs) {
  if (table.num_rows() < 4) {
    return Status::InvalidArgument("need at least 4 training rows");
  }
  if (label_cols.empty()) {
    return Status::InvalidArgument("at least one label column required");
  }
  const int num_cols = table.num_columns();
  for (size_t i = 0; i < label_cols.size(); ++i) {
    const int label_col = label_cols[i];
    if (label_col < 0 || label_col >= num_cols) {
      return Status::InvalidArgument(
          "label column index " + std::to_string(label_col) +
          " out of range [0, " + std::to_string(num_cols) + ")");
    }
    if (std::find(label_cols.begin(), label_cols.begin() + i, label_col) !=
        label_cols.begin() + i) {
      return Status::InvalidArgument("duplicate label column index " +
                                     std::to_string(label_col));
    }
  }
  if (!o.gmm_columns.empty()) specs->resize(static_cast<size_t>(num_cols));
  for (int c : o.gmm_columns) {
    if (c < 0 || c >= num_cols) {
      return Status::InvalidArgument(
          "GMM column index " + std::to_string(c) + " out of range [0, " +
          std::to_string(num_cols) + ")");
    }
    if (std::find(label_cols.begin(), label_cols.end(), c) !=
        label_cols.end()) {
      return Status::InvalidArgument(
          "GMM column index " + std::to_string(c) + " is a label column");
    }
    (*specs)[static_cast<size_t>(c)].kind = data::NormalizerKind::kGmm;
    (*specs)[static_cast<size_t>(c)].components = o.gmm_components;
  }
  return Status::OK();
}

// Conditional models need the label vocabulary: SampleConditional
// validates requested levels against it, and unpinned label columns draw
// from the empirical frequencies at synthesis time.
Status LabelVocabulary(const data::TableView& table,
                       const std::vector<int>& label_cols,
                       std::vector<std::vector<double>>* levels_out,
                       std::vector<std::vector<double>>* freqs_out) {
  for (int col : label_cols) {
    const double* colp = table.column_data(col);
    std::vector<double> vals(colp, colp + table.num_rows());
    std::sort(vals.begin(), vals.end());
    std::vector<double> levels;
    std::vector<double> freqs;
    for (size_t i = 0; i < vals.size(); ++i) {
      if (levels.empty() || vals[i] != levels.back()) {
        levels.push_back(vals[i]);
        freqs.push_back(0.0);
      }
      freqs.back() += 1.0;
    }
    if (levels.size() > 64) {
      return Status::InvalidArgument(
          "conditional training supports at most 64 distinct label "
          "values, but column " +
          std::to_string(col) + " has " + std::to_string(levels.size()));
    }
    for (double& f : freqs) f /= static_cast<double>(table.num_rows());
    levels_out->push_back(std::move(levels));
    freqs_out->push_back(std::move(freqs));
  }
  return Status::OK();
}

}  // namespace

TableGan::TableGan(TableGanOptions options)
    : options_(options),
      rng_(options.seed),
      sample_stream_seed_(
          MixSeeds(static_cast<uint64_t>(options.seed), kSampleStreamTag)) {}

void TableGan::ZeroLabelCells(Tensor* matrices) const {
  const int64_t cells = static_cast<int64_t>(side_) * side_;
  for (int64_t i = 0; i < matrices->dim(0); ++i) {
    for (size_t j = 0; j < label_cols_.size(); ++j) {
      (*matrices)[i * cells + label_cell(static_cast<int>(j))] = 0.0f;
    }
  }
}

// One Fit call (paper Algorithm 2): the optimizers, info-loss and
// stability state, the last-good snapshot and the hoisted batch
// buffers, with one method per phase. FitMultiLabel drives the epochs.
class TableGan::Trainer {
 public:
  Trainer(TableGan* gan, const data::TableView& table)
      : gan_(*gan),
        o_(gan->options_),
        table_(table),
        guard_(o_.guard_ewma_weight, o_.guard_factor,
               o_.guard_warmup_epochs),
        guard_active_(o_.divergence_action != DivergenceAction::kOff) {}

  Status Setup(std::vector<int> label_cols);
  int start_epoch() const { return start_epoch_; }
  // Trains one epoch; returns the next epoch to run (earlier after a
  // rollback).
  Result<int> RunEpoch(int epoch);

 private:
  // Per-epoch counters for the metrics record.
  struct Tally {
    int batches = 0;
    int64_t examples = 0;
    double d_seconds = 0.0, c_seconds = 0.0, g_seconds = 0.0;
    Stopwatch watch;
  };

  Status Commit(std::vector<int> label_cols);
  void AssembleBatch(int64_t start, int64_t bsize);
  void FillLatent();
  void StepD();
  void BceCriticStep(const Tensor& fake);
  void WganCriticStep(const Tensor& fake);
  void StepC();
  void StepG();
  void AddClassifierGrad(const Tensor& fake, Tensor* grad_fake);
  Result<int> EndEpoch(int epoch, const Tally& tally);
  Status ReportMetrics(int epoch, const Tally& tally,
                       const std::string& anomaly);
  Result<int> Rewind(int epoch, const std::string& anomaly);
  Status EnsureCheckpointDir() const;
  void TakeSnapshot(int epochs_done) {
    state_.epochs_completed = epochs_done;
    gan_.EncodeCheckpoint(&state_, &snapshot_);
  }

  TableGan& gan_;
  const TableGanOptions& o_;
  const data::TableView& table_;
  std::unique_ptr<nn::Adam> adam_g_, adam_d_, adam_c_;
  std::unique_ptr<InfoLossState> info_;
  std::unique_ptr<nn::SpectralNormRegularizer> sn_;  // kSpectralNorm only
  DivergenceGuard guard_;
  const bool guard_active_;
  // Borrowed views of the state above, in the shape the checkpoint codec
  // reads and writes.
  TrainingState state_;
  // Last-good training state for the divergence guardrail: the encoded
  // checkpoint of the most recent healthy epoch (DESIGN.md §15).
  std::string snapshot_;
  int start_epoch_ = 0;

  int64_t n_ = 0, batch_ = 0, cells_ = 0, k_ = 0, bsize_ = 0;
  std::vector<int64_t> order_;
  EpochStats stats_;
  // Batch-assembly and loss-gradient buffers, reused across steps so the
  // steady-state step allocates nothing: ResizeUninitialized keeps each
  // tensor's capacity once the first (largest) batch has sized it.
  Tensor x_, labels_, ones_, zeros_, z_;
  Tensor seed_, cgrad_, cin_, pred_, grad_logit_;
  // WGAN-GP scratch: the interpolated batch, its per-sample critic input
  // gradients (normalized in place), the perturbed batch of the
  // finite-difference passes and the per-sample output seeds.
  Tensor xhat_, vhat_, pert_, gp_seed_;
  std::vector<float> gp_coefs_;
};

// Validates every option and the data-dependent record shape before
// touching the model, then commits schema, labels, normalizer, codec and
// label vocabulary. A failure leaves the model exactly as it was.
Status TableGan::Trainer::Commit(std::vector<int> label_cols) {
  TABLEGAN_RETURN_NOT_OK(ValidateOptions(o_));
  std::vector<data::ColumnNormalizerSpec> specs;
  TABLEGAN_RETURN_NOT_OK(ValidateColumns(table_, label_cols, o_, &specs));
  // One fitting pass over the view; no encoded copy of the table is ever
  // built. Mini-batches are encoded on the fly straight from the view's
  // column pointers, so training an mmap'd columnar file touches each
  // page as its rows come up in the shuffle and peak memory is O(batch),
  // not O(table).
  data::RecordNormalizer normalizer;
  TABLEGAN_RETURN_NOT_OK(normalizer.Fit(table_, specs));
  // The record matrix holds the encoded row, which GMM columns widen
  // beyond the attribute count (1 + modes cells each).
  const int width = normalizer.encoded_width();
  const int side =
      o_.side > 0 ? o_.side : data::RecordMatrixCodec::ChooseSide(width);
  TABLEGAN_RETURN_NOT_OK(data::RecordMatrixCodec::Validate(width, side));
  std::vector<std::vector<double>> levels, freqs;
  if (o_.conditional) {
    TABLEGAN_RETURN_NOT_OK(
        LabelVocabulary(table_, label_cols, &levels, &freqs));
  }
  gan_.schema_ = table_.schema();
  gan_.label_cols_ = std::move(label_cols);
  gan_.normalizer_ = std::move(normalizer);
  gan_.side_ = side;
  gan_.codec_ = std::make_unique<data::RecordMatrixCodec>(width, side);
  gan_.label_levels_ = std::move(levels);
  gan_.label_level_freqs_ = std::move(freqs);
  return Status::OK();
}

Status TableGan::Trainer::Setup(std::vector<int> label_cols) {
  TABLEGAN_RETURN_NOT_OK(Commit(std::move(label_cols)));
  k_ = static_cast<int64_t>(gan_.label_cols_.size());
  gan_.generator_ = BuildGenerator(gan_.side_, o_.latent_dim + gan_.cond_dim(),
                                   o_.base_channels, &gan_.rng_);
  gan_.discriminator_ =
      BuildDiscriminator(gan_.side_, o_.base_channels, &gan_.rng_);
  gan_.classifier_ = BuildDiscriminator(gan_.side_, o_.base_channels,
                                        &gan_.rng_, static_cast<int>(k_));
  auto adam = [this](std::vector<Tensor*> params, std::vector<Tensor*> grads) {
    return std::make_unique<nn::Adam>(std::move(params), std::move(grads),
                                      o_.learning_rate, o_.adam_beta1,
                                      o_.adam_beta2);
  };
  adam_g_ = adam(gan_.generator_->Parameters(), gan_.generator_->Gradients());
  adam_d_ = adam(gan_.discriminator_.Parameters(),
                 gan_.discriminator_.Gradients());
  adam_c_ = adam(gan_.classifier_.Parameters(), gan_.classifier_.Gradients());
  info_ = std::make_unique<InfoLossState>(gan_.discriminator_.feature_dim,
                                          o_.ewma_weight, o_.delta_mean,
                                          o_.delta_sd);
  if (o_.loss_mode == LossMode::kSpectralNorm) {
    sn_ = std::make_unique<nn::SpectralNormRegularizer>(
        gan_.discriminator_.Parameters(), gan_.discriminator_.Gradients(),
        o_.sn_weight, o_.sn_power_iters,
        MixSeeds(static_cast<uint64_t>(o_.seed), kSpectralStreamTag));
  }
  state_ = TrainingState{0,           adam_g_.get(), adam_d_.get(),
                         adam_c_.get(), info_.get(), &guard_,
                         sn_.get()};

  n_ = table_.num_rows();
  batch_ = std::max<int64_t>(2, std::min<int64_t>(o_.batch_size, n_));
  cells_ = static_cast<int64_t>(gan_.side_) * gan_.side_;
  order_.resize(static_cast<size_t>(n_));
  gan_.history_.clear();
  if (!o_.resume_from.empty()) {
    // Continue a checkpointed run: restores weights, optimizer moments,
    // the RNG stream, EWMA statistics and history, so the remaining
    // epochs replay exactly what an uninterrupted run would compute.
    TABLEGAN_RETURN_NOT_OK(gan_.RestoreTrainingState(o_.resume_from, &state_));
    start_epoch_ = state_.epochs_completed;
    if (o_.verbose) {
      TABLEGAN_LOG(Info) << "resumed from " << o_.resume_from << " at epoch "
                         << start_epoch_;
    }
  }
  if (o_.checkpoint_every > 0) TABLEGAN_RETURN_NOT_OK(EnsureCheckpointDir());
  if (guard_active_) TakeSnapshot(start_epoch_);
  return Status::OK();
}

Status TableGan::Trainer::EnsureCheckpointDir() const {
  std::error_code ec;
  std::filesystem::create_directories(o_.checkpoint_dir, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint_dir " +
                           o_.checkpoint_dir + ": " + ec.message());
  }
  return Status::OK();
}

Result<int> TableGan::Trainer::RunEpoch(int epoch) {
  // Re-derive the permutation from identity each epoch: an in-place
  // shuffle of the previous epoch's order would make the batch sequence
  // depend on history a checkpoint does not carry, breaking bitwise
  // resume.
  for (int64_t i = 0; i < n_; ++i) order_[static_cast<size_t>(i)] = i;
  gan_.rng_.Shuffle(&order_);
  stats_ = EpochStats();
  Tally tally;
  Stopwatch phase;
  // Every row is visited: the final short batch of `n mod batch` rows
  // trains too. The one exception is a 1-row tail, which is skipped
  // because BatchNorm's batch variance is identically zero on a single
  // sample.
  for (int64_t start = 0; start < n_; start += batch_) {
    const int64_t bsize = std::min<int64_t>(batch_, n_ - start);
    if (bsize < 2) break;
    AssembleBatch(start, bsize);
    phase.Restart();
    StepD();
    tally.d_seconds += phase.ElapsedSeconds();
    phase.Restart();
    if (o_.use_classifier) StepC();
    tally.c_seconds += phase.ElapsedSeconds();
    phase.Restart();
    StepG();
    tally.g_seconds += phase.ElapsedSeconds();
    ++tally.batches;
    tally.examples += bsize;
  }
  return EndEpoch(epoch, tally);
}

// The real mini-batch (Alg. 2 line 6): zero the pad cells (exactly what
// the codec writes there), then encode the batch's rows directly from
// the view — bitwise identical to gathering rows of a precomputed
// Transform+ToMatrices tensor (see MinMaxNormalizer::EncodeRowsInto).
void TableGan::Trainer::AssembleBatch(int64_t start, int64_t bsize) {
  bsize_ = bsize;
  x_.ResizeUninitialized({bsize, 1, gan_.side_, gan_.side_});
  x_.SetZero();
  gan_.normalizer_.EncodeRowsInto(table_, order_.data() + start, bsize,
                                  x_.data(), cells_);
  // Ground-truth labels l(x) in {0,1}: decode the label cells from the
  // [-1,1] encoding.
  labels_.ResizeUninitialized({bsize, k_});
  for (int64_t b = 0; b < bsize; ++b) {
    for (int64_t j = 0; j < k_; ++j) {
      labels_.at2(b, j) =
          0.5f * (x_[b * cells_ + gan_.label_cell(static_cast<int>(j))] +
                  1.0f);
    }
  }
  ones_.ResizeUninitialized({bsize, 1});
  ones_.Fill(1.0f);
  zeros_.ResizeUninitialized({bsize, 1});
  zeros_.SetZero();
}

// Latent draws for the batch; conditional models append the real
// batch's encoded label cells (cGAN-style), so the generator learns its
// conditioning from pairs whose condition matches a real record.
void TableGan::Trainer::FillLatent() {
  const int64_t latent = o_.latent_dim;
  const int64_t zdim = latent + gan_.cond_dim();
  z_.ResizeUninitialized({bsize_, zdim});
  z_.FillUniform(-1.0f, 1.0f, &gan_.rng_);
  for (int64_t j = latent; j < zdim; ++j) {
    const int64_t cell = gan_.label_cell(static_cast<int>(j - latent));
    for (int64_t b = 0; b < bsize_; ++b) z_.at2(b, j) = x_[b * cells_ + cell];
  }
}

// Discriminator update (Alg. 2 line 8).
void TableGan::Trainer::StepD() {
  FillLatent();
  Tensor fake = gan_.generator_->Forward(z_, /*training=*/true);
  switch (o_.loss_mode) {
    case LossMode::kDcgan:
    case LossMode::kSpectralNorm:
      BceCriticStep(fake);
      break;
    case LossMode::kWganGp:
      WganCriticStep(fake);
      break;
  }
  adam_d_->Step();
}

// L_orig^D; kSpectralNorm adds its weight penalty.
void TableGan::Trainer::BceCriticStep(const Tensor& fake) {
  TwoPartNet& d = gan_.discriminator_;
  adam_d_->ZeroGrad();
  stats_.d_loss +=
      nn::SigmoidBceWithLogits(d.ForwardLogits(x_, true), ones_, &seed_);
  d.Backward(seed_);
  stats_.d_loss +=
      nn::SigmoidBceWithLogits(d.ForwardLogits(fake, true), zeros_, &seed_);
  d.Backward(seed_);
  if (sn_ != nullptr) stats_.d_loss += sn_->Apply();
}

// Wasserstein critic with gradient penalty (Gulrajani et al.).
void TableGan::Trainer::WganCriticStep(const Tensor& fake) {
  TwoPartNet& d = gan_.discriminator_;
  const int64_t bsize = bsize_;
  const float inv_b = 1.0f / static_cast<float>(bsize);
  // x̂ = a·x + (1-a)·G(z1), per-sample a ~ U[0,1) (Algorithm 1).
  xhat_.ResizeUninitialized(x_.shape());
  for (int64_t b = 0; b < bsize; ++b) {
    const float a = static_cast<float>(gan_.rng_.Uniform(0.0f, 1.0f));
    const float* xr = x_.data() + b * cells_;
    const float* fr = fake.data() + b * cells_;
    float* hr = xhat_.data() + b * cells_;
    for (int64_t c = 0; c < cells_; ++c) {
      hr[c] = a * xr[c] + (1.0f - a) * fr[c];
    }
  }
  // Per-sample critic input gradient g_i = ∇_x D(x̂_i): one backward
  // pass seeded with ones. The pass also pollutes the parameter
  // gradients; the ZeroGrad below discards that.
  gp_seed_.ResizeUninitialized({bsize, 1});
  gp_seed_.Fill(1.0f);
  (void)d.ForwardLogits(xhat_, true);
  Tensor gin = d.Backward(gp_seed_);
  // GP = (1/b) Σ (‖g_i‖-1)².  vhat keeps the unit directions ĝ_i,
  // gp_coefs the per-sample chain factor (‖g_i‖-1); a zero-grad sample
  // contributes its penalty value but no HVP direction.
  vhat_ = gin;
  gp_coefs_.resize(static_cast<size_t>(bsize));
  double gp = 0.0;
  for (int64_t b = 0; b < bsize; ++b) {
    float* gr = vhat_.data() + b * cells_;
    double sum = 0.0;
    for (int64_t c = 0; c < cells_; ++c) {
      sum += static_cast<double>(gr[c]) * gr[c];
    }
    const float norm = static_cast<float>(std::sqrt(sum));
    gp += static_cast<double>(norm - 1.0f) * (norm - 1.0f);
    const float inv = norm > 1e-12f ? 1.0f / norm : 0.0f;
    for (int64_t c = 0; c < cells_; ++c) gr[c] *= inv;
    gp_coefs_[static_cast<size_t>(b)] = inv > 0.0f ? norm - 1.0f : 0.0f;
  }
  gp /= static_cast<double>(bsize);
  adam_d_->ZeroGrad();
  // Critic loss mean D(fake) - mean D(real): the backward seeds are
  // constant ±1/b rows.
  double mean_real = 0.0, mean_fake = 0.0;
  {
    Tensor logits = d.ForwardLogits(x_, true);
    for (int64_t b = 0; b < bsize; ++b) mean_real += logits[b];
  }
  seed_.ResizeUninitialized({bsize, 1});
  seed_.Fill(-inv_b);
  d.Backward(seed_);
  {
    Tensor logits = d.ForwardLogits(fake, true);
    for (int64_t b = 0; b < bsize; ++b) mean_fake += logits[b];
  }
  seed_.Fill(inv_b);
  d.Backward(seed_);
  mean_real *= inv_b;
  mean_fake *= inv_b;
  // Parameter gradient of the penalty without double backprop: a
  // central-difference Hessian-vector product,
  //   ∇_θ(v̂_iᵀ ∇_x D(x̂_i)) ≈ [∇_θ D(x̂+εv̂) - ∇_θ D(x̂-εv̂)] / 2ε,
  // one forward/backward per sign with the chain factor λ·(‖g_i‖-1)/(b·ε)
  // folded into seed row i. Parameter gradients accumulate across
  // Backward calls (nn::Layer contract), so the two passes add straight
  // onto the critic gradients above.
  for (const float sign : {1.0f, -1.0f}) {
    pert_ = xhat_;
    ops::AxpyInPlace(vhat_, sign * kGpFdEpsilon, &pert_);
    (void)d.ForwardLogits(pert_, true);
    for (int64_t b = 0; b < bsize; ++b) {
      gp_seed_[b] = sign * o_.gp_weight * gp_coefs_[static_cast<size_t>(b)] *
                    inv_b / kGpFdEpsilon;
    }
    d.Backward(gp_seed_);
  }
  stats_.d_loss +=
      static_cast<float>(mean_fake - mean_real + o_.gp_weight * gp);
}

// Classifier update with L_class^C (Alg. 2 line 9).
void TableGan::Trainer::StepC() {
  TwoPartNet& c = gan_.classifier_;
  adam_c_->ZeroGrad();
  cin_ = x_;  // copy-assign reuses the destination's capacity
  gan_.ZeroLabelCells(&cin_);
  SigmoidInto(c.ForwardLogits(cin_, true), &pred_);
  cgrad_.ResizeUninitialized({bsize_, k_});
  float loss = 0.0f;
  const float inv_bk = 1.0f / static_cast<float>(bsize_ * k_);
  for (int64_t i = 0; i < bsize_ * k_; ++i) {
    const float diff = pred_[i] - labels_[i];
    loss += std::fabs(diff);
    const float sign = diff > 0.0f ? 1.0f : (diff < 0.0f ? -1.0f : 0.0f);
    cgrad_[i] = sign * pred_[i] * (1.0f - pred_[i]) * inv_bk;
  }
  stats_.class_loss += loss * inv_bk;
  c.Backward(cgrad_);
  adam_c_->Step();
}

// Generator update with L_orig^G + L_info^G + L_class^G (Alg. 2 lines
// 10-14).
void TableGan::Trainer::StepG() {
  TwoPartNet& d = gan_.discriminator_;
  adam_g_->ZeroGrad();
  FillLatent();
  Tensor fake = gan_.generator_->Forward(z_, /*training=*/true);
  // Real features for the EWMA statistics. (Forward only; the fake
  // forward below re-caches the stack for backward.)
  Tensor feat_real;
  if (o_.use_info_loss) feat_real = d.features->Forward(x_, true);
  Tensor feat_fake = d.features->Forward(fake, true);
  Tensor logits = d.head->Forward(feat_fake, true);
  switch (o_.loss_mode) {
    case LossMode::kDcgan:
    case LossMode::kSpectralNorm:
      stats_.g_orig_loss += nn::SigmoidBceWithLogits(logits, ones_, &seed_);
      break;
    case LossMode::kWganGp: {
      // L_orig^G = -mean D(G(z)): constant -1/b seed rows.
      const float inv_b = 1.0f / static_cast<float>(bsize_);
      double mean_g = 0.0;
      for (int64_t b = 0; b < bsize_; ++b) mean_g += logits[b];
      stats_.g_orig_loss += static_cast<float>(-mean_g * inv_b);
      seed_.ResizeUninitialized({bsize_, 1});
      seed_.Fill(-inv_b);
      break;
    }
  }
  Tensor grad_feat = d.head->Backward(seed_);
  if (o_.use_info_loss) {
    info_->UpdateStatistics(feat_real, feat_fake);
    stats_.info_loss += info_->Loss();
    stats_.l_mean += info_->l_mean();
    stats_.l_sd += info_->l_sd();
    Tensor info_grad = info_->GradFakeFeatures();
    ops::AxpyInPlace(info_grad, o_.info_loss_weight, &grad_feat);
  }
  Tensor grad_fake = d.features->Backward(grad_feat);
  if (o_.use_classifier) AddClassifierGrad(fake, &grad_fake);
  gan_.generator_->Backward(grad_fake);
  adam_g_->Step();
}

// L_class^G: the discrepancy between the synthetic record's own label
// cells and the classifier's prediction, backpropagated into both.
void TableGan::Trainer::AddClassifierGrad(const Tensor& fake,
                                          Tensor* grad_fake) {
  cin_ = fake;
  gan_.ZeroLabelCells(&cin_);
  SigmoidInto(gan_.classifier_.ForwardLogits(cin_, true), &pred_);
  grad_logit_.ResizeUninitialized({bsize_, k_});
  float loss = 0.0f;
  const float inv_bk = 1.0f / static_cast<float>(bsize_ * k_);
  for (int64_t b = 0; b < bsize_; ++b) {
    for (int64_t j = 0; j < k_; ++j) {
      const int64_t col = gan_.label_cell(static_cast<int>(j));
      const float ell = 0.5f * (fake[b * cells_ + col] + 1.0f);
      const float p = pred_.at2(b, j);
      const float diff = ell - p;
      loss += std::fabs(diff);
      const float sign = diff > 0.0f ? 1.0f : (diff < 0.0f ? -1.0f : 0.0f);
      // d|ell - pred| / d logit = -sign * pred * (1 - pred).
      grad_logit_.at2(b, j) = -sign * p * (1.0f - p) * inv_bk;
      // d|ell - pred| / d label_cell = sign * 0.5.
      (*grad_fake)[b * cells_ + col] += 0.5f * sign * inv_bk;
    }
  }
  stats_.class_loss += loss * inv_bk;
  Tensor grad_cin = gan_.classifier_.Backward(grad_logit_);
  // remove(.) blocks the gradient of the zeroed label cells.
  gan_.ZeroLabelCells(&grad_cin);
  ops::AxpyInPlace(grad_cin, 1.0f, grad_fake);
}

// End-of-epoch bookkeeping: averages, guardrail, history, telemetry,
// snapshot and periodic checkpoint.
Result<int> TableGan::Trainer::EndEpoch(int epoch, const Tally& tally) {
  EpochStats& stats = stats_;
  if (tally.batches > 0) {
    const float inv = 1.0f / static_cast<float>(tally.batches);
    stats.d_loss *= inv;
    stats.g_orig_loss *= inv;
    stats.info_loss *= inv;
    stats.class_loss *= inv;
    stats.l_mean *= inv;
    stats.l_sd *= inv;
  }
  if (TABLEGAN_FAILPOINT("train.loss_nan")) {
    // Deterministic divergence injection for the guardrail tests.
    stats.d_loss = std::numeric_limits<float>::quiet_NaN();
  }
  const std::string anomaly =
      guard_.Observe({{"d_loss", stats.d_loss},
                      {"g_loss", stats.g_orig_loss},
                      {"info_loss", stats.info_loss},
                      {"class_loss", stats.class_loss}});
  const bool diverged = guard_active_ && !anomaly.empty();
  // A poisoned epoch never enters the history: on rollback it is
  // retried, on halt the model is rewound to the last-good state the
  // history must keep matching.
  if (!diverged) gan_.history_.push_back(stats);
  if (o_.verbose) {
    TABLEGAN_LOG(Info) << "epoch " << epoch + 1 << "/" << o_.epochs
                       << " d=" << stats.d_loss << " g=" << stats.g_orig_loss
                       << " info=" << stats.info_loss
                       << " class=" << stats.class_loss
                       << (anomaly.empty() ? "" : " ANOMALY: " + anomaly);
  }
  TABLEGAN_RETURN_NOT_OK(ReportMetrics(epoch, tally, anomaly));
  if (diverged) return Rewind(epoch, anomaly);
  if (guard_active_) TakeSnapshot(epoch + 1);
  if (o_.checkpoint_every > 0 &&
      ((epoch + 1) % o_.checkpoint_every == 0 || epoch + 1 == o_.epochs)) {
    state_.epochs_completed = epoch + 1;
    TABLEGAN_RETURN_NOT_OK(gan_.SaveImpl(
        CheckpointPath(o_.checkpoint_dir, epoch + 1), &state_));
    // Stable alias for "resume from wherever the run died".
    TABLEGAN_RETURN_NOT_OK(
        gan_.SaveImpl(o_.checkpoint_dir + "/latest.tgan", &state_));
  }
  return epoch + 1;
}

Status TableGan::Trainer::ReportMetrics(int epoch, const Tally& tally,
                                        const std::string& anomaly) {
  if (o_.metrics_sink == nullptr && !o_.metrics_callback) {
    return Status::OK();
  }
  TrainingMetrics m;
  m.epoch = epoch + 1;
  m.total_epochs = o_.epochs;
  m.d_loss = stats_.d_loss;
  m.g_loss = stats_.g_orig_loss;
  m.info_loss = stats_.info_loss;
  m.class_loss = stats_.class_loss;
  m.l_mean = stats_.l_mean;
  m.l_sd = stats_.l_sd;
  m.d_seconds = tally.d_seconds;
  m.c_seconds = tally.c_seconds;
  m.g_seconds = tally.g_seconds;
  m.epoch_seconds = tally.watch.ElapsedSeconds();
  m.examples = tally.examples;
  m.examples_per_sec =
      m.epoch_seconds > 0.0
          ? static_cast<double>(m.examples) / m.epoch_seconds
          : 0.0;
  m.loss_ewma = guard_.ewma();
  m.anomaly = anomaly;
  if (o_.metrics_sink != nullptr) {
    TABLEGAN_RETURN_NOT_OK(o_.metrics_sink->Record(m));
  }
  if (o_.metrics_callback) o_.metrics_callback(m);
  return Status::OK();
}

// Divergence: rewind to the last-good snapshot — weights, moments, EWMA
// statistics, guard, history — but neither the RNG stream (a retry must
// not replay the draws that just diverged) nor the rollback budget
// already spent. Then auto-checkpoint, and retry or halt.
Result<int> TableGan::Trainer::Rewind(int epoch, const std::string& anomaly) {
  const int64_t rollbacks_used = state_.rollbacks_used;
  TABLEGAN_RETURN_NOT_OK(gan_.DecodeTrainingState(
      snapshot_, "last-good snapshot", &state_, /*restore_rng=*/false));
  state_.rollbacks_used = rollbacks_used;
  std::string auto_path;
  if (!o_.checkpoint_dir.empty()) {
    TABLEGAN_RETURN_NOT_OK(EnsureCheckpointDir());
    auto_path = o_.checkpoint_dir + "/diverged-last-good.tgan";
    TABLEGAN_RETURN_NOT_OK(gan_.SaveImpl(auto_path, &state_));
  }
  if (o_.metrics_sink != nullptr) {
    TrainingEvent ev;
    ev.event = "diverged";
    ev.epoch = epoch + 1;
    ev.detail = anomaly;
    ev.checkpoint_path = auto_path;
    TABLEGAN_RETURN_NOT_OK(o_.metrics_sink->RecordEvent(ev));
  }
  if (o_.divergence_action == DivergenceAction::kRollback &&
      state_.rollbacks_used < o_.guard_max_rollbacks) {
    ++state_.rollbacks_used;
    return state_.epochs_completed;  // retry the snapshot's epoch
  }
  // Halt: the restored last-good model is the result, and it samples.
  gan_.fitted_ = true;
  return Status::Internal(
      "training diverged at epoch " + std::to_string(epoch + 1) + ": " +
      anomaly +
      (auto_path.empty()
           ? " (model holds the last-good state)"
           : "; last-good state checkpointed to " + auto_path));
}

Status TableGan::Fit(const data::TableView& table, int label_col) {
  return FitMultiLabel(table, {label_col});
}

Status TableGan::FitMultiLabel(const data::TableView& table,
                               std::vector<int> label_cols) {
  fitted_ = false;
  // Scoped so a per-model num_threads never leaks into other models or
  // evaluation code sharing the process-wide pool.
  ScopedNumThreads scoped_threads(options_.num_threads);
  Trainer trainer(this, table);
  TABLEGAN_RETURN_NOT_OK(trainer.Setup(std::move(label_cols)));
  for (int epoch = trainer.start_epoch(); epoch < options_.epochs;) {
    TABLEGAN_ASSIGN_OR_RETURN(epoch, trainer.RunEpoch(epoch));
  }
  fitted_ = true;
  return Status::OK();
}

Result<data::Table> TableGan::Sample(int64_t n) {
  if (!fitted_) return Status::FailedPrecondition("Sample before Fit");
  // A zero- (or negative-) row request is a no-op: the persisted
  // rows-emitted position must not move, so interleaving empty requests —
  // routine for a serving frontend — leaves the deterministic stream
  // bit-for-bit unchanged.
  if (n <= 0) return data::Table(schema_);
  ScopedNumThreads scoped_threads(options_.num_threads);
  TABLEGAN_ASSIGN_OR_RETURN(
      data::Table out, GenerateRows(sample_stream_seed_,
                                    sample_rows_emitted_, n));
  sample_rows_emitted_ += static_cast<uint64_t>(n);
  return out;
}

Result<data::Table> TableGan::SampleRange(uint64_t seed, int64_t row_begin,
                                          int64_t row_end) const {
  if (!fitted_) {
    return Status::FailedPrecondition("SampleRange before Fit");
  }
  if (row_begin < 0 || row_end < row_begin) {
    return Status::InvalidArgument(
        "invalid row range [" + std::to_string(row_begin) + ", " +
        std::to_string(row_end) + ")");
  }
  if (row_end == row_begin) return data::Table(schema_);
  // Same domain tag as the constructor, so seed == options.seed
  // reproduces this model's own Sample stream from row 0.
  return GenerateRows(MixSeeds(seed, kSampleStreamTag),
                      static_cast<uint64_t>(row_begin),
                      row_end - row_begin);
}

Result<data::Table> TableGan::SampleConditional(uint64_t seed,
                                                int64_t row_begin,
                                                int64_t row_end,
                                                double label) const {
  if (!fitted_) {
    return Status::FailedPrecondition("SampleConditional before Fit");
  }
  if (!options_.conditional) {
    return Status::FailedPrecondition(
        "model was not trained with options.conditional");
  }
  if (row_begin < 0 || row_end < row_begin) {
    return Status::InvalidArgument(
        "invalid row range [" + std::to_string(row_begin) + ", " +
        std::to_string(row_end) + ")");
  }
  // The request must name an exact training level of the primary label
  // column; the serve layer maps the NotFound onto kUnknownLabel.
  const std::vector<double>& levels = label_levels_[0];
  const auto it = std::lower_bound(levels.begin(), levels.end(), label);
  if (it == levels.end() || !(*it == label)) {
    return Status::NotFound("unknown label " + std::to_string(label) +
                            " for conditional sampling");
  }
  // Canonicalize (e.g. -0.0 vs 0.0) so the stream key is the stored
  // level's bit pattern, never the request's spelling of it.
  const double canonical = *it;
  if (row_end == row_begin) return data::Table(schema_);
  const uint64_t stream =
      MixSeeds(MixSeeds(MixSeeds(seed, kSampleStreamTag), kCondStreamTag),
               std::bit_cast<uint64_t>(canonical));
  return GenerateRows(stream, static_cast<uint64_t>(row_begin),
                      row_end - row_begin, &canonical);
}

Result<data::Table> TableGan::GenerateRows(uint64_t stream_seed,
                                           uint64_t first, int64_t n,
                                           const double* fixed_label) const {
  const int64_t cells = static_cast<int64_t>(side_) * side_;
  const int64_t latent = options_.latent_dim;
  const int64_t cond = cond_dim();
  const int64_t zdim = latent + cond;
  Tensor all({n, cells});
  // The level each conditioning cell carried, per row: the decode step
  // below writes it back into the label columns so a conditional sample
  // honors its condition exactly.
  std::vector<double> cond_levels(
      static_cast<size_t>(cond > 0 ? n * cond : 0));

  // Row blocks of a fixed size, each generated independently: row i's
  // latent comes from its own counter-derived substream, and the
  // generator runs cache-free (Infer), so blocks can be produced on any
  // thread in any order and still write the exact bits a serial pass
  // would. Exactly n rows are generated — the old code drew and ran the
  // generator on a full batch even for a short tail, then discarded the
  // excess while still consuming its latent draws.
  const int64_t num_blocks = (n + kInferBlockRows - 1) / kInferBlockRows;
  auto run_block = [&](int64_t b) {
    const int64_t row0 = b * kInferBlockRows;
    const int64_t take = std::min<int64_t>(kInferBlockRows, n - row0);
    Tensor z({take, zdim});
    for (int64_t r = 0; r < take; ++r) {
      Rng row_rng(MixSeeds(stream_seed,
                           first + static_cast<uint64_t>(row0 + r)));
      float* zr = z.data() + r * zdim;
      // Same draw sequence as Tensor::Uniform.
      for (int64_t j = 0; j < latent; ++j) {
        zr[j] = static_cast<float>(row_rng.Uniform(-1.0f, 1.0f));
      }
      // Conditioning cells: the primary label pins to `fixed_label` when
      // given; every unpinned label column draws a level from its
      // training frequencies on this row's own substream, keeping the
      // whole row a pure function of (stream_seed, row index).
      for (int64_t j = 0; j < cond; ++j) {
        const int col = label_cols_[static_cast<size_t>(j)];
        double level;
        if (fixed_label != nullptr && j == 0) {
          level = *fixed_label;
        } else {
          const double p = row_rng.NextDouble();
          const std::vector<double>& freqs =
              label_level_freqs_[static_cast<size_t>(j)];
          size_t idx = freqs.size() - 1;
          double cum = 0.0;
          for (size_t t = 0; t < freqs.size(); ++t) {
            cum += freqs[t];
            if (p < cum) {
              idx = t;
              break;
            }
          }
          level = label_levels_[static_cast<size_t>(j)][idx];
        }
        cond_levels[static_cast<size_t>((row0 + r) * cond + j)] = level;
        const double lo = normalizer_.column_min(col);
        const double hi = normalizer_.column_max(col);
        const double span = hi - lo;
        zr[latent + j] =
            span > 0.0
                ? static_cast<float>(data::EncodeUnit(level, lo, hi, span))
                : 0.0f;
      }
    }
    Tensor fake = generator_->Infer(z);
    std::copy(fake.data(), fake.data() + take * cells,
              all.data() + row0 * cells);
  };
  if (num_blocks > 1 && GetNumThreads() > 1) {
    ParallelFor(num_blocks, 1, [&](int64_t b0, int64_t b1) {
      for (int64_t b = b0; b < b1; ++b) run_block(b);
    });
  } else {
    // Single block or single thread: run on the caller so the generator's
    // inner kernels can still use the pool.
    for (int64_t b = 0; b < num_blocks; ++b) run_block(b);
  }

  Tensor matrices = all.Reshaped({n, 1, side_, side_});
  TABLEGAN_ASSIGN_OR_RETURN(Tensor records, codec_->FromMatrices(matrices));
  TABLEGAN_ASSIGN_OR_RETURN(data::Table out,
                            normalizer_.InverseTransform(records, schema_));
  // A conditional model's label columns report the levels the rows were
  // conditioned on — the condition is a contract, not a suggestion the
  // generator may drift from.
  for (int64_t j = 0; j < cond; ++j) {
    const int col = label_cols_[static_cast<size_t>(j)];
    for (int64_t r = 0; r < n; ++r) {
      out.Set(r, col, cond_levels[static_cast<size_t>(r * cond + j)]);
    }
  }
  return out;
}

Result<std::vector<double>> TableGan::DiscriminatorScores(
    const data::Table& records) {
  if (!fitted_) {
    return Status::FailedPrecondition("DiscriminatorScores before Fit");
  }
  if (!records.schema().Equals(schema_)) {
    return Status::InvalidArgument("schema mismatch");
  }
  TABLEGAN_ASSIGN_OR_RETURN(Tensor encoded, normalizer_.Transform(records));
  // Clamp to the training range so unseen extremes stay in [-1, 1].
  for (int64_t i = 0; i < encoded.size(); ++i) {
    encoded[i] = std::clamp(encoded[i], -1.0f, 1.0f);
  }
  TABLEGAN_ASSIGN_OR_RETURN(Tensor matrices, codec_->ToMatrices(encoded));
  // Row-sharded scoring mirrors Sample: fixed-size blocks through the
  // cache-free inference path, each writing a disjoint slice of `out`.
  ScopedNumThreads scoped_threads(options_.num_threads);
  const int64_t n = matrices.dim(0);
  const int64_t cells = static_cast<int64_t>(side_) * side_;
  std::vector<double> out(static_cast<size_t>(n));
  const int64_t num_blocks = (n + kInferBlockRows - 1) / kInferBlockRows;
  auto score_block = [&](int64_t b) {
    const int64_t row0 = b * kInferBlockRows;
    const int64_t take = std::min<int64_t>(kInferBlockRows, n - row0);
    Tensor block({take, 1, side_, side_});
    std::copy(matrices.data() + row0 * cells,
              matrices.data() + (row0 + take) * cells, block.data());
    Tensor logits = discriminator_.InferLogits(block);
    TABLEGAN_CHECK(logits.size() == take);
    for (int64_t i = 0; i < take; ++i) {
      out[static_cast<size_t>(row0 + i)] =
          1.0 / (1.0 + std::exp(-static_cast<double>(logits[i])));
    }
  };
  if (num_blocks > 1 && GetNumThreads() > 1) {
    ParallelFor(num_blocks, 1, [&](int64_t b0, int64_t b1) {
      for (int64_t b = b0; b < b1; ++b) score_block(b);
    });
  } else {
    for (int64_t b = 0; b < num_blocks; ++b) score_block(b);
  }
  return out;
}

}  // namespace core
}  // namespace tablegan
