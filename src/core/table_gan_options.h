#ifndef TABLEGAN_CORE_TABLE_GAN_OPTIONS_H_
#define TABLEGAN_CORE_TABLE_GAN_OPTIONS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace tablegan {
namespace core {

/// Adversarial objective of the discriminator/generator game
/// (DESIGN.md §15). The numeric values are the on-disk encoding of
/// checkpoint format v5 — do not renumber.
enum class LossMode : int {
  /// The paper's DCGAN BCE loss (Alg. 2). Default; bitwise identical to
  /// every pre-loss-mode build.
  kDcgan = 0,
  /// Wasserstein critic with a gradient penalty on interpolated
  /// real/synthetic batches (Gulrajani et al.); `gp_weight` scales the
  /// penalty. The standard remedy when the BCE game destabilizes on
  /// large/wide tables (RCC-GAN, 2205.11693).
  kWganGp = 1,
  /// DCGAN BCE loss plus a spectral-norm-style penalty on every rank-2
  /// discriminator weight (Dense / Conv2d), estimated by power
  /// iteration; `sn_weight` scales the penalty.
  kSpectralNorm = 2,
};

/// What Fit does when the divergence guardrail fires (loss went
/// non-finite or the loss EWMA ran away, DESIGN.md §15). Numeric values
/// are the checkpoint v5 encoding.
enum class DivergenceAction : int {
  /// Guardrail disabled: diverging runs keep training (pre-v5 behavior).
  kOff = 0,
  /// Restore the last-good state into the model (which stays fitted and
  /// samples), auto-checkpoint it and abort Fit with a non-OK Status.
  kHalt = 1,
  /// Auto-checkpoint and restore the last-good state, then retry the
  /// epoch with fresh randomness (the RNG stream is deliberately NOT
  /// rolled back — replaying identical draws would diverge identically).
  /// After `guard_max_rollbacks` retries the run halts.
  kRollback = 2,
};

/// Hyper-parameters of table-GAN (paper §4, §5.1.5). Defaults follow the
/// paper's DCGAN-default setup: Adam(2e-4, beta1 0.5), 25 epochs,
/// mini-batch 64, latent z uniform on the 100-dim unit hypercube.
struct TableGanOptions {
  /// Side of the record square matrix; 0 = smallest power of two whose
  /// square holds all attributes (paper §3.2 pads with zeros).
  int side = 0;
  int latent_dim = 100;
  /// Channels of the first discriminator conv; doubles per stage.
  int base_channels = 32;
  int epochs = 25;
  int batch_size = 64;

  float learning_rate = 2e-4f;
  float adam_beta1 = 0.5f;
  float adam_beta2 = 0.999f;

  /// Privacy margins of the hinge information loss (Eq. 4). Our margins
  /// threshold the *relative* feature-statistics gap (see
  /// core/info_loss.h), whose trained floor is ~0.3 and unmatched
  /// ceiling ~0.5 at CPU scale; the named presets below map the paper's
  /// raw-norm settings {0, 0.1, 0.2} onto that range: low = 0,
  /// mid = 0.35, high = 0.5.
  float delta_mean = 0.0f;
  float delta_sd = 0.0f;

  /// Weight of the moving-average feature statistics (Alg. 2, w = 0.99).
  float ewma_weight = 0.99f;

  /// Multiplier of L_info in the generator objective. The paper sums the
  /// three losses unweighted on GPU-scale training; at our reduced CPU
  /// training budget the adversarial game keeps the feature-statistics
  /// gap above the delta margins unless the matching term is emphasized,
  /// so the default upweights it (see DESIGN.md adaptation notes).
  float info_loss_weight = 5.0f;

  /// Ablation/baseline switches: disabling both reduces table-GAN to the
  /// plain DCGAN baseline of §5.1.3.
  bool use_info_loss = true;
  bool use_classifier = true;

  /// --- Training stability (DESIGN.md §15) ---------------------------
  /// Adversarial objective. kDcgan reproduces the paper bit for bit;
  /// the other modes trade exact reproduction for stability on
  /// larger/wider tables. Serialized since checkpoint format v5 and
  /// validated on resume.
  LossMode loss_mode = LossMode::kDcgan;
  /// WGAN-GP penalty weight (lambda; Gulrajani et al. use 10).
  float gp_weight = 10.0f;
  /// Spectral-norm penalty weight on rank-2 discriminator weights.
  float sn_weight = 0.05f;
  /// Power iterations per optimizer step for the spectral estimate. One
  /// suffices in steady state (u/v warm-start from the previous step).
  int sn_power_iters = 1;

  /// Divergence guardrail: per-epoch loss-EWMA watchdog that fires on a
  /// non-finite loss or on an EWMA exceeding `guard_factor` times the
  /// post-warmup baseline. Detection never changes the training
  /// arithmetic; only what happens after a trigger depends on the
  /// action. Default kHalt: a diverging run stops with a non-OK Status
  /// and its last-good state instead of silently training to garbage.
  DivergenceAction divergence_action = DivergenceAction::kHalt;
  /// EWMA weight of the guarded loss magnitude (higher = slower).
  float guard_ewma_weight = 0.9f;
  /// Runaway threshold: fires when ewma > guard_factor * baseline.
  float guard_factor = 50.0f;
  /// Epochs used to establish the baseline before the runaway check
  /// arms (non-finite detection is always armed).
  int guard_warmup_epochs = 3;
  /// Retry budget for kRollback before the run halts anyway.
  int guard_max_rollbacks = 3;

  /// --- Conditional generation / record encoding (DESIGN.md §16) -----
  /// Condition the generator on the label: the encoded label cells of
  /// each real batch are concatenated onto its latent vectors during
  /// training, and SampleConditional synthesizes rows of one requested
  /// label. Off by default — an unconditional model's generator input,
  /// draw sequence and checkpoints are bitwise identical to pre-v6
  /// builds. Serialized since checkpoint format v6.
  bool conditional = false;
  /// Columns (indices into the training schema) encoded with the
  /// mode-specific GMM normalizer instead of min-max (TGAN-style,
  /// 1811.11264 §4.2). Continuous non-label columns only. Empty = all
  /// min-max, the bitwise-stable default. Serialized since v6.
  std::vector<int> gmm_columns;
  /// EM component budget per GMM column (modes may be pruned), in
  /// [1, 64].
  int gmm_components = 4;

  /// Worker threads for the tensor substrate (GEMM and im2col conv
  /// kernels). 0 defers to the TABLEGAN_NUM_THREADS environment variable,
  /// then to the hardware concurrency. Every parallel kernel is bitwise
  /// deterministic: any thread count reproduces the 1-thread results.
  int num_threads = 0;

  uint64_t seed = 47;
  bool verbose = false;

  /// --- Training telemetry ------------------------------------------
  /// Per-epoch metrics consumer (non-owning; must outlive Fit). A
  /// JsonlMetricsSink streams the records to disk; a non-OK Record
  /// aborts training with that status.
  MetricsSink* metrics_sink = nullptr;
  /// In-process per-epoch hook, called after metrics_sink. Useful for
  /// live progress UIs and tests; exceptions are not caught.
  std::function<void(const TrainingMetrics&)> metrics_callback;

  /// --- Checkpointing / resume --------------------------------------
  /// Write a full training checkpoint (weights, optimizer moments, RNG
  /// stream, EWMA statistics, loss history) into `checkpoint_dir` every
  /// this many epochs (and at the final epoch). 0 disables. Files are
  /// written atomically (temp file + rename) with a CRC-32 footer as
  /// `ckpt-epoch-NNNN.tgan`, plus a `latest.tgan` alias.
  int checkpoint_every = 0;
  std::string checkpoint_dir;
  /// Path of a checkpoint to resume Fit from. Training continues at the
  /// saved epoch and is bitwise identical to an uninterrupted run; the
  /// checkpoint must have been written with the same options and
  /// training table (epochs may be raised to extend a finished run).
  std::string resume_from;

  /// The paper's three named privacy settings (Tables 5-6), calibrated
  /// to the relative-gap scale (see delta_mean above).
  static TableGanOptions LowPrivacy() { return TableGanOptions(); }
  static TableGanOptions MidPrivacy() {
    TableGanOptions o;
    o.delta_mean = 0.35f;
    o.delta_sd = 0.35f;
    return o;
  }
  static TableGanOptions HighPrivacy() {
    TableGanOptions o;
    o.delta_mean = 0.5f;
    o.delta_sd = 0.5f;
    return o;
  }
  /// The DCGAN baseline: original loss only.
  static TableGanOptions DcganBaseline() {
    TableGanOptions o;
    o.use_info_loss = false;
    o.use_classifier = false;
    return o;
  }
};

}  // namespace core
}  // namespace tablegan

#endif  // TABLEGAN_CORE_TABLE_GAN_OPTIONS_H_
