#include "nn_replay.h"

#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/random.h"
#include "core/networks.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "stats.h"

namespace e2ebench {
namespace {

using tablegan::Rng;
using tablegan::Tensor;
using tablegan::nn::Layer;
using tablegan::nn::Sequential;

constexpr int kWarmup = 2;
constexpr int kReps = 9;

enum class Kind { kDense, kConvT, kConv, kElementwise };

Kind KindOf(const std::string& name) {
  if (name.rfind("Dense(", 0) == 0) return Kind::kDense;
  if (name.rfind("ConvTranspose2d(", 0) == 0) return Kind::kConvT;
  if (name.rfind("Conv2d(", 0) == 0) return Kind::kConv;
  return Kind::kElementwise;
}

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kDense: return "dense";
    case Kind::kConvT: return "convT";
    case Kind::kConv: return "conv";
    case Kind::kElementwise: return "elementwise";
  }
  return "?";
}

/// Forward FLOPs of one layer call from its shapes.
double ForwardFlops(Layer* layer, Kind kind, const Tensor& in,
                    const Tensor& out) {
  if (kind == Kind::kElementwise) return 0.0;
  const double w = static_cast<double>(layer->Parameters()[0]->size());
  switch (kind) {
    case Kind::kDense:  // [batch, in] x [in, out]
      return 2.0 * w * static_cast<double>(in.dim(0));
    case Kind::kConv:  // every output pixel is a dot over Cin*k*k
      return 2.0 * w * static_cast<double>(out.size() / out.dim(1));
    case Kind::kConvT:  // every input pixel scatters Cout*k*k products
      return 2.0 * w * static_cast<double>(in.size() / in.dim(1));
    default:
      return 0.0;
  }
}

struct LayerTiming {
  std::string name;
  Kind kind = Kind::kElementwise;
  double flops = 0.0;  // forward
  std::vector<double> fwd_ms, bwd_ms;
};

/// The layers of a network in call order, flattening the two parts of a
/// discriminator.
std::vector<Layer*> LayersOf(const std::vector<Sequential*>& parts) {
  std::vector<Layer*> out;
  for (Sequential* part : parts) {
    for (int i = 0; i < part->num_layers(); ++i) out.push_back(part->layer(i));
  }
  return out;
}

/// Times Forward/Backward of every layer over kReps repetitions after
/// kWarmup untimed ones. The upstream gradient is a constant tensor.
std::vector<LayerTiming> TimeLayers(const std::string& net,
                                    const std::vector<Layer*>& layers,
                                    const Tensor& input, Tracer* tracer) {
  std::vector<LayerTiming> t(layers.size());
  for (size_t i = 0; i < layers.size(); ++i) {
    t[i].name = layers[i]->name();
    t[i].kind = KindOf(t[i].name);
  }
  for (int rep = 0; rep < kWarmup + kReps; ++rep) {
    const bool timed = rep >= kWarmup;
    ScopedSpan step(tracer, "nn." + net + ".step");
    Tensor x = input;
    for (size_t i = 0; i < layers.size(); ++i) {
      const int64_t t0 = NowNs();
      Tensor y;
      {
        ScopedSpan s(tracer, "nn." + net + "." + std::to_string(i) + ".fwd");
        y = layers[i]->Forward(x, /*training=*/true);
      }
      const int64_t t1 = NowNs();
      if (timed) t[i].fwd_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      if (rep == 0) t[i].flops = ForwardFlops(layers[i], t[i].kind, x, y);
      x = std::move(y);
    }
    Tensor g = Tensor::Full(x.shape(), 0.01f);
    for (size_t i = layers.size(); i-- > 0;) {
      const int64_t t0 = NowNs();
      {
        ScopedSpan s(tracer, "nn." + net + "." + std::to_string(i) + ".bwd");
        g = layers[i]->Backward(g);
      }
      const int64_t t1 = NowNs();
      if (timed) t[i].bwd_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    }
  }
  return t;
}

struct NetSummary {
  double fwd_ms = 0.0, bwd_ms = 0.0;  // conv/convT/dense only
  double flops = 0.0;                  // forward, conv/convT/dense only
};

NetSummary Summarize(const std::string& net,
                     const std::vector<LayerTiming>& timings,
                     std::map<std::string, double>* layer) {
  NetSummary sum;
  std::map<Kind, std::array<double, 3>> by_kind;  // fwd_ms, bwd_ms, flops
  for (size_t i = 0; i < timings.size(); ++i) {
    const LayerTiming& t = timings[i];
    const double f = Median(t.fwd_ms), b = Median(t.bwd_ms);
    auto& k = by_kind[t.kind];
    k[0] += f;
    k[1] += b;
    k[2] += t.flops;
    if (t.kind == Kind::kElementwise) continue;
    sum.fwd_ms += f;
    sum.bwd_ms += b;
    sum.flops += t.flops;
    std::printf(
        "# nn.%s.%zu_%s %-28s fwd %.4f ms  bwd %.4f ms  %.2f GFLOP/s\n",
        net.c_str(), i, KindName(t.kind), t.name.c_str(), f, b,
        3.0 * t.flops / ((f + b) * 1e-3) * 1e-9);
  }
  for (const auto& [kind, v] : by_kind) {
    const std::string prefix = "nn." + net + "." + KindName(kind);
    if (kind == Kind::kElementwise) {
      (*layer)[prefix + "_ms"] = v[0] + v[1];
      continue;
    }
    (*layer)[prefix + ".fwd_ms"] = v[0];
    (*layer)[prefix + ".bwd_ms"] = v[1];
    (*layer)[prefix + ".gflops"] = 3.0 * v[2] / ((v[0] + v[1]) * 1e-3) * 1e-9;
  }
  return sum;
}

}  // namespace

void ReplayNetworks(const NetShape& shape, int infer_rows, Tracer* tracer,
                    std::map<std::string, double>* layer) {
  ScopedSpan root(tracer, "nn.replay");
  Rng rng(20180603);
  std::unique_ptr<Sequential> gen = tablegan::core::BuildGenerator(
      shape.side, shape.latent_dim, shape.base_channels, &rng);
  tablegan::core::TwoPartNet disc = tablegan::core::BuildDiscriminator(
      shape.side, shape.base_channels, &rng);
  const Tensor z =
      Tensor::Uniform({shape.batch, shape.latent_dim}, -1.0f, 1.0f, &rng);
  const Tensor records =
      Tensor::Uniform({shape.batch, 1, shape.side, shape.side}, -1.0f, 1.0f,
                      &rng);

  std::printf("# nn replay: side %d, %d channels, batch %d (FLOPs computed "
              "from layer shapes)\n",
              shape.side, shape.base_channels, shape.batch);
  const NetSummary g =
      Summarize("G", TimeLayers("G", LayersOf({gen.get()}), z, tracer), layer);
  const NetSummary d = Summarize(
      "D",
      TimeLayers("D", LayersOf({disc.features.get(), disc.head.get()}),
                 records, tracer),
      layer);

  // One Adam step over both networks' parameters.
  std::vector<Tensor*> params = gen->Parameters(), grads = gen->Gradients();
  for (Tensor* p : disc.Parameters()) params.push_back(p);
  for (Tensor* p : disc.Gradients()) grads.push_back(p);
  tablegan::nn::Adam adam(params, grads);
  std::vector<double> adam_ms;
  for (int rep = 0; rep < kWarmup + kReps; ++rep) {
    const int64_t t0 = NowNs();
    {
      ScopedSpan s(tracer, "nn.Adam.Step");
      adam.Step();
    }
    if (rep >= kWarmup) adam_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  }
  (*layer)["nn.adam_ms"] = Median(adam_ms);

  // Multiplicities of the paper's training step (see nn_replay.h).
  (*layer)["nn.step_ms"] = 2 * g.fwd_ms + g.bwd_ms + 6 * d.fwd_ms + 5 * d.bwd_ms;
  (*layer)["nn.step_gflop"] =
      (2 * g.flops + 2 * g.flops + 6 * d.flops + 5 * 2 * d.flops) * 1e-9;

  const Tensor zi =
      Tensor::Uniform({infer_rows, shape.latent_dim}, -1.0f, 1.0f, &rng);
  std::vector<double> infer_ms;
  for (int rep = 0; rep < kWarmup + kReps; ++rep) {
    const int64_t t0 = NowNs();
    {
      ScopedSpan s(tracer, "nn.G.Infer");
      (void)gen->Infer(zi);
    }
    if (rep >= kWarmup) infer_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  }
  (*layer)["nn.G.infer_ms"] = Median(infer_ms);
  std::printf("# nn.G.infer at %d rows: %.4f ms\n", infer_rows,
              (*layer)["nn.G.infer_ms"]);
}

}  // namespace e2ebench
