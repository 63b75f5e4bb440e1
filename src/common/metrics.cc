#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace tablegan {
namespace {

// JSON numbers must stay finite; losses can diverge to inf/NaN, which
// the schema maps to null so downstream parsers keep working (a bare
// `nan` token is not JSON and broke strict readers — locked by the
// MetricsJson tests).
void AppendNumber(std::ostringstream* os, const char* key, double v) {
  *os << '"' << key << "\":";
  if (std::isfinite(v)) {
    *os << v;
  } else {
    *os << "null";
  }
}

// Minimal JSON string escaping (quote, backslash, control characters).
// Anomaly/event strings are library-generated, but a checkpoint path
// can contain anything the user named their directories.
void AppendStringValue(std::ostringstream* os, const std::string& s) {
  *os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *os << "\\\"";
        break;
      case '\\':
        *os << "\\\\";
        break;
      case '\n':
        *os << "\\n";
        break;
      case '\t':
        *os << "\\t";
        break;
      case '\r':
        *os << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *os << buf;
        } else {
          *os << c;
        }
    }
  }
  *os << '"';
}

void AppendString(std::ostringstream* os, const char* key,
                  const std::string& s) {
  *os << '"' << key << "\":";
  AppendStringValue(os, s);
}

}  // namespace

JsonlMetricsSink::JsonlMetricsSink(const std::string& path, bool append)
    : path_(path),
      out_(path, append ? (std::ios::out | std::ios::app) : std::ios::out) {
  if (!out_) status_ = Status::IOError("cannot open metrics file: " + path);
}

Status JsonlMetricsSink::Record(const TrainingMetrics& m) {
  if (!status_.ok()) return status_;
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"epoch\":" << m.epoch << ",\"total_epochs\":" << m.total_epochs
     << ',';
  AppendNumber(&os, "d_loss", m.d_loss);
  os << ',';
  AppendNumber(&os, "g_loss", m.g_loss);
  os << ',';
  AppendNumber(&os, "info_loss", m.info_loss);
  os << ',';
  AppendNumber(&os, "class_loss", m.class_loss);
  os << ',';
  AppendNumber(&os, "l_mean", m.l_mean);
  os << ',';
  AppendNumber(&os, "l_sd", m.l_sd);
  os << ',';
  AppendNumber(&os, "d_seconds", m.d_seconds);
  os << ',';
  AppendNumber(&os, "c_seconds", m.c_seconds);
  os << ',';
  AppendNumber(&os, "g_seconds", m.g_seconds);
  os << ',';
  AppendNumber(&os, "epoch_seconds", m.epoch_seconds);
  os << ",\"examples\":" << m.examples << ',';
  AppendNumber(&os, "examples_per_sec", m.examples_per_sec);
  os << ',';
  AppendNumber(&os, "loss_ewma", m.loss_ewma);
  os << ",\"anomaly\":";
  if (m.anomaly.empty()) {
    os << "null";
  } else {
    AppendStringValue(&os, m.anomaly);
  }
  os << "}\n";
  out_ << os.str();
  out_.flush();
  if (!out_) return Status::IOError("metrics write failed: " + path_);
  return Status::OK();
}

Status JsonlMetricsSink::RecordEvent(const TrainingEvent& e) {
  if (!status_.ok()) return status_;
  std::ostringstream line;
  line << '{';
  AppendString(&line, "event", e.event);
  line << ",\"epoch\":" << e.epoch << ',';
  AppendString(&line, "detail", e.detail);
  line << ',';
  AppendString(&line, "checkpoint", e.checkpoint_path);
  line << "}\n";
  out_ << line.str();
  out_.flush();
  if (!out_) return Status::IOError("metrics write failed: " + path_);
  return Status::OK();
}

DivergenceGuard::DivergenceGuard(double ewma_weight, double runaway_factor,
                                 int warmup_epochs)
    : w_(ewma_weight), factor_(runaway_factor), warmup_(warmup_epochs) {}

std::string DivergenceGuard::Observe(
    const std::vector<std::pair<const char*, double>>& losses) {
  double magnitude = 0.0;
  for (const auto& [name, value] : losses) {
    if (!std::isfinite(value)) {
      return std::string("non-finite ") + name;
    }
    magnitude += std::fabs(value);
  }
  const double next =
      observed_ == 0 ? magnitude : w_ * ewma_ + (1.0 - w_) * magnitude;
  if (observed_ >= warmup_ && factor_ > 0.0 &&
      next > factor_ * std::max(baseline_, 1e-6)) {
    // Do not fold the runaway value in: a halted-then-resumed or
    // rolled-back run should keep judging against healthy statistics.
    std::ostringstream os;
    os.precision(6);
    os << "runaway loss EWMA " << next << " > " << factor_
       << " x baseline " << baseline_;
    return os.str();
  }
  ewma_ = next;
  ++observed_;
  if (observed_ <= warmup_) baseline_ = std::max(baseline_, ewma_);
  return "";
}

}  // namespace tablegan
