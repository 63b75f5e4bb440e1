#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace e2ebench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Percentile ComputePercentile(std::vector<double> samples, double p) {
  Percentile out;
  out.samples = static_cast<int64_t>(samples.size());
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  // Nearest rank, 1-based: the smallest rank whose share reaches p.
  int64_t rank = static_cast<int64_t>(
      std::ceil(p / 100.0 * static_cast<double>(out.samples) - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, out.samples);
  out.value = samples[static_cast<size_t>(rank - 1)];
  out.beyond = out.samples - rank;
  out.reportable = out.beyond >= kMinSamplesBeyond;
  return out;
}

double OpCounter::failed_frac() const {
  const int64_t a = attempted();
  return a == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(a);
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

RequestMix::RequestMix(uint64_t seed, int connection, int connections,
                       int64_t table_rows) {
  if (connection < 0 || connection >= connections ||
      table_rows < static_cast<int64_t>(connections) * kLargeRows) {
    throw std::invalid_argument("RequestMix: bad connection or table size");
  }
  rng_state_ = seed * 0x100000001B3ULL + static_cast<uint64_t>(connection);
  gan_cursor_ = static_cast<int64_t>(connection) << 40;
  table_stripe_rows_ = table_rows / connections;
  table_stripe_begin_ = connection * table_stripe_rows_;
}

void RequestMix::RefillBlock() {
  block_.clear();
  for (bool to_table : {false, true}) {
    for (int i = 0; i < 3; ++i) block_.emplace_back(to_table, kSmallRows);
    block_.emplace_back(to_table, kLargeRows);
  }
  // Fisher-Yates with the connection's own stream.
  for (size_t i = block_.size() - 1; i > 0; --i) {
    const size_t j = static_cast<size_t>(SplitMix64(&rng_state_) % (i + 1));
    std::swap(block_[i], block_[j]);
  }
  block_pos_ = 0;
}

ServeRequestSpec RequestMix::Next() {
  if (block_pos_ == block_.size()) RefillBlock();
  const auto [to_table, rows] = block_[block_pos_++];
  ServeRequestSpec spec;
  spec.to_table = to_table;
  if (to_table) {
    if (table_cursor_ + rows > table_stripe_rows_) table_cursor_ = 0;
    spec.row_begin = table_stripe_begin_ + table_cursor_;
    table_cursor_ += rows;
  } else {
    spec.row_begin = gan_cursor_;
    gan_cursor_ += rows;
  }
  spec.row_end = spec.row_begin + rows;
  return spec;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + MetricsJson(metrics) + "}";
}

}  // namespace e2ebench
