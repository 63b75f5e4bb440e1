#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the figure describes a handful of outliers.
constexpr int64_t kMinSamplesBeyond = 10;

/// Median with the usual midpoint rule for an even count; 0 when empty.
double Median(std::vector<double> samples);

/// Nearest-rank percentile `p` (0 < p <= 100) of a sample set.
struct Percentile {
  double value = 0.0;
  int64_t samples = 0;
  /// Samples strictly beyond the chosen rank (n - rank).
  int64_t beyond = 0;
  /// beyond >= kMinSamplesBeyond.
  bool reportable = false;
};
Percentile ComputePercentile(std::vector<double> samples, double p);

/// Attempted/failed operation counts of one run, shared by the threads
/// that drive load. failed_frac = failed / attempted (0 when nothing was
/// attempted).
class OpCounter {
 public:
  void Record(bool ok) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Marks an already-attempted operation as failed (a later output check
  /// rejected it).
  void MarkFailed() { failed_.fetch_add(1, std::memory_order_relaxed); }
  int64_t attempted() const { return attempted_.load(); }
  int64_t failed() const { return failed_.load(); }
  double failed_frac() const;

 private:
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
};

/// One request of the serve-mixed closed loop.
struct ServeRequestSpec {
  bool to_table = false;  // columnar table source, else the GAN
  int64_t row_begin = 0;
  int64_t row_end = 0;
  int64_t rows() const { return row_end - row_begin; }
};

/// The seeded request sequence of one serve-mixed connection. Requests
/// come in blocks of eight, each a seeded permutation of three 64-row and
/// one 1024-row request to each source, so every prefix of whole blocks
/// holds exactly half GAN and half table requests and a 3:1 mix of sizes.
///
/// Ranges never overlap, so no response can be served from a cache of an
/// earlier one: GAN ranges of connection c advance through their own
/// stripe starting at c * 2^40, and table ranges advance through
/// connection c's stripe of the table's rows
/// [c * stripe, (c + 1) * stripe), stripe = table_rows / connections. A
/// table range that would cross the stripe's end restarts at its start;
/// only from then on do table ranges repeat.
class RequestMix {
 public:
  static constexpr int64_t kSmallRows = 64;
  static constexpr int64_t kLargeRows = 1024;

  /// Requires 0 <= connection < connections and table_rows >=
  /// connections * kLargeRows.
  RequestMix(uint64_t seed, int connection, int connections,
             int64_t table_rows);
  ServeRequestSpec Next();

 private:
  void RefillBlock();

  uint64_t rng_state_;
  int64_t gan_cursor_;
  int64_t table_stripe_begin_;
  int64_t table_stripe_rows_;
  int64_t table_cursor_ = 0;
  std::vector<std::pair<bool, int64_t>> block_;  // (to_table, rows)
  size_t block_pos_ = 0;
};

/// splitmix64 step: the benchmark's own input generator, independent of
/// the library's RNG so inputs stay fixed when the library changes.
uint64_t SplitMix64(uint64_t* state);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of v.
std::string MetricsJson(const std::vector<Metric>& metrics);

/// The final result line: exactly correct/attempted/failed/metrics.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

/// JSON string literal with quotes and escapes.
std::string JsonString(const std::string& s);

}  // namespace e2ebench

#endif  // E2EBENCH_STATS_H_
