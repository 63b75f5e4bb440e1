#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

/// One timed call into a layer. The layer is the name's prefix before the
/// first '.', e.g. "core" for "core.TableGan.Fit".
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;  // id of the enclosing span, -1 for a root
  uint32_t tid = 0;     // recording thread, for the trace viewer
};

/// Layer of a span name: everything before the first '.'.
std::string LayerOf(const std::string& span_name);

/// Self time per layer, in seconds: each span's duration minus the part of
/// its interval covered by the union of its child spans, summed by layer.
/// Children are clipped to their parent's interval, and overlapping
/// children (concurrent work under one parent) are counted once.
std::map<std::string, double> SelfSecondsByLayer(const std::vector<Span>& spans);

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder. Disabled, Begin/End cost one branch. Spans
/// nest per thread: a span's parent is the innermost span still open on
/// the same thread (or the explicit parent given to Record).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Opens a span on the calling thread; returns its id (-1 disabled).
  int64_t Begin(const std::string& name);
  /// Closes the span `id` opened by Begin on this thread.
  void End(int64_t id);
  /// Records a finished span with explicit times, e.g. an epoch whose
  /// bounds come from a callback. `parent` -1 uses the thread's open span.
  void Record(const std::string& name, int64_t start_ns, int64_t end_ns,
              int64_t parent = -1);
  std::vector<Span> spans() const;
  /// Writes the spans as a Chrome trace-event file (chrome://tracing,
  /// Perfetto). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  /// Innermost open span of the calling thread, or -1.
  int64_t Current() const;

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; finished and open spans
  int64_t next_id_ = 0;      // guarded by mu_
};

/// RAII span around one layer call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer->enabled() ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
