#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "stats.h"

namespace e2ebench {
namespace {

thread_local std::vector<int64_t> t_open_spans;

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans) {
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const Span& s : spans) {
    if (s.parent >= 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      std::vector<std::pair<int64_t, int64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t run_begin = 0, run_end = 0;
      bool open = false;
      for (auto [b, e] : iv) {
        b = std::max(b, s.start_ns);
        e = std::min(e, s.end_ns);
        if (e <= b) continue;
        if (open && b <= run_end) {
          run_end = std::max(run_end, e);
          continue;
        }
        if (open) covered += run_end - run_begin;
        run_begin = b;
        run_end = e;
        open = true;
      }
      if (open) covered += run_end - run_begin;
    }
    self[LayerOf(s.name)] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

int64_t Tracer::Begin(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  s.tid = ThreadIndex();
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = s.id = next_id_++;
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
  }
  t_open_spans.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  if (!enabled_ || id < 0) return;
  const int64_t now = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
}

void Tracer::Record(const std::string& name, int64_t start_ns, int64_t end_ns,
                    int64_t parent) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent >= 0 ? parent : Current();
  s.tid = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = next_id_++;
  spans_.push_back(std::move(s));
}

int64_t Tracer::Current() const {
  return t_open_spans.empty() ? -1 : t_open_spans.back();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> all = spans();
  int64_t origin = all.empty() ? 0 : all.front().start_ns;
  for (const Span& s : all) origin = std::min(origin, s.start_ns);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                  "\"dur\": %.3f, ",
                  s.tid, static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": " << JsonString(s.name)
        << ", \"cat\": " << JsonString(LayerOf(s.name)) << ", " << buf
        << "\"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace e2ebench
