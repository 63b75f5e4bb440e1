// Unit tests of the benchmark's own helpers: percentiles and the
// ten-beyond rule, failed_frac accounting, the seeded serve request mix,
// and span self time.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace e2ebench {
namespace {

TEST(PercentileTest, NearestRankAndMedian) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const Percentile p50 = ComputePercentile(v, 50);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.samples, 100);
  EXPECT_EQ(p50.beyond, 50);
  EXPECT_EQ(ComputePercentile(v, 99).value, 99);
  EXPECT_EQ(ComputePercentile(v, 100).value, 100);
  EXPECT_EQ(ComputePercentile({7.0}, 99).value, 7.0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(PercentileTest, TenBeyondRule) {
  std::vector<double> v(999, 1.0);
  // 999 samples: rank of p99 is 990, only 9 samples beyond it.
  Percentile p = ComputePercentile(v, 99);
  EXPECT_EQ(p.beyond, 9);
  EXPECT_FALSE(p.reportable);
  v.push_back(1.0);  // 1000 samples: exactly ten beyond
  p = ComputePercentile(v, 99);
  EXPECT_EQ(p.beyond, 10);
  EXPECT_TRUE(p.reportable);
  EXPECT_FALSE(ComputePercentile({}, 50).reportable);
}

TEST(OpCounterTest, FailedFraction) {
  OpCounter ops;
  EXPECT_EQ(ops.failed_frac(), 0.0);
  for (int i = 0; i < 8; ++i) ops.Record(i != 3);
  EXPECT_EQ(ops.attempted(), 8);
  EXPECT_EQ(ops.failed(), 1);
  ops.MarkFailed();  // a later output check rejects a successful call
  EXPECT_EQ(ops.attempted(), 8);
  EXPECT_EQ(ops.failed(), 2);
  EXPECT_DOUBLE_EQ(ops.failed_frac(), 0.25);
}

TEST(OpCounterTest, ConcurrentRecords) {
  OpCounter ops;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&ops] {
      for (int i = 0; i < 1000; ++i) ops.Record(i % 10 != 0);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ops.attempted(), 4000);
  EXPECT_EQ(ops.failed(), 400);
}

std::vector<ServeRequestSpec> Take(RequestMix mix, int n) {
  std::vector<ServeRequestSpec> out;
  for (int i = 0; i < n; ++i) out.push_back(mix.Next());
  return out;
}

bool SameSequence(const std::vector<ServeRequestSpec>& a,
                  const std::vector<ServeRequestSpec>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].to_table != b[i].to_table || a[i].row_begin != b[i].row_begin ||
        a[i].row_end != b[i].row_end) {
      return false;
    }
  }
  return true;
}

TEST(RequestMixTest, SameSeedSameSequence) {
  constexpr int64_t kTable = 1 << 17;
  EXPECT_TRUE(SameSequence(Take(RequestMix(5, 1, 4, kTable), 200),
                           Take(RequestMix(5, 1, 4, kTable), 200)));
  EXPECT_FALSE(SameSequence(Take(RequestMix(5, 1, 4, kTable), 200),
                            Take(RequestMix(6, 1, 4, kTable), 200)));
}

TEST(RequestMixTest, BlocksHoldTheMix) {
  const std::vector<ServeRequestSpec> seq =
      Take(RequestMix(11, 0, 4, 1 << 17), 8 * 25);
  int table = 0, large = 0;
  for (const ServeRequestSpec& s : seq) {
    table += s.to_table;
    large += s.rows() == RequestMix::kLargeRows;
    EXPECT_TRUE(s.rows() == RequestMix::kSmallRows ||
                s.rows() == RequestMix::kLargeRows);
  }
  EXPECT_EQ(table, 100);  // half to each source
  EXPECT_EQ(large, 50);   // 3:1 small to large
}

TEST(RequestMixTest, RangesDisjointAndInBounds) {
  constexpr int64_t kTable = 1 << 17;
  constexpr int kConns = 4;
  std::vector<std::pair<int64_t, int64_t>> table_ranges, gan_ranges;
  for (int c = 0; c < kConns; ++c) {
    RequestMix mix(99, c, kConns, kTable);
    int64_t table_rows = 0;
    // Stay within one pass over the connection's stripe of the table.
    while (true) {
      const ServeRequestSpec s = mix.Next();
      if (s.to_table) {
        table_rows += s.rows();
        if (table_rows > kTable / kConns - RequestMix::kLargeRows) break;
        EXPECT_GE(s.row_begin, 0);
        EXPECT_LE(s.row_end, kTable);
        table_ranges.emplace_back(s.row_begin, s.row_end);
      } else {
        gan_ranges.emplace_back(s.row_begin, s.row_end);
      }
    }
  }
  for (auto* ranges : {&table_ranges, &gan_ranges}) {
    std::sort(ranges->begin(), ranges->end());
    for (size_t i = 1; i < ranges->size(); ++i) {
      EXPECT_LE((*ranges)[i - 1].second, (*ranges)[i].first);
    }
  }
  EXPECT_GT(table_ranges.size(), 100u);
}

TEST(RequestMixTest, TableRangesWrapInsideTheStripe) {
  constexpr int64_t kTable = 4 * 2048;
  RequestMix mix(3, 2, 4, kTable);
  for (int i = 0; i < 500; ++i) {
    const ServeRequestSpec s = mix.Next();
    if (!s.to_table) continue;
    EXPECT_GE(s.row_begin, 2 * 2048);
    EXPECT_LE(s.row_end, 3 * 2048);
  }
}

Span MakeSpan(const char* name, int64_t id, int64_t parent, int64_t start,
              int64_t end) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, SubtractsChildCoverage) {
  // core [0, 100) with children nn [10, 40) and data [30, 60) overlapping
  // (covered 10..60 = 50), and a grandchild tensor [12, 20) under nn.
  const std::vector<Span> spans = {
      MakeSpan("core.Fit", 0, -1, 0, 100),
      MakeSpan("nn.G.fwd", 1, 0, 10, 40),
      MakeSpan("data.Read", 2, 0, 30, 60),
      MakeSpan("tensor.Gemm", 3, 1, 12, 20),
      MakeSpan("serve.Call", 4, -1, 200, 230),
  };
  const std::map<std::string, double> self = SelfSecondsByLayer(spans);
  EXPECT_NEAR(self.at("core"), 50e-9, 1e-15);
  EXPECT_NEAR(self.at("nn"), 22e-9, 1e-15);
  EXPECT_NEAR(self.at("data"), 30e-9, 1e-15);
  EXPECT_NEAR(self.at("tensor"), 8e-9, 1e-15);
  EXPECT_NEAR(self.at("serve"), 30e-9, 1e-15);
}

TEST(SelfTimeTest, ClipsChildrenToParent) {
  const std::vector<Span> spans = {
      MakeSpan("core.A", 0, -1, 0, 10),
      MakeSpan("nn.B", 1, 0, 5, 20),  // runs past its parent
  };
  const std::map<std::string, double> self = SelfSecondsByLayer(spans);
  EXPECT_NEAR(self.at("core"), 5e-9, 1e-15);
  EXPECT_NEAR(self.at("nn"), 15e-9, 1e-15);
}

TEST(TracerTest, NestsPerThreadAndDisabledRecordsNothing) {
  Tracer off(false);
  { ScopedSpan s(&off, "core.X"); }
  EXPECT_TRUE(off.spans().empty());

  Tracer on(true);
  {
    ScopedSpan outer(&on, "core.Outer");
    ScopedSpan inner(&on, "nn.Inner");
  }
  const std::vector<Span> spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
  EXPECT_EQ(LayerOf("serve.Client.Call"), "serve");
}

TEST(ResultJsonTest, ExactKeysAndFullDigits) {
  EXPECT_EQ(ResultJson(true, 3, 0, {{"p50_ms", 0.1234567890123, "ms"}}),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"p50_ms\": {\"value\": 0.12345678901230001, "
            "\"unit\": \"ms\"}}}");
}

}  // namespace
}  // namespace e2ebench
