#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/failpoint.h"
#include "common/io_retry.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace tablegan {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kInternal, StatusCode::kIOError,
        StatusCode::kUnimplemented}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Doubler(Result<int> in) {
  TABLEGAN_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_FALSE(Doubler(Status::Internal("boom")).ok());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedUniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.Uniform(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(13);
  std::vector<double> w{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<size_t>(rng.NextCategorical(w))];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, PermutationIsBijective) {
  Rng rng(17);
  std::vector<int> p = rng.Permutation(50);
  std::set<int> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 49);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.Split();
  EXPECT_NE(a.NextUint64(), child.NextUint64());
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, [&](int i) { hits[static_cast<size_t>(i)].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ClampsToOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<int> counter{0};
  pool.ParallelFor(5, [&](int) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 5);
}

TEST(ThreadPoolTest, ParallelForPropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [](int i) {
                                  if (i == 37) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::atomic<int> counter{0};
  pool.ParallelFor(10, [&](int) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelFor(4, [&](int) {
    pool.ParallelFor(8, [&](int) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolTest, SubmitFromWorkerDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelFor(4, [&](int) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 4);
}

TEST(ThreadPoolTest, ThrowingSubmitTaskDoesNotTerminateThePool) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("swallowed"); });
  pool.WaitIdle();
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ParallelTest, ThreadCountResolutionOrder) {
  SetNumThreads(0);
  ::setenv("TABLEGAN_NUM_THREADS", "3", 1);
  EXPECT_EQ(GetNumThreads(), 3);
  SetNumThreads(2);  // programmatic override beats the environment
  EXPECT_EQ(GetNumThreads(), 2);
  SetNumThreads(0);  // back to the environment
  EXPECT_EQ(GetNumThreads(), 3);
  ::unsetenv("TABLEGAN_NUM_THREADS");
  EXPECT_GE(GetNumThreads(), 1);
}

TEST(ParallelTest, CoversRangeExactlyOnceWithChunkBoundariesFromGrain) {
  SetNumThreads(4);
  std::vector<std::atomic<int>> hits(103);
  ParallelFor(103, 7, [&](int64_t begin, int64_t end) {
    EXPECT_EQ(begin % 7, 0);          // chunk layout is a pure fn of (n, grain)
    EXPECT_LE(end - begin, 7);
    for (int64_t i = begin; i < end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  SetNumThreads(0);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, PropagatesBodyException) {
  SetNumThreads(4);
  EXPECT_THROW(ParallelFor(64, 1,
                           [](int64_t begin, int64_t) {
                             if (begin == 17) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  SetNumThreads(0);
}

TEST(ParallelTest, NestedCallsRunInlineWithoutDeadlock) {
  SetNumThreads(4);
  std::atomic<int> inner{0};
  std::atomic<bool> saw_region{false};
  ParallelFor(8, 1, [&](int64_t begin, int64_t end) {
    if (InParallelRegion()) saw_region.store(true);
    for (int64_t i = begin; i < end; ++i) {
      ParallelFor(4, 1, [&](int64_t b, int64_t e) {
        inner.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  SetNumThreads(0);
  EXPECT_EQ(inner.load(), 32);
  EXPECT_TRUE(saw_region.load());
  EXPECT_FALSE(InParallelRegion());
}

// ------------------------------------------------------------------
// Build rule: no implicit FP contraction. Every target inherits
// -ffp-contract=off from tablegan_common, so the compiler may not fuse
// a*b + c into one multiply-add and the bits are a property of the
// source. Here x*x = 1 + 2^-11 + 2^-24 rounds to 1 + 2^-11 on its own
// (a tie to even), so the sum is 0 with two roundings and 2^-24 fused.

TEST(FpContractTest, MultiplyAddRoundsTwice) {
  volatile float vx = 1.0f + 0x1p-12f;
  volatile float vz = -(1.0f + 0x1p-11f);
  const float x = vx;
  const float z = vz;
  const float got = x * x + z;
  EXPECT_EQ(got, 0.0f) << "a*b + c was fused (std::fma gives "
                       << std::fma(x, x, z) << ")";
}

// ------------------------------------------------------------------
// args::ParseInt / args::ParseDouble — strict flag parsing.

TEST(ArgsTest, ParseIntAcceptsPlainIntegers) {
  EXPECT_EQ(*args::ParseInt("0"), 0);
  EXPECT_EQ(*args::ParseInt("42"), 42);
  EXPECT_EQ(*args::ParseInt("-7"), -7);
  EXPECT_EQ(*args::ParseInt("+13"), 13);
  EXPECT_EQ(*args::ParseInt("  8"), 8);  // strtoll-style leading space
  EXPECT_EQ(*args::ParseInt("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(*args::ParseInt("-9223372036854775808"), INT64_MIN);
}

TEST(ArgsTest, ParseIntRejectsWhatAtoiSwallows) {
  // Each of these is a silent 0 / prefix-truncation under std::atoi.
  EXPECT_FALSE(args::ParseInt("").ok());
  EXPECT_FALSE(args::ParseInt("x").ok());
  EXPECT_FALSE(args::ParseInt("12x").ok());
  EXPECT_FALSE(args::ParseInt("1e3").ok());
  EXPECT_FALSE(args::ParseInt("4.5").ok());
  EXPECT_FALSE(args::ParseInt("7 ").ok());  // trailing space
  EXPECT_FALSE(args::ParseInt("-").ok());
  EXPECT_FALSE(args::ParseInt("9223372036854775808").ok());  // overflow
}

TEST(ArgsTest, ParseIntEnforcesBounds) {
  EXPECT_EQ(*args::ParseInt("5", 1, 10), 5);
  EXPECT_FALSE(args::ParseInt("0", 1, 10).ok());
  EXPECT_FALSE(args::ParseInt("11", 1, 10).ok());
  // The rejection names the offending text and the bounds.
  const Status s = args::ParseInt("11", 1, 10).status();
  EXPECT_NE(s.message().find("11"), std::string::npos);
}

TEST(ArgsTest, ParseDoubleStrictness) {
  EXPECT_DOUBLE_EQ(*args::ParseDouble("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(*args::ParseDouble("-1e-3"), -1e-3);
  EXPECT_FALSE(args::ParseDouble("").ok());
  EXPECT_FALSE(args::ParseDouble("1.5x").ok());
  EXPECT_FALSE(args::ParseDouble("nanx").ok());
  EXPECT_FALSE(args::ParseDouble("1e999").ok());  // overflow
  // Gradual underflow is a value, not an error (matches ReadCsv).
  EXPECT_TRUE(args::ParseDouble("1e-320").ok());
}

// ------------------------------------------------------------------
// io:: — EINTR-safe read/write loops.

TEST(IoRetryTest, WriteAndReadFullRetryInjectedEintr) {
  failpoint::Reset();
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload(8192, 'q');
  {
    // The first write attempt is interrupted; the loop must retry and
    // still move every byte.
    failpoint::Scoped w("io.write_eintr", "once");
    EXPECT_TRUE(io::WriteFull(fds[1], payload.data(), payload.size()).ok());
    EXPECT_EQ(failpoint::TriggerCount("io.write_eintr"), 1);
  }
  ::close(fds[1]);
  std::string got(payload.size(), '\0');
  {
    failpoint::Scoped r("io.read_eintr", "once");
    auto n = io::ReadFull(fds[0], got.data(), got.size());
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(*n, payload.size());
    EXPECT_EQ(failpoint::TriggerCount("io.read_eintr"), 1);
  }
  EXPECT_EQ(got, payload);
  ::close(fds[0]);
  failpoint::Reset();
}

TEST(IoRetryTest, ReadFullReportsEofShort) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], "abc", 3), 3);
  ::close(fds[1]);
  char buf[16];
  auto n = io::ReadFull(fds[0], buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);  // < requested iff EOF intervened
  ::close(fds[0]);
}

TEST(IoRetryTest, ReadWholeFileRoundTripsUnderEintr) {
  failpoint::Reset();
  const std::string path = "io_retry_whole_file.bin";
  std::string payload;
  for (int i = 0; i < 100000; ++i) {
    payload.push_back(static_cast<char>(i * 131 % 251));
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(payload.data(), 1, payload.size(), f),
            payload.size());
  std::fclose(f);
  {
    failpoint::Scoped r("io.read_eintr", "once");
    auto got = io::ReadWholeFile(path);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, payload);
  }
  std::remove(path.c_str());
  auto missing = io::ReadWholeFile(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("cannot open for read"),
            std::string::npos);
  failpoint::Reset();
}

}  // namespace
}  // namespace tablegan
