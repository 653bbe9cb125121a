// Unit tests for util/: Status, Result, Rng, stats, CSV, config, threadpool.

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "util/config.h"
#include "util/crc32c.h"
#include "util/logging.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/threadpool.h"

namespace corgipile {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::IoError("disk on fire");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIoError());
  EXPECT_EQ(st.message(), "disk on fire");
  EXPECT_EQ(st.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, AllConstructorsSetMatchingCode) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r{Status::OK()};
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseMacros(int x, int* out) {
  CORGI_ASSIGN_OR_RETURN(int half, HalveEven(x));
  CORGI_RETURN_NOT_OK(Status::OK());
  *out = half;
  return Status::OK();
}

TEST(ResultTest, Macros) {
  int out = 0;
  EXPECT_TRUE(UseMacros(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(UseMacros(7, &out).IsInvalidArgument());
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(17);
  auto p = rng.Permutation(100);
  std::set<uint32_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  auto s = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(s.size(), 20u);
  std::set<uint32_t> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 20u);
  for (uint32_t v : s) EXPECT_LT(v, 50u);
}

TEST(RngTest, SampleWithoutReplacementUniformMarginals) {
  // Every element of [0, 10) should appear in a 5-of-10 sample about half
  // the time.
  Rng rng(23);
  std::vector<int> counts(10, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (uint32_t v : rng.SampleWithoutReplacement(10, 5)) ++counts[v];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.5, 0.02);
  }
}

TEST(RngTest, ForkIndependentOfParentSequence) {
  Rng a(31);
  Rng fork1 = a.Fork(5);
  const uint64_t x = a.Next64();
  Rng b(31);
  Rng fork2 = b.Fork(5);
  EXPECT_EQ(fork1.Next64(), fork2.Next64());
  (void)x;
}

TEST(OnlineStatsTest, Basics) {
  OnlineStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(OnlineStatsTest, MergeMatchesSequential) {
  OnlineStats a, b, all;
  Rng rng(37);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.NextGaussian();
    (i % 2 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(HistogramTest, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);
  h.Add(9.99);
  h.Add(-5.0);   // clamps to first
  h.Add(100.0);  // clamps to last
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(StatsTest, PearsonCorrelation) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> z{10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
}

TEST(CsvTest, RoundTripAndEscaping) {
  CsvTable t({"name", "value"});
  t.NewRow().Add("plain").Add(int64_t{3});
  t.NewRow().Add("with,comma").Add(2.5);
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(CsvTest, AlignedTextHasHeaderRule) {
  CsvTable t({"alpha", "b"});
  t.NewRow().Add("x").Add("y");
  const std::string text = t.ToAlignedText();
  // Second line is a dash rule sized to the widest cell per column.
  EXPECT_NE(text.find("-----"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
}

TEST(CsvTest, WriteFile) {
  CsvTable t({"k"});
  t.NewRow().Add("v");
  const std::string path = testing::TempDir() + "csv_test.csv";
  ASSERT_TRUE(t.WriteFile(path).ok());
}

TEST(ParamsTest, ParseAndTypedGet) {
  auto p = Params::Parse("learning_rate=0.1, max_epoch_num=20, verbose=true");
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p->GetDouble("learning_rate", 0).ValueOrDie(), 0.1);
  EXPECT_EQ(p->GetInt("max_epoch_num", 0).ValueOrDie(), 20);
  EXPECT_TRUE(p->GetBool("verbose", false).ValueOrDie());
  EXPECT_EQ(p->GetString("missing", "def").ValueOrDie(), "def");
}

TEST(ParamsTest, MalformedValueIsError) {
  auto p = Params::Parse("lr=abc");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->GetDouble("lr", 0).ok());
  EXPECT_FALSE(p->GetInt("lr", 0).ok());
  EXPECT_FALSE(p->GetBool("lr", false).ok());
}

TEST(ParamsTest, ParseErrors) {
  EXPECT_FALSE(Params::Parse("novalue").ok());
  EXPECT_FALSE(Params::Parse("=v").ok());
  EXPECT_TRUE(Params::Parse("").ok());
}

TEST(ParamsTest, DuplicateKeyIsInvalidArgument) {
  // The last value must not silently win: a repeated key is an error that
  // names the key.
  auto p = Params::Parse("seed=1, lr=0.1, seed=2");
  ASSERT_TRUE(p.status().IsInvalidArgument()) << p.status().ToString();
  EXPECT_NE(p.status().ToString().find("'seed'"), std::string::npos);
  // Keys are case-sensitive, so differently cased keys are distinct.
  EXPECT_TRUE(Params::Parse("seed=1, Seed=2").ok());
}

TEST(LoggingTest, LevelFilteringAndFormatting) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below-threshold messages must not evaluate their stream arguments.
  bool evaluated = false;
  auto probe = [&]() {
    evaluated = true;
    return "x";
  };
  CORGI_LOG(kDebug) << probe();
  EXPECT_FALSE(evaluated);
  SetLogLevel(LogLevel::kDebug);
  CORGI_LOG(kDebug) << probe();
  EXPECT_TRUE(evaluated);
  SetLogLevel(original);
}

TEST(LoggingTest, DcheckPassesOnTrue) {
  // A passing DCHECK emits nothing and does not abort.
  CORGI_DCHECK(1 + 1 == 2) << "unreachable";
  SUCCEED();
}

// RFC 3720 (iSCSI) appendix B.4 check values, on both implementations.
TEST(Crc32cTest, Rfc3720CheckValues) {
  std::vector<uint8_t> zeros(32, 0x00);
  std::vector<uint8_t> ones(32, 0xFF);
  std::vector<uint8_t> ascending(32);
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<uint8_t>(i);
  }
  const std::string digits = "123456789";
  EXPECT_EQ(Crc32c(digits.data(), digits.size()), 0xE3069283u);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(ascending.data(), ascending.size()), 0x46DD794Eu);
  EXPECT_EQ(crc32c_internal::ExtendPortable(0, digits.data(), digits.size()),
            0xE3069283u);
  EXPECT_EQ(crc32c_internal::ExtendPortable(0, zeros.data(), zeros.size()),
            0x8A9136AAu);
  if (crc32c_internal::HardwareAvailable()) {
    EXPECT_EQ(crc32c_internal::ExtendHardware(0, digits.data(), digits.size()),
              0xE3069283u);
    EXPECT_EQ(crc32c_internal::ExtendHardware(0, zeros.data(), zeros.size()),
              0x8A9136AAu);
  }
}

TEST(Crc32cTest, HardwareMatchesPortableBitForBit) {
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2 crc32 on this CPU";
  }
  constexpr size_t kMaxLen = 9000;
  Rng rng(0xC3C3);
  std::vector<uint8_t> buf(kMaxLen + 8);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Uniform(256));
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 64; ++len) lengths.push_back(len);
  for (size_t len = 65; len <= kMaxLen; len += 61) lengths.push_back(len);
  for (size_t len : {4095, 4096, 4097, 8191, 8192, 8193, 9000}) {
    lengths.push_back(len);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len : lengths) {
      const uint8_t* p = buf.data() + offset;
      const auto seed = static_cast<uint32_t>(rng.Next64());
      ASSERT_EQ(crc32c_internal::ExtendHardware(0, p, len),
                crc32c_internal::ExtendPortable(0, p, len))
          << "offset " << offset << " len " << len;
      ASSERT_EQ(crc32c_internal::ExtendHardware(seed, p, len),
                crc32c_internal::ExtendPortable(seed, p, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32cTest, SplitExtendChainsMatchOneShot) {
  Rng rng(0x5A5A);
  std::vector<uint8_t> buf(9000);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Uniform(256));
  const bool hw = crc32c_internal::HardwareAvailable();
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = rng.Uniform(buf.size() + 1);
    const size_t cut1 = rng.Uniform(len + 1);
    const size_t cut2 = cut1 + rng.Uniform(len - cut1 + 1);
    const uint32_t whole = crc32c_internal::ExtendPortable(0, buf.data(), len);
    EXPECT_EQ(Crc32c(buf.data(), len), whole);
    uint32_t chained = Crc32c(buf.data(), cut1);
    chained = Crc32cExtend(chained, buf.data() + cut1, cut2 - cut1);
    chained = Crc32cExtend(chained, buf.data() + cut2, len - cut2);
    EXPECT_EQ(chained, whole) << "len " << len << " cuts " << cut1 << ","
                              << cut2;
    if (hw) {
      // A chain may switch implementation at any cut.
      uint32_t mixed = crc32c_internal::ExtendHardware(0, buf.data(), cut1);
      mixed = crc32c_internal::ExtendPortable(mixed, buf.data() + cut1,
                                              cut2 - cut1);
      mixed = crc32c_internal::ExtendHardware(mixed, buf.data() + cut2,
                                              len - cut2);
      EXPECT_EQ(mixed, whole) << "len " << len << " cuts " << cut1 << ","
                              << cut2;
    }
  }
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  CORGI_CHECK_OK(pool.ParallelFor(100, [&](size_t) { counter.fetch_add(1); }));
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SubmitFuture) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  auto fut = pool.Submit([&] { ran = true; });
  fut.get();
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace corgipile
