#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <vector>

#include "util/crc32.h"
#include "util/fault_injector.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table.h"

namespace deepst {
namespace util {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad K");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad K");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad K");
}

TEST(StatusTest, AllCodesRender) {
  EXPECT_EQ(Status::NotFound("x").ToString(), "NotFound: x");
  EXPECT_EQ(Status::OutOfRange("x").ToString(), "OutOfRange: x");
  EXPECT_EQ(Status::FailedPrecondition("x").ToString(),
            "FailedPrecondition: x");
  EXPECT_EQ(Status::IoError("x").ToString(), "IoError: x");
  EXPECT_EQ(Status::Internal("x").ToString(), "Internal: x");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), Status::Code::kNotFound);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, GumbelMean) {
  // Gumbel(0,1) mean is the Euler-Mascheroni constant 0.5772.
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Gumbel();
  EXPECT_NEAR(sum / n, 0.5772, 0.02);
}

TEST(RngTest, CategoricalProportions) {
  Rng rng(17);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.015);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.015);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork(0);
  Rng a2(5);
  Rng child2 = a2.Fork(0);
  // Same parent+id -> same stream.
  EXPECT_EQ(child.NextUint64(), child2.NextUint64());
  // Different id -> different stream.
  Rng a3(5);
  Rng child3 = a3.Fork(1);
  EXPECT_NE(child.NextUint64(), child3.NextUint64());
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(n), 0.25, 0.01);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, StateRoundTripContinuesStream) {
  Rng a(1234);
  // Burn an odd number of Gaussian draws so the cached Box-Muller half is
  // populated -- the state must carry it.
  for (int i = 0; i < 7; ++i) (void)a.Gaussian();
  for (int i = 0; i < 5; ++i) (void)a.NextUint64();
  const Rng::State st = a.GetState();
  Rng b(999);  // unrelated seed, fully overwritten by SetState
  b.SetState(st);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
  for (int i = 0; i < 9; ++i) {
    EXPECT_DOUBLE_EQ(a.Gaussian(), b.Gaussian());
  }
}

TEST(Crc32Test, KnownVectors) {
  // The zlib/PNG check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  Crc32Accumulator acc;
  acc.Update(data.data(), 10);
  acc.Update(data.data() + 10, data.size() - 10);
  EXPECT_EQ(acc.value(), Crc32(data.data(), data.size()));
  // Seed-chaining form agrees too.
  const uint32_t first = Crc32(data.data(), 10);
  EXPECT_EQ(Crc32(data.data() + 10, data.size() - 10, first), acc.value());
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::string data(64, '\x5a');
  const uint32_t clean = Crc32(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); ++byte) {
    data[byte] ^= 1;
    EXPECT_NE(Crc32(data.data(), data.size()), clean) << "byte " << byte;
    data[byte] ^= 1;
  }
}

// The production Crc32 dispatches to a PCLMUL folding kernel for long
// buffers where the CPU supports it; every path must agree bit-for-bit with
// the definitional one-bit-at-a-time CRC, for any length, alignment and
// seed split (including splits that cross the SIMD/table boundary).
TEST(Crc32Test, MatchesBytewiseReferenceAcrossSizesAndAlignments) {
  const auto reference = [](const unsigned char* p, size_t n) {
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int b = 0; b < 8; ++b) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
    }
    return c ^ 0xFFFFFFFFu;
  };
  std::vector<unsigned char> data(4103);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<unsigned char>((i * 131u) ^ (i >> 3));
  }
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{15},
                         size_t{16}, size_t{63}, size_t{64}, size_t{65},
                         size_t{79}, size_t{80}, size_t{127}, size_t{128},
                         size_t{129}, size_t{255}, size_t{256}, size_t{1000},
                         size_t{4096}, size_t{4100}}) {
    for (const size_t off : {size_t{0}, size_t{1}, size_t{3}}) {
      ASSERT_EQ(Crc32(data.data() + off, n), reference(data.data() + off, n))
          << "n=" << n << " off=" << off;
    }
  }
  // Seed chaining across the dispatch boundary: short head (table path)
  // continued by a long tail (SIMD path), and vice versa.
  const uint32_t whole = Crc32(data.data(), data.size());
  for (const size_t split : {size_t{5}, size_t{64}, size_t{100}, size_t{4097}}) {
    const uint32_t head = Crc32(data.data(), split);
    ASSERT_EQ(Crc32(data.data() + split, data.size() - split, head), whole)
        << "split=" << split;
  }
}

TEST(HashToUnitTest, InUnitIntervalAndDeterministic) {
  for (uint64_t x = 0; x < 1000; ++x) {
    const double u = HashToUnit(x);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_EQ(u, HashToUnit(x));
  }
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "ab", 1.5), "3-ab-1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringUtilTest, SplitAndJoin) {
  auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(StrJoin(parts, "|"), "a|b||c");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.63721, 3), "0.637");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
}

TEST(TableTest, AlignedRendering) {
  Table t({"Method", "acc"});
  t.AddRow({"DeepST", "0.612"});
  t.AddRow("MMI", {0.2811}, 3);
  const std::string s = t.ToString();
  EXPECT_NE(s.find("DeepST"), std::string::npos);
  EXPECT_NE(s.find("0.281"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(FlagsTest, ParsesKeyValueForms) {
  // Note the grammar: "--key token" consumes `token` as the value unless it
  // is itself an option, so bool flags must precede another option or end
  // the line; positionals otherwise come before any space-separated option.
  const char* argv[] = {"prog",    "pos1", "--a=1", "--b",
                        "2",       "--d",  "--e=",  "--c=x=y",
                        "--flag"};
  auto flags = Flags::Parse(9, argv);
  ASSERT_TRUE(flags.ok());
  const Flags& f = flags.value();
  EXPECT_EQ(f.GetString("a"), "1");
  EXPECT_EQ(f.GetString("b"), "2");
  EXPECT_TRUE(f.GetBool("flag"));
  EXPECT_TRUE(f.GetBool("d"));
  EXPECT_EQ(f.GetString("c"), "x=y");  // first '=' splits
  EXPECT_EQ(f.GetString("e"), "");
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "pos1");
  EXPECT_FALSE(f.Has("missing"));
  EXPECT_EQ(f.GetString("missing", "dflt"), "dflt");
}

TEST(FlagsTest, TypedGettersAndErrors) {
  const char* argv[] = {"prog", "--n=42", "--x=2.5", "--bad=abc",
                        "--off=false"};
  auto flags = Flags::Parse(5, argv);
  ASSERT_TRUE(flags.ok());
  const Flags& f = flags.value();
  EXPECT_EQ(f.GetInt("n", 0).value(), 42);
  EXPECT_DOUBLE_EQ(f.GetDouble("x", 0.0).value(), 2.5);
  EXPECT_EQ(f.GetInt("missing", 7).value(), 7);
  EXPECT_FALSE(f.GetInt("bad", 0).ok());
  EXPECT_FALSE(f.GetDouble("bad", 0.0).ok());
  EXPECT_FALSE(f.GetBool("off", true));
}

TEST(FlagsTest, RejectsBareDoubleDash) {
  const char* argv[] = {"prog", "--"};
  auto flags = Flags::Parse(2, argv);
  EXPECT_FALSE(flags.ok());
}

TEST(FlagsTest, RejectUnknownNamesTheFirstUnlistedOption) {
  const char* argv[] = {"prog", "file.bin", "--seed", "5", "--zeta=1",
                        "--bogus", "x", "--resume"};
  auto flags = Flags::Parse(8, argv);
  ASSERT_TRUE(flags.ok());
  const Flags& f = flags.value();
  const Status unknown = f.RejectUnknown({"seed", "resume"});
  EXPECT_EQ(unknown.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(unknown.message().find("--bogus"), std::string::npos)
      << unknown.message();
  EXPECT_NE(f.RejectUnknown({"seed", "resume", "bogus"}).message().find(
                "--zeta"),
            std::string::npos);
  // Positional arguments are not options, and listed names need not appear.
  EXPECT_TRUE(
      f.RejectUnknown({"seed", "resume", "bogus", "zeta", "threads"}).ok());
  const char* bare[] = {"prog", "only-positional"};
  EXPECT_TRUE(Flags::Parse(2, bare).value().RejectUnknown({}).ok());
}

TEST(TableTest, CsvRoundTripQuoting) {
  Table t({"a", "b"});
  t.AddRow({"x,y", "plain"});
  const std::string path = testing::TempDir() + "/deepst_table_test.csv";
  ASSERT_TRUE(t.WriteCsv(path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "\"x,y\",plain");
}

// Fault-spec grammar (docs/robustness.md): a malformed spec must come back
// as InvalidArgument naming the bad token, and must arm nothing -- parsing
// is all-or-nothing, so a chaos-harness typo never leaves the process
// half-armed.
class FaultSpecTest : public testing::Test {
 protected:
  void TearDown() override { FaultInjector::Instance().Reset(); }

  static std::string ErrorFor(const std::string& spec) {
    const Status s = FaultInjector::Instance().ArmFromSpec(spec);
    EXPECT_FALSE(s.ok()) << "spec '" << spec << "' parsed unexpectedly";
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << spec;
    return s.ToString();
  }
};

TEST_F(FaultSpecTest, WellFormedSpecsArm) {
  FaultInjector& fi = FaultInjector::Instance();
  ASSERT_TRUE(fi.ArmFromSpec("a.point:io_error").ok());
  EXPECT_TRUE(fi.enabled());
  fi.Reset();
  ASSERT_TRUE(
      fi.ArmFromSpec(" a.point:partial_read@2x3 , b.point:alloc ").ok());
  EXPECT_TRUE(fi.enabled());
  // @2: the first two traversals pass, then x3 fire.
  EXPECT_TRUE(CheckFaultPoint("a.point").ok());
  EXPECT_TRUE(CheckFaultPoint("a.point").ok());
  EXPECT_FALSE(CheckFaultPoint("a.point").ok());
  EXPECT_FALSE(CheckFaultPoint("a.point").ok());
  EXPECT_FALSE(CheckFaultPoint("a.point").ok());
  EXPECT_TRUE(CheckFaultPoint("a.point").ok());  // budget spent
  EXPECT_EQ(CheckFaultPoint("b.point").code(),
            Status::Code::kResourceExhausted);
  // An empty spec arms nothing and is not an error.
  fi.Reset();
  EXPECT_TRUE(fi.ArmFromSpec("").ok());
  EXPECT_FALSE(fi.enabled());
}

TEST_F(FaultSpecTest, ErrorsNameTheBadToken) {
  // Missing ':' separator.
  EXPECT_NE(ErrorFor("justapoint").find("'justapoint'"), std::string::npos);
  EXPECT_NE(ErrorFor("justapoint").find("no ':'"), std::string::npos);
  // Empty point name.
  EXPECT_NE(ErrorFor(":io_error").find("names no fault point"),
            std::string::npos);
  // Empty kind.
  EXPECT_NE(ErrorFor("p:").find("names no kind"), std::string::npos);
  // Unknown kind, spelled out in the message with the valid alternatives.
  const std::string unknown = ErrorFor("p:walrus");
  EXPECT_NE(unknown.find("'walrus'"), std::string::npos);
  EXPECT_NE(unknown.find("io_error|partial_read|latency|alloc"),
            std::string::npos);
  // Malformed count / after tokens.
  EXPECT_NE(ErrorFor("p:io_error x2b").find("'x2b'"), std::string::npos);
  EXPECT_NE(ErrorFor("p:io_error@ten").find("'@ten'"), std::string::npos);
  EXPECT_NE(ErrorFor("p:io_errorx0").find("'x0'"), std::string::npos);
}

TEST_F(FaultSpecTest, MalformedSpecArmsNothing) {
  FaultInjector& fi = FaultInjector::Instance();
  // First entry is valid, second is not: all-or-nothing means even the
  // valid entry must not arm.
  const Status s = fi.ArmFromSpec("good.point:io_error,bad.point:walrus");
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(fi.enabled());
  EXPECT_TRUE(CheckFaultPoint("good.point").ok());
}

}  // namespace
}  // namespace util
}  // namespace deepst
