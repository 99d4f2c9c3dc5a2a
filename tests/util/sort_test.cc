#include "util/sort.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace moche {
namespace {

double FromBits(uint64_t bits) {
  double x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// The oracle: std::sort by the same key. The key is a bijection, so the
// comparator is a strict total order on every bit pattern.
std::vector<double> OracleSort(std::vector<double> v) {
  std::sort(v.begin(), v.end(), [](double a, double b) {
    return DoubleSortKey(a) < DoubleSortKey(b);
  });
  return v;
}

::testing::AssertionResult SortsLikeOracle(const std::vector<double>& input) {
  std::vector<double> got = input;
  SortDoubles(got.data(), got.size());
  const std::vector<double> want = OracleSort(input);
  for (size_t i = 0; i < want.size(); ++i) {
    if (Bits(got[i]) != Bits(want[i])) {
      return ::testing::AssertionFailure()
             << "n=" << input.size() << ": bits differ at " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

double Denormal(std::mt19937_64& engine) {
  const uint64_t mantissa = engine() & ((uint64_t{1} << 52) - 1);
  return FromBits(((engine() & 1) << 63) | mantissa | 1);
}

double NanWithPayload(std::mt19937_64& engine) {
  const uint64_t payload = (engine() & ((uint64_t{1} << 52) - 1)) | 1;
  const uint64_t sign = (engine() & 1) << 63;
  return FromBits(sign | (uint64_t{0x7FF} << 52) | payload);
}

// One input of `n` values of the given kind.
std::vector<double> MakeInput(const std::string& kind, size_t n,
                              std::mt19937_64& engine) {
  std::normal_distribution<double> normal;
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = normal(engine);
    if (kind == "all_equal") {
      v[i] = 1.5;
    } else if (kind == "heavy_ties") {
      static const double kAlphabet[] = {-2.0, -0.0, 0.0, 0.1, 0.5, 3.0};
      v[i] = kAlphabet[engine() % 6];
    } else if (kind == "sorted") {
      v[i] = static_cast<double>(i) - static_cast<double>(n) / 2;
    } else if (kind == "reversed") {
      v[i] = static_cast<double>(n) / 2 - static_cast<double>(i);
    } else if (kind == "signed_zeros") {
      v[i] = i % 2 == 0 ? -0.0 : 0.0;
    } else if (kind == "denormals") {
      v[i] = i % 3 == 0 ? x : Denormal(engine);
    } else if (kind == "infinities") {
      const double inf = std::numeric_limits<double>::infinity();
      v[i] = i % 5 == 0 ? inf : i % 5 == 1 ? -inf : x;
    } else if (kind == "nan_payloads") {
      v[i] = i % 4 == 0 ? NanWithPayload(engine) : x;
    } else {  // "random_bits": every bit pattern, NaN and ±0 included
      v[i] = FromBits(engine());
    }
  }
  return v;
}

const char* const kKinds[] = {"all_equal",   "heavy_ties",   "sorted",
                              "reversed",    "signed_zeros", "denormals",
                              "infinities",  "nan_payloads", "random_bits"};

TEST(SortDoublesTest, KeyOrderIsTotalWithNegativeZeroFirst) {
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> ascending = {
      FromBits(0xFFFFFFFFFFFFFFFF),  // -NaN, largest payload
      FromBits(0xFFF0000000000001),  // -NaN, smallest payload
      -inf, -1.0, -denorm, -0.0, 0.0, denorm, 1.0, inf,
      FromBits(0x7FF0000000000001),  // +NaN, smallest payload
      FromBits(0x7FFFFFFFFFFFFFFF),  // +NaN, largest payload
  };
  for (size_t i = 1; i < ascending.size(); ++i) {
    EXPECT_LT(DoubleSortKey(ascending[i - 1]), DoubleSortKey(ascending[i]))
        << "at " << i;
  }
  std::vector<double> v(ascending.rbegin(), ascending.rend());
  SortDoubles(v.data(), v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(Bits(v[i]), Bits(ascending[i])) << "at " << i;
  }
}

TEST(SortDoublesTest, KeyOrderIsOperatorLessOnNonZeroNumbers) {
  std::mt19937_64 engine(11);
  for (int i = 0; i < 100000; ++i) {
    const double a = FromBits(engine());
    const double b = FromBits(engine());
    if (std::isnan(a) || std::isnan(b) || a == 0.0 || b == 0.0) continue;
    ASSERT_EQ(a < b, DoubleSortKey(a) < DoubleSortKey(b)) << a << " " << b;
  }
}

TEST(SortDoublesTest, EverySizeThroughTheCutoffMatchesTheOracle) {
  std::mt19937_64 engine(2024);
  for (const char* kind : kKinds) {
    for (size_t n = 0; n <= kSortSmallRange + 2; ++n) {
      ASSERT_TRUE(SortsLikeOracle(MakeInput(kind, n, engine))) << kind;
    }
  }
}

TEST(SortDoublesTest, LargeInputsMatchTheOracle) {
  std::mt19937_64 engine(7);
  for (const char* kind : kKinds) {
    EXPECT_TRUE(SortsLikeOracle(MakeInput(kind, 100000, engine))) << kind;
  }
  // Values one ulp apart share every high key bit, so the radix recursion
  // runs to its deepest levels.
  std::vector<double> close(50000);
  for (double& x : close) x = FromBits(Bits(1.0) + (engine() & 0xFFFFF));
  EXPECT_TRUE(SortsLikeOracle(close));
  // Tie runs larger than the cutoff end at the all-equal exit.
  std::vector<double> runs(20000);
  for (size_t i = 0; i < runs.size(); ++i) {
    runs[i] = static_cast<double>(engine() % 4) * 0.1;
  }
  EXPECT_TRUE(SortsLikeOracle(runs));
}

TEST(SortDoublesTest, OutputIsTheSameForEveryPermutation) {
  std::mt19937_64 engine(99);
  for (size_t n : {size_t{17}, size_t{600}, kSortSmallRange + 1,
                   size_t{5000}}) {
    for (const char* kind : {"heavy_ties", "signed_zeros", "random_bits"}) {
      const std::vector<double> input = MakeInput(kind, n, engine);
      std::vector<double> first = input;
      SortDoubles(first.data(), first.size());
      for (int rep = 0; rep < 4; ++rep) {
        std::vector<double> shuffled = input;
        std::shuffle(shuffled.begin(), shuffled.end(), engine);
        SortDoubles(shuffled.data(), shuffled.size());
        ASSERT_EQ(0, std::memcmp(first.data(), shuffled.data(),
                                 n * sizeof(double)))
            << kind << " n=" << n;
      }
    }
  }
}

TEST(SortDoublesTest, EmptyAndSingleAreNoOps) {
  SortDoubles(nullptr, 0);
  double one = -0.0;
  SortDoubles(&one, 1);
  EXPECT_EQ(Bits(one), Bits(-0.0));
}

}  // namespace
}  // namespace moche
