// The canonical little-endian codec under src/util/binary_io.h: exact
// byte layouts (the snapshot format's wire contract), bit-exact double
// round-trips including the adversarial corners, and the Reader's
// untrusted-input discipline — every bounds violation returns false with
// the cursor unmoved and the output untouched.

#include "util/binary_io.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"

namespace moche {
namespace bin {
namespace {

TEST(BinaryIoTest, IntegerLayoutsAreLittleEndian) {
  std::string out;
  AppendU8(0xAB, &out);
  AppendU32Le(0x01020304u, &out);
  AppendU64Le(0x1122334455667788ull, &out);
  const std::string expected{
      '\xAB',                                            // u8
      '\x04', '\x03', '\x02', '\x01',                    // u32, LSB first
      '\x88', '\x77', '\x66', '\x55',                    // u64, LSB first
      '\x44', '\x33', '\x22', '\x11'};
  EXPECT_EQ(out, expected);

  Reader reader(out);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  ASSERT_TRUE(reader.ReadU8(&u8));
  ASSERT_TRUE(reader.ReadU32Le(&u32));
  ASSERT_TRUE(reader.ReadU64Le(&u64));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0x01020304u);
  EXPECT_EQ(u64, 0x1122334455667788ull);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryIoTest, DoublesRoundTripBitExactly) {
  const std::vector<double> corners = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      0.1,  // not representable exactly: the decimal-text trap
  };
  std::string out;
  for (double v : corners) AppendDoubleLe(v, &out);
  Reader reader(out);
  for (double v : corners) {
    double got = 12345.0;
    ASSERT_TRUE(reader.ReadDoubleLe(&got));
    EXPECT_EQ(DoubleBits(got), DoubleBits(v))
        << "bit pattern changed for " << v;
  }
  // -0.0 and +0.0 compare equal but must stay distinct on the wire.
  EXPECT_NE(DoubleBits(0.0), DoubleBits(-0.0));
}

TEST(BinaryIoTest, DoubleWireFormatIsTheLittleEndianBitPattern) {
  std::string out;
  AppendDoubleLe(1.0, &out);  // bits 0x3FF0000000000000
  const std::string expected{'\x00', '\x00', '\x00', '\x00',
                             '\x00', '\x00', '\xF0', '\x3F'};
  EXPECT_EQ(out, expected);
}

TEST(BinaryIoTest, StringsAndArraysRoundTrip) {
  std::string out;
  AppendString("", &out);
  AppendString(std::string_view("nul\0byte", 8), &out);
  AppendDoubleArray({}, &out);
  AppendDoubleArray({-0.0, 3.5, -2.25}, &out);

  Reader reader(out);
  std::string s;
  ASSERT_TRUE(reader.ReadString(&s));
  EXPECT_TRUE(s.empty());
  ASSERT_TRUE(reader.ReadString(&s));
  EXPECT_EQ(s, std::string_view("nul\0byte", 8));
  std::vector<double> values{1.0};
  ASSERT_TRUE(reader.ReadDoubleArray(&values));
  EXPECT_TRUE(values.empty());
  ASSERT_TRUE(reader.ReadDoubleArray(&values));
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(DoubleBits(values[0]), DoubleBits(-0.0));
  EXPECT_EQ(values[1], 3.5);
  EXPECT_EQ(values[2], -2.25);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryIoTest, ReaderRejectsShortBuffersWithoutMovingTheCursor) {
  const std::string three{'\x01', '\x02', '\x03'};
  Reader reader(three);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double d = 0.0;
  EXPECT_FALSE(reader.ReadU32Le(&u32));
  EXPECT_FALSE(reader.ReadU64Le(&u64));
  EXPECT_FALSE(reader.ReadDoubleLe(&d));
  EXPECT_EQ(reader.pos(), 0u);
  EXPECT_EQ(reader.remaining(), 3u);
  uint8_t u8 = 0;
  ASSERT_TRUE(reader.ReadU8(&u8));
  EXPECT_EQ(u8, 0x01);
  EXPECT_EQ(reader.pos(), 1u);
}

TEST(BinaryIoTest, CorruptedLengthPrefixesRejectBeforeAllocating) {
  // A string claiming 2^60 bytes in a 12-byte buffer: must fail cleanly
  // with the cursor reset, not attempt the allocation.
  std::string out;
  AppendU64Le(1ull << 60, &out);
  out.append("abcd");
  {
    Reader reader(out);
    std::string s = "sentinel";
    EXPECT_FALSE(reader.ReadString(&s));
    EXPECT_EQ(s, "sentinel");
    EXPECT_EQ(reader.pos(), 0u);
  }
  {
    // Same hostile count as a double-array prefix.
    Reader reader(out);
    std::vector<double> values{7.0};
    EXPECT_FALSE(reader.ReadDoubleArray(&values));
    EXPECT_EQ(values.size(), 1u);
    EXPECT_EQ(reader.pos(), 0u);
  }
}

TEST(BinaryIoTest, ReadBytesAndSkipBoundsCheck) {
  const std::string buf = "abcdef";
  Reader reader(buf);
  std::string_view view;
  EXPECT_FALSE(reader.ReadBytes(7, &view));
  ASSERT_TRUE(reader.ReadBytes(3, &view));
  EXPECT_EQ(view, "abc");
  EXPECT_FALSE(reader.Skip(4));
  ASSERT_TRUE(reader.Skip(3));
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryIoTest, DoubleArrayBytesEqualPerElementAppendsAfterAPrefix) {
  // The bulk writer resizes the output once; it must still append after
  // whatever the string already holds, byte for byte as the per-value path.
  const std::vector<double> values = {1.5, -0.0, 3.0e-310, -2.25,
                                      std::numeric_limits<double>::max()};
  std::string bulk = "prefix";
  AppendDoubleArray(values, &bulk);
  std::string per_element = "prefix";
  AppendU64Le(values.size(), &per_element);
  for (double v : values) AppendDoubleLe(v, &per_element);
  EXPECT_EQ(bulk, per_element);

  std::string empty = "xy";
  AppendDoubleArray({}, &empty);
  EXPECT_EQ(empty, std::string("xy") + std::string(8, '\0'));
}

TEST(BinaryIoTest, ReadDoubleArrayReplacesANonEmptyOutput) {
  std::string out;
  AppendDoubleArray({4.0, 5.0}, &out);
  AppendDoubleArray({}, &out);
  Reader reader(out);
  std::vector<double> values = {9.0, 9.0, 9.0, 9.0, 9.0};
  ASSERT_TRUE(reader.ReadDoubleArray(&values));
  EXPECT_EQ(values, (std::vector<double>{4.0, 5.0}));
  ASSERT_TRUE(reader.ReadDoubleArray(&values));
  EXPECT_TRUE(values.empty());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryIoTest, DoubleArrayRoundTripsSpecialBitPatternsExactly) {
  const std::vector<uint64_t> bit_patterns = {
      0x0000000000000000ull,  // +0.0
      0x8000000000000000ull,  // -0.0
      0x0000000000000001ull,  // smallest denormal
      0x800FFFFFFFFFFFFFull,  // largest negative denormal
      0x7FF8000000000123ull,  // quiet NaN with a payload
      0xFFF8000000000456ull,  // negative quiet NaN with a payload
      0x7FF0000000000001ull,  // signaling NaN bit pattern
      0x7FF0000000000000ull,  // +inf
      0xFFF0000000000000ull,  // -inf
  };
  std::vector<double> values;
  for (uint64_t bits : bit_patterns) values.push_back(DoubleFromBits(bits));
  std::string out;
  AppendDoubleArray(values, &out);
  Reader reader(out);
  std::vector<double> back;
  ASSERT_TRUE(reader.ReadDoubleArray(&back));
  ASSERT_EQ(back.size(), bit_patterns.size());
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(DoubleBits(back[i]), bit_patterns[i]) << "value " << i;
  }
}

TEST(BinaryIoTest, TruncatedDoubleArrayLeavesOutputAndCursorUntouched) {
  std::string out;
  AppendU8(0x7E, &out);
  AppendDoubleArray({1.0, 2.0, 3.0}, &out);
  const std::vector<double> sentinel = {7.0, 8.0};
  // Cut inside the count, then inside the last value: both must fail with
  // the cursor where it stood (past the u8) and the vector as it was.
  for (size_t cut : {size_t{1} + 5, out.size() - 1}) {
    Reader reader(std::string_view(out).substr(0, cut));
    uint8_t u8 = 0;
    ASSERT_TRUE(reader.ReadU8(&u8));
    std::vector<double> values = sentinel;
    EXPECT_FALSE(reader.ReadDoubleArray(&values)) << "cut " << cut;
    EXPECT_EQ(values, sentinel) << "cut " << cut;
    EXPECT_EQ(reader.pos(), 1u) << "cut " << cut;
  }
}

}  // namespace
}  // namespace bin
}  // namespace moche
