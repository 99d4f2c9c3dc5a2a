// CRC32C (persist/crc32c.h) against its definition: the RFC 3720 check
// value, and a test-local bit-at-a-time oracle over every short length at
// every start offset (so each tail length and each position of the 8-byte
// blocks relative to the buffer is covered), a 1 MiB random buffer, and
// incremental extension split at every point.

#include "persist/crc32c.h"

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace moche {
namespace persist {
namespace {

// The CRC by its definition: shift the reflected Castagnoli polynomial
// through one bit at a time. No tables, so it shares no code or
// precomputed state with the implementation under test.
uint32_t BitwiseCrc32c(uint32_t crc, const unsigned char* data, size_t size) {
  uint32_t c = ~crc;
  for (size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (0x82F63B78u & (0u - (c & 1u)));
    }
  }
  return ~c;
}

std::vector<unsigned char> RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.Integer(0, 255));
  }
  return bytes;
}

TEST(Crc32cTest, KnownAnswerAndIncrementalExtension) {
  // The canonical CRC32C check value: "123456789" -> 0xE3069283 (iSCSI,
  // RFC 3720 appendix; every conforming implementation agrees).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  // Extension composes: Crc32c(ab) == ExtendCrc32c(Crc32c(a), b).
  EXPECT_EQ(ExtendCrc32c(Crc32c("12345"), "6789", 4), 0xE3069283u);
  // Sensitivity: one flipped bit anywhere changes the sum.
  EXPECT_NE(Crc32c("123456788"), 0xE3069283u);
}

TEST(Crc32cTest, EveryShortLengthAtEveryOffsetMatchesTheBitwiseOracle) {
  const std::vector<unsigned char> bytes = RandomBytes(64 + 8, 20261019);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      EXPECT_EQ(ExtendCrc32c(0, bytes.data() + offset, length),
                BitwiseCrc32c(0, bytes.data() + offset, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32cTest, MebibyteRandomBufferMatchesTheBitwiseOracle) {
  const std::vector<unsigned char> bytes = RandomBytes(size_t{1} << 20, 7);
  EXPECT_EQ(ExtendCrc32c(0, bytes.data(), bytes.size()),
            BitwiseCrc32c(0, bytes.data(), bytes.size()));
}

TEST(Crc32cTest, ExtensionSplitAtEveryPointMatchesTheBitwiseOracle) {
  const std::vector<unsigned char> bytes = RandomBytes(64, 11);
  const uint32_t whole = BitwiseCrc32c(0, bytes.data(), bytes.size());
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = ExtendCrc32c(0, bytes.data(), split);
    EXPECT_EQ(head, BitwiseCrc32c(0, bytes.data(), split)) << "split " << split;
    EXPECT_EQ(ExtendCrc32c(head, bytes.data() + split, bytes.size() - split),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace persist
}  // namespace moche
