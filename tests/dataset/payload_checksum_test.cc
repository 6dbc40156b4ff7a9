// internal::PayloadChecksum, the checksum every dataset format stores:
// a pinned value (the on-disk formats depend on it), and the detection
// guarantees its word-at-a-time construction promises.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "src/dataset/format_internal.h"

namespace linbp {
namespace dataset {
namespace {

using internal::PayloadChecksum;

// Deterministic, non-repeating filler.
std::vector<char> TestBytes(std::size_t size) {
  std::vector<char> bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<char>((i * 131 + 7) ^ (i >> 8));
  }
  return bytes;
}

std::uint64_t Checksum(const std::vector<char>& bytes) {
  return PayloadChecksum(bytes.data(), bytes.size());
}

// Snapshots, manifests and shards written today store these values: a
// change to the function must fail here and come with a version bump.
TEST(PayloadChecksumTest, MatchesPinnedValues) {
  EXPECT_EQ(PayloadChecksum(nullptr, 0), 0xaa80f7466ca3941full);
  EXPECT_EQ(Checksum(TestBytes(100)), 0x53fefed1d1a6c3baull);
  EXPECT_EQ(Checksum(TestBytes(4096)), 0xa50913f0d4041bd6ull);
}

TEST(PayloadChecksumTest, EverySingleBitFlipChangesTheResult) {
  std::vector<char> bytes = TestBytes(1024);
  const std::uint64_t pristine = Checksum(bytes);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Checksum(bytes), pristine) << "byte " << i << " bit " << bit;
      bytes[i] ^= static_cast<char>(1 << bit);
    }
  }
  EXPECT_EQ(Checksum(bytes), pristine);
}

// Lengths 0..64 cover every tail length under every number of whole
// 4-word rounds: each length gives its own value, reads only its own
// bytes (the buffers are exactly sized, so a sanitizer sees any overread),
// and every bit of the tail counts.
TEST(PayloadChecksumTest, EveryLengthAndTailByteCounts) {
  const std::vector<char> source = TestBytes(64);
  std::vector<std::uint64_t> seen;
  for (std::size_t size = 0; size <= source.size(); ++size) {
    std::vector<char> bytes(source.begin(), source.begin() + size);
    const std::uint64_t value = Checksum(bytes);
    for (const std::uint64_t other : seen) {
      EXPECT_NE(value, other) << "size " << size;
    }
    seen.push_back(value);
    for (std::size_t i = size - size % 8; i < size; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        bytes[i] ^= static_cast<char>(1 << bit);
        EXPECT_NE(Checksum(bytes), value)
            << "size " << size << " byte " << i << " bit " << bit;
        bytes[i] ^= static_cast<char>(1 << bit);
      }
    }
  }
}

// Zero padding must not alias: the byte length is part of the result.
TEST(PayloadChecksumTest, AppendingAZeroByteChangesTheResult) {
  for (std::size_t size = 0; size <= 64; ++size) {
    std::vector<char> bytes = TestBytes(size);
    const std::uint64_t value = Checksum(bytes);
    bytes.push_back('\0');
    EXPECT_NE(Checksum(bytes), value) << "size " << size;
  }
}

}  // namespace
}  // namespace dataset
}  // namespace linbp
