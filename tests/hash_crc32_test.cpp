#include "hash/crc32.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>

namespace ftc::hash {
namespace {

// Bit-at-a-time CRC-32 straight from the definition: shares no table or
// fold constant with either kernel under test.
std::uint32_t crc32_bitwise(std::string_view data, std::uint32_t initial = 0) {
  std::uint32_t c = ~initial;
  for (char ch : data) {
    c ^= static_cast<std::uint8_t>(ch);
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320U & (0U - (c & 1U)));
  }
  return ~c;
}

std::string random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string out(n, '\0');
  for (auto& ch : out) ch = static_cast<char>(rng());
  return out;
}

// A view of `len` bytes starting `offset` bytes past a 64-byte boundary
// inside `backing`, so every start alignment the fold's loads see is
// reachable.
std::string_view at_offset(const std::string& backing, std::size_t offset,
                           std::size_t len) {
  const auto addr = reinterpret_cast<std::uintptr_t>(backing.data());
  const std::size_t base = (64 - addr % 64) % 64;
  return std::string_view(backing).substr(base + offset, len);
}

// Standard CRC-32 (zlib) test vectors.
TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32(""), 0x00000000U);
  EXPECT_EQ(crc32("a"), 0xE8B7BE43U);
  EXPECT_EQ(crc32("abc"), 0x352441C2U);
  EXPECT_EQ(crc32("123456789"), 0xCBF43926U);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339U);
}

TEST(Crc32, Deterministic) {
  EXPECT_EQ(crc32("payload"), crc32("payload"));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string data = "cached file contents";
  const auto original = crc32(data);
  data[5] ^= 0x01;
  EXPECT_NE(crc32(data), original);
}

TEST(Crc32, IncrementalMatchesWhole) {
  // crc32(a+b) == crc32(b, initial=crc32(a)) with our initial-chaining API.
  const std::string a = "first half / ";
  const std::string b = "second half";
  const auto whole = crc32(a + b);
  const auto chained = crc32(b, crc32(a));
  EXPECT_EQ(chained, whole);
}

// Inputs of 64 bytes or more take the carry-less-multiply fold on CPUs
// that have it; every length up to 4 KiB covers the 64-byte lane loop, the
// 16-byte single-lane loop and each sub-16-byte tail.
TEST(Crc32, MatchesBitwiseReferenceForEveryLengthTo4KiB) {
  const std::string data = random_bytes(4096, 0xC0FFEE);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const std::string_view view(data.data(), len);
    const std::uint32_t want = crc32_bitwise(view);
    ASSERT_EQ(crc32(view), want) << "length " << len;
    ASSERT_EQ(detail::crc32_bytewise(view), want) << "length " << len;
  }
}

TEST(Crc32, MatchesBitwiseReferenceOnOneMiB) {
  const std::string data = random_bytes(std::size_t{1} << 20, 0x5EED);
  const std::uint32_t want = crc32_bitwise(data);
  EXPECT_EQ(crc32(data), want);
  EXPECT_EQ(detail::crc32_bytewise(data), want);
  EXPECT_EQ(crc32(std::string_view(data).substr(1)),
            crc32_bitwise(std::string_view(data).substr(1)));
}

TEST(Crc32, EveryStartOffsetAndRandomInitialMatchesReference) {
  const std::string backing = random_bytes(4096 + 128, 0xA11CE);
  std::mt19937 rng(7);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 4096; len += (len < 200 ? 1 : 37)) {
      const std::string_view view = at_offset(backing, offset, len);
      const std::uint32_t initial = rng();
      const std::uint32_t want = crc32_bitwise(view, initial);
      ASSERT_EQ(crc32(view, initial), want)
          << "offset " << offset << " length " << len;
      ASSERT_EQ(detail::crc32_bytewise(view, initial), want)
          << "offset " << offset << " length " << len;
    }
  }
}

// crc32(a + b) == crc32(b, crc32(a)) when the split lands on either side
// of the 16-byte tail and 64-byte fold boundaries, in either piece.
TEST(Crc32, ChainingAcrossFoldBoundaries) {
  for (const std::size_t total : {std::size_t{130}, std::size_t{1000}}) {
    const std::string data = random_bytes(total, total);
    const std::uint32_t whole = crc32_bitwise(data);
    ASSERT_EQ(crc32(data), whole);
    for (const std::size_t edge : {0, 15, 16, 17, 63, 64, 65, 127, 128, 129}) {
      for (const std::size_t split : {edge, total - edge}) {
        const std::string_view a = std::string_view(data).substr(0, split);
        const std::string_view b = std::string_view(data).substr(split);
        EXPECT_EQ(crc32(b, crc32(a)), whole) << "split " << split;
        EXPECT_EQ(detail::crc32_bytewise(b, detail::crc32_bytewise(a)), whole)
            << "split " << split;
      }
    }
  }
}

}  // namespace
}  // namespace ftc::hash
