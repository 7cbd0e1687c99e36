#include "hash/crc32.hpp"

#include <array>
#include <cstddef>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define FTC_CRC32_HAVE_FOLD 1
#endif

namespace ftc::hash {
namespace {

// Table generated at first use from the reflected polynomial 0xEDB88320.
const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

// Advances the raw (pre-inverted) CRC register one byte per table lookup.
std::uint32_t update_bytewise(std::uint32_t c, const unsigned char* p,
                              std::size_t n) {
  const auto& table = crc_table();
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFU] ^ (c >> 8);
  }
  return c;
}

#ifdef FTC_CRC32_HAVE_FOLD

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), with the
// bit-reflected constants for 0xEDB88320 that Linux's crc32_pclmul_le and
// zlib-ng use: k1/k2 fold a lane 512 bits forward, k3/k4 128 bits, k5
// folds 64 bits down to 32, and P'/u' drive the Barrett reduction.
#define FTC_CRC32_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

// Folds `acc` 128 bits forward (by the distance `k` encodes) and adds the
// next 16 bytes `next`.
FTC_CRC32_FOLD_TARGET inline __m128i fold16(__m128i acc, __m128i k,
                                            __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

FTC_CRC32_FOLD_TARGET inline __m128i load16(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Raw CRC register over `n` bytes; `n` >= 64 and a multiple of 16.
FTC_CRC32_FOLD_TARGET std::uint32_t update_fold(std::uint32_t c,
                                                const unsigned char* p,
                                                std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  // Four 128-bit lanes over 64-byte blocks.
  __m128i x0 =
      _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold16(x0, k1k2, load16(p));
    x1 = fold16(x1, k1k2, load16(p + 16));
    x2 = fold16(x2, k1k2, load16(p + 32));
    x3 = fold16(x3, k1k2, load16(p + 48));
  }

  // Fold the lanes into one, then any remaining 16-byte blocks.
  x0 = fold16(x0, k3k4, x1);
  x0 = fold16(x0, k3k4, x2);
  x0 = fold16(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold16(x0, k3k4, load16(p));

  // 128 -> 64 bits, then 64 -> 32.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));

  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

std::uint32_t crc32_fold(std::string_view data, std::uint32_t initial) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t c = initial ^ 0xFFFFFFFFU;
  if (n >= 64) {
    const std::size_t body = n & ~std::size_t{15};
    c = update_fold(c, p, body);
    p += body;
    n -= body;
  }
  return update_bytewise(c, p, n) ^ 0xFFFFFFFFU;
}

#endif  // FTC_CRC32_HAVE_FOLD

using Kernel = std::uint32_t (*)(std::string_view, std::uint32_t);

Kernel pick_kernel() {
#ifdef FTC_CRC32_HAVE_FOLD
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    return crc32_fold;
  }
#endif
  return detail::crc32_bytewise;
}

}  // namespace

namespace detail {

std::uint32_t crc32_bytewise(std::string_view data, std::uint32_t initial) {
  return update_bytewise(initial ^ 0xFFFFFFFFU,
                         reinterpret_cast<const unsigned char*>(data.data()),
                         data.size()) ^
         0xFFFFFFFFU;
}

}  // namespace detail

std::uint32_t crc32(std::string_view data, std::uint32_t initial) {
  static const Kernel kernel = pick_kernel();
  return kernel(data, initial);
}

}  // namespace ftc::hash
