// crc32.hpp - CRC-32 (IEEE 802.3 polynomial, reflected 0xEDB88320).
//
// Used for payload integrity checks in the simulated RPC layer — the data
// mover verifies recached file contents match the PFS copy, and every
// client read ends in an end-to-end check over the full payload.
//
// On x86 CPUs with PCLMULQDQ, inputs of 64 bytes or more are folded 64
// bytes at a time with carry-less multiplies (picked once, at first call);
// shorter inputs, the sub-16-byte tail and every other CPU use the
// byte-at-a-time table loop.  Both give bit-identical results.
#pragma once

#include <cstdint>
#include <string_view>

namespace ftc::hash {

/// Standard zlib-compatible CRC-32.
std::uint32_t crc32(std::string_view data, std::uint32_t initial = 0);

namespace detail {

/// The portable table kernel behind `crc32` (its fallback, and the path
/// for short inputs).  Exposed so tests can check it directly.
std::uint32_t crc32_bytewise(std::string_view data, std::uint32_t initial = 0);

}  // namespace detail

}  // namespace ftc::hash
