// Google-benchmark microbenchmark for hash::crc32, the end-to-end check
// every client read runs over the full payload.  Sizes span the 4 KiB
// small-file hit, a 64 KiB chunk and the 1 MiB file; the +1 offset starts
// the input one byte past a 64-byte boundary, so the fold's 16-byte loads
// are all misaligned.  The table kernel (the fallback on CPUs without
// PCLMULQDQ) runs the same inputs for comparison.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>

#include "hash/crc32.hpp"

namespace {

using namespace ftc;

constexpr std::size_t kMaxBytes = std::size_t{1} << 20;

// `len` random bytes starting `offset` bytes past a 64-byte boundary.
std::string_view input(std::size_t len, std::size_t offset) {
  static const std::string backing = [] {
    std::mt19937_64 rng(42);
    std::string bytes(kMaxBytes + 128, '\0');
    for (auto& ch : bytes) ch = static_cast<char>(rng());
    return bytes;
  }();
  const auto addr = reinterpret_cast<std::uintptr_t>(backing.data());
  const std::size_t base = (64 - addr % 64) % 64;
  return std::string_view(backing).substr(base + offset, len);
}

template <std::uint32_t (*Crc)(std::string_view, std::uint32_t)>
void BM_Crc32(benchmark::State& state) {
  const std::string_view data =
      input(static_cast<std::size_t>(state.range(0)),
            static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc(data, 0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}

void sizes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"bytes", "offset"});
  for (const std::int64_t len : {4 << 10, 64 << 10, 1 << 20}) {
    b->Args({len, 0})->Args({len, 1});
  }
}

BENCHMARK_TEMPLATE(BM_Crc32, hash::crc32)->Apply(sizes);
BENCHMARK_TEMPLATE(BM_Crc32, hash::detail::crc32_bytewise)->Apply(sizes);

}  // namespace

BENCHMARK_MAIN();
