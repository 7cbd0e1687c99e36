// selftest.cpp - Checks of the benchmark's own helpers: the percentile
// rule, span self-time arithmetic and the read oracle.  Exits non-zero on
// the first failed check.  Built by perfbench/CMakeLists.txt; run with
// `python3 perfbench/run.py --selftest`.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

std::string label(std::uint64_t n) {
  const auto* p = perfbench::highest_supported_percentile(n);
  return p == nullptr ? "none" : p->label;
}

void percentile_rule() {
  check(label(19) == "none", "19 samples support no percentile");
  check(label(20) == "p50", "20 samples support p50 only");
  check(label(99) == "p50", "99 samples: p90 has 9 beyond");
  check(label(100) == "p90", "100 samples support p90");
  check(label(999) == "p90", "999 samples: p99 has 9 beyond");
  check(label(1000) == "p99", "1000 samples support p99");
  check(label(9999) == "p99", "9999 samples: p99.9 has 9 beyond");
  check(label(10000) == "p99.9", "10000 samples support p99.9 (exact rank)");
  check(label(100000) == "p99.99", "100000 samples support p99.99");

  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  const auto s = perfbench::summarize(xs);
  check(s.count == 1000, "summary states its sample count");
  check(s.p99_supported, "p99 supported at n=1000");
  check(s.p50 > 500.0 && s.p50 < 501.0, "median of 1..1000");
  check(s.p90 > 900.0 && s.p90 < 901.0, "p90 of 1..1000");
  check(s.p99 > 990.0 && s.p99 < 991.0, "p99 of 1..1000");

  const auto small = perfbench::summarize({5.0, 1.0, 3.0});
  check(!small.p99_supported && small.count == 3, "3 samples do not support p99");
  check(small.p50 == 3.0, "median of an unsorted sample");
}

using perfbench::Layer;
using perfbench::Span;

void self_times() {
  // read [0,100) with an attempt [10,60) and a crc [60,90); the attempt
  // holds a queue wait [15,25) and a handler [20,50) that overlap.
  const std::vector<Span> tree = {
      {1, 0, 7, Layer::kClientRead, 0, 100},
      {2, 1, 7, Layer::kRpcAttempt, 10, 60},
      {3, 2, 7, Layer::kRpcQueue, 15, 25},
      {4, 2, 7, Layer::kServerHandle, 20, 50},
      {5, 1, 7, Layer::kCrc32, 60, 90},
  };
  const auto self = perfbench::self_times_ns(tree);
  check(self[0] == 20, "root self = 100 - (50 + 30)");
  check(self[1] == 15, "attempt self = 50 - union[15,50)");
  check(self[2] == 10 && self[3] == 30, "leaves keep their whole duration");
  check(self[4] == 30, "crc leaf");

  // A child that sticks out of its parent is clipped; a span whose parent
  // is missing counts as a root; grandchildren do not reduce the root.
  const std::vector<Span> ragged = {
      {10, 0, 1, Layer::kClientRead, 100, 200},
      {11, 10, 1, Layer::kRpcAttempt, 150, 260},
      {12, 11, 1, Layer::kServerHandle, 160, 170},
      {13, 99, 1, Layer::kRpcQueue, 0, 40},
  };
  const auto r = perfbench::self_times_ns(ragged);
  check(r[0] == 50, "root self with a clipped child");
  check(r[1] == 100, "attempt self with one nested child");
  check(r[3] == 40, "orphan keeps its duration");

  check(perfbench::make_read_id(3, 42) >> 48 == 3, "read id carries the node");
}

void oracle() {
  std::string bytes(4096, 'x');
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<char>(i * 31);
  const perfbench::Reference ref = perfbench::make_reference(ftc::common::Buffer(bytes));
  check(perfbench::read_matches(ref, bytes), "identical bytes match");
  check(perfbench::reference_intact(ref), "fresh reference is intact");

  std::string flipped = bytes;
  flipped[1234] ^= 0x01;
  check(!perfbench::read_matches(ref, flipped), "one flipped bit is caught");
  check(!perfbench::read_matches(ref, bytes.substr(0, 4095)), "truncation is caught");
  check(!perfbench::read_matches(ref, ""), "empty read is caught");

  perfbench::Reference stale = ref;
  stale.crc ^= 1;
  check(!perfbench::reference_intact(stale), "a reference whose bytes moved is caught");
}

void result_json() {
  const std::string line = perfbench::result_line(
      true, 10, 0, {{"read_p50_us", "us", 12.5}, {"setup_s", "s", 0.25}});
  check(line ==
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
            "{\"read_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, "
            "\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}",
        "result line format");
  bool threw = false;
  try {
    (void)perfbench::result_line(true, 1, 0, {{"x", "s", 0.0 / 0.0}});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "a NaN metric is refused");
}

}  // namespace

int main() {
  percentile_rule();
  self_times();
  oracle();
  result_json();
  if (failures != 0) return 1;
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
