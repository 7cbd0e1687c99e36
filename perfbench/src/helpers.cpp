#include "helpers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "common/histogram.hpp"
#include "hash/crc32.hpp"

namespace perfbench {

namespace {

constexpr Percentile kLadder[] = {
    {"p50", 1, 2},          {"p90", 9, 10},
    {"p99", 99, 100},       {"p99.9", 999, 1000},
    {"p99.99", 9999, 10000}, {"p99.999", 99999, 100000},
};
constexpr std::uint64_t kMinBeyond = 10;

}  // namespace

std::uint64_t samples_beyond(std::uint64_t n, const Percentile& p) {
  const std::uint64_t rank = (n * p.num + p.den - 1) / p.den;  // ceil
  return n - rank;
}

const Percentile* highest_supported_percentile(std::uint64_t n) {
  const Percentile* best = nullptr;
  for (const Percentile& p : kLadder) {
    if (samples_beyond(n, p) >= kMinBeyond) best = &p;
  }
  return best;
}

LatencySummary summarize(std::vector<double> samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = ftc::percentile_sorted(samples, 50.0);
  s.p90 = ftc::percentile_sorted(samples, 90.0);
  const Percentile* top = highest_supported_percentile(s.count);
  if (top != nullptr) {
    s.top_label = top->label;
    s.top = ftc::percentile_sorted(
        samples, 100.0 * static_cast<double>(top->num) /
                     static_cast<double>(top->den));
  }
  s.p99_supported = samples_beyond(s.count, kLadder[2]) >= kMinBeyond;
  s.p99 = ftc::percentile_sorted(samples, 99.0);
  return s;
}

Reference make_reference(ftc::common::Buffer bytes) {
  Reference ref;
  ref.crc = ftc::hash::crc32(bytes.view());
  ref.bytes = std::move(bytes);
  return ref;
}

bool read_matches(const Reference& ref, std::string_view got) {
  const std::string_view want = ref.bytes.view();
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), want.size()) == 0;
}

bool reference_intact(const Reference& ref) {
  return ftc::hash::crc32(ref.bytes.view()) == ref.crc;
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kClientRead: return "client.read";
    case Layer::kRingOwner: return "ring.owner";
    case Layer::kRpcAttempt: return "rpc.attempt";
    case Layer::kRpcQueue: return "rpc.queue";
    case Layer::kServerHandle: return "server.handle";
    case Layer::kCrc32: return "hash.crc32";
    case Layer::kCount: break;
  }
  return "unknown";
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  // Children intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const Span& child : spans) {
    if (child.parent == 0) continue;
    const auto it = index.find(child.parent);
    if (it == index.end()) continue;
    const Span& parent = spans[it->second];
    const std::int64_t lo = std::max(child.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t union_ns = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("metric " + m.name + " is not finite");
    }
    std::snprintf(number, sizeof(number), "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
