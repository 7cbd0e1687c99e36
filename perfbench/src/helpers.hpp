// helpers.hpp - The benchmark's pure helpers: the percentile rule, the
// read oracle, span self-time arithmetic and the result line.  Kept apart
// from the load generator so tests/selftest.cpp can check them without a
// cluster.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/buffer.hpp"

namespace perfbench {

// --- Percentile rule -------------------------------------------------------

/// A percentile p = 100 * num / den, kept as a fraction so the rank
/// arithmetic is exact (0.999 * 10000 is not 9990 in binary floating
/// point).
struct Percentile {
  const char* label;  ///< "p99.9"
  std::uint64_t num;
  std::uint64_t den;
};

/// Samples strictly above the nearest-rank `p` percentile of `n` samples.
std::uint64_t samples_beyond(std::uint64_t n, const Percentile& p);

/// The highest of p50, p90, p99, p99.9, p99.99 and p99.999 that has at
/// least 10 samples beyond it; nullptr when even p50 has fewer.
const Percentile* highest_supported_percentile(std::uint64_t n);

/// Latency summary of one run: median, p90, p99 and the highest percentile
/// the sample supports, with the sample count.  Under the percentile rule
/// p99 may only be reported as such when `p99_supported`.
struct LatencySummary {
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;
  const char* top_label = "none";
  double top = 0.0;
};
LatencySummary summarize(std::vector<double> samples);

// --- Read oracle -----------------------------------------------------------

/// A staged file as the PFS holds it, with its CRC taken before any
/// cluster touched it.
struct Reference {
  ftc::common::Buffer bytes;
  std::uint32_t crc = 0;
};
Reference make_reference(ftc::common::Buffer bytes);

/// True when a read returned exactly the staged bytes.
bool read_matches(const Reference& ref, std::string_view got);

/// True when the staged bytes still carry the CRC recorded at staging.
/// read_matches compares against the PFS's own storage, so an in-place
/// corruption of that storage would hide from it; this catches it.
bool reference_intact(const Reference& ref);

// --- Spans -----------------------------------------------------------------

/// The layers a read's span tree is built from.  Spans are recorded from
/// outside the program, around calls into each layer's public functions,
/// or taken from the cluster's own flight recorder.
enum class Layer : std::uint8_t {
  kClientRead = 0,  ///< HvacClient::read_file, root of every read
  kRingOwner,       ///< placement decision (standalone estimate)
  kRpcAttempt,      ///< one client RPC attempt (flight recorder)
  kRpcQueue,        ///< endpoint ingress queue wait (flight recorder)
  kServerHandle,    ///< HvacServer::handle
  kCrc32,           ///< client CRC verification (standalone estimate)
  kCount
};
const char* layer_name(Layer layer);

/// One span.  `read_id` names the read it belongs to: the client node in
/// the top 16 bits, that client's read sequence number below.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t read_id = 0;
  Layer layer = Layer::kClientRead;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

inline std::uint64_t make_read_id(std::uint32_t node, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(node) << 48) | seq;
}

/// Self time of each span, in input order: its duration minus the part of
/// its interval covered by its direct children (clipped to the span;
/// overlapping children count once).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

// --- Result line -----------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The one-line JSON object the benchmark ends its output with.  Throws
/// std::invalid_argument if a metric is not a finite number.
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
