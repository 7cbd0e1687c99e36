// counter_list.hpp - Declare each counter once: X-macro counter lists.
//
// A component lists its plain monotonic counters in one macro, in the
// style of Envoy's stats macros (line continuations left out here):
//
//   #define FTC_PFS_GUARD_COUNTERS(X)
//     /* leader executions of fn */
//     X(fetches, "ftc_pfs_guard_fetches_total", "")
//     X(slot_rejections, "ftc_pfs_guard_rejections_total", "outcome=slots")
//
// Each entry is (field, metric family, label).  The label is "" or one
// "key=value" pair that export adds to the per-node labels, so several
// fields can share a family (hedge outcomes, store tiers).  Doc comments
// inside a list must be /* */: a // comment before a line's `\` swallows
// the next entry.
//
// From that one list:
//   FTC_COUNTER_FIELDS(LIST, Pod)  inside the public Stats POD: one
//       uint64 field per entry, plus Pod::counter_rows(), the list as data.
//   FTC_COUNTER_MIRROR(LIST, Pod)  inside a private struct: one atomic per
//       entry (owners keep their `++stats_.field` increments) and
//       load_into(Pod&), the relaxed per-field snapshot load.
//   stable_snapshot(load)          the bounded torn-snapshot retry.
//   collect_counters(out, labels, pod)  one export sample per entry.
//
// Fields that are not plain counters (gauges, values read from another
// component, counters with a runtime label) stay hand-written beside the
// list.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "obs/metrics.hpp"

namespace ftc::obs {

/// One entry of a counter list, as data.
template <class Pod>
struct CounterRow {
  const char* field;   ///< the member's name
  const char* family;  ///< metric family it exports under
  const char* label;   ///< "" or one "key=value" export label
  std::uint64_t Pod::*member;
};

/// Consistent multi-field view of independently updated counters.  Each
/// field load is atomic on its own, but the struct is not (hits + misses
/// may disagree with reads mid-update), so `load` is re-run until two
/// consecutive results are byte-identical.  Bounded at four loads: under
/// sustained churn the last one wins, which leaves only cross-field skew.
template <class Load>
auto stable_snapshot(Load load) {
  using Pod = decltype(load());
  static_assert(std::has_unique_object_representations_v<Pod>,
                "byte comparison needs a padding-free POD");
  Pod snap = load();
  for (int round = 0; round < 3; ++round) {
    const Pod again = load();
    if (std::memcmp(&snap, &again, sizeof(Pod)) == 0) break;
    snap = again;
  }
  return snap;
}

/// Emits every listed counter of `pod` as a sample of its family,
/// labelled `base` plus the entry's own label.
template <class Pod>
void collect_counters(MetricsRegistry::Collection& out, const Labels& base,
                      const Pod& pod) {
  for (const CounterRow<Pod>& row : Pod::counter_rows()) {
    const std::string_view label = row.label;
    if (label.empty()) {
      out.counter(row.family, base, pod.*row.member);
      continue;
    }
    Labels labels = base;
    const std::size_t eq = label.find('=');
    labels.emplace_back(label.substr(0, eq), label.substr(eq + 1));
    out.counter(row.family, labels, pod.*row.member);
  }
}

}  // namespace ftc::obs

// Per-entry expansions the generators below hand to a list.
#define FTC_COUNTER_FIELD(field, family, label) std::uint64_t field = 0;
#define FTC_COUNTER_ROW(field, family, label) \
  {#field, family, label, &Self::field},
#define FTC_COUNTER_ATOMIC(field, family, label) \
  std::atomic<std::uint64_t> field{0};
#define FTC_COUNTER_LOAD(field, family, label) \
  pod.field = field.load(std::memory_order_relaxed);

#define FTC_COUNTER_FIELDS(LIST, Pod)                          \
  LIST(FTC_COUNTER_FIELD)                                      \
  static const auto& counter_rows() {                          \
    using Self = Pod;                                          \
    static constexpr auto kRows = std::to_array<               \
        ::ftc::obs::CounterRow<Pod>>({LIST(FTC_COUNTER_ROW)}); \
    return kRows;                                              \
  }

#define FTC_COUNTER_MIRROR(LIST, Pod) \
  LIST(FTC_COUNTER_ATOMIC)            \
  void load_into(Pod& pod) const { LIST(FTC_COUNTER_LOAD) }
