#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace hgp::obs {

namespace detail {
/// The process-wide telemetry switch. Initialized once from HGP_OBS
/// ("1"/"on"/"true" enables) and flippable at runtime via set_enabled().
std::atomic<bool>& enabled_flag();
}  // namespace detail

/// Whether telemetry is live. Every hot-path instrument checks this first —
/// one relaxed atomic-bool load plus a predictable branch — so disabled
/// telemetry costs roughly a nanosecond per call site and touches neither
/// the clock nor any shared cache line.
inline bool enabled() { return detail::enabled_flag().load(std::memory_order_relaxed); }

/// Flip telemetry at runtime (tests and e2ebench's traced passes go
/// through here). Counters keep whatever they accumulated; they are not reset.
void set_enabled(bool on);

/// Monotonic nanoseconds (steady clock) — the time base of every span and
/// latency histogram. Not wall time: only differences are meaningful.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace hgp::obs
