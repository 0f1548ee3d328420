#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace hgp {

/// Why a cooperative cancellation fired.
enum class CancelReason : int {
  None = 0,
  /// An explicit cancel() call — a client withdrew the work.
  Cancelled = 1,
  /// The token's soft deadline passed; observers stop exactly like an
  /// explicit cancel but report the distinct reason (a job layer maps it to
  /// an Expired terminal state instead of Cancelled).
  DeadlineExpired = 2,
};

inline const char* cancel_reason_name(CancelReason reason) {
  switch (reason) {
    case CancelReason::Cancelled: return "cancelled";
    case CancelReason::DeadlineExpired: return "deadline_expired";
    case CancelReason::None: break;
  }
  return "none";
}

/// Thrown by CancelToken::check() at a cooperative checkpoint. Long-running
/// engine loops (the trajectory shot loop, candidate batches) let it unwind
/// to whoever owns the run; a job layer converts it into a terminal job
/// state instead of propagating it to clients.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(CancelReason reason)
      : std::runtime_error(std::string("run stopped: ") + cancel_reason_name(reason)),
        reason_(reason) {}
  CancelReason reason() const { return reason_; }

 private:
  CancelReason reason_;
};

/// Cooperative cancellation + soft-deadline token. One writer side (cancel /
/// set_deadline) and any number of reader threads polling cancelled() at
/// checkpoint boundaries — a relaxed atomic load on the fast path, plus one
/// steady-clock read per poll while a deadline is armed. The first cause to
/// fire latches its reason; later causes never overwrite it.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Request cancellation. Idempotent; a latched deadline expiry wins if it
  /// fired first.
  void cancel(CancelReason reason = CancelReason::Cancelled) const {
    int expected = 0;
    reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                    std::memory_order_acq_rel);
  }

  /// Arm (or move) the soft deadline. Observers latch DeadlineExpired on the
  /// first poll past it.
  void set_deadline(std::chrono::steady_clock::time_point deadline) const {
    deadline_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(deadline.time_since_epoch())
            .count(),
        std::memory_order_release);
  }
  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_acquire) != 0;
  }

  /// True once cancellation was requested or the deadline passed. Safe (and
  /// cheap) to call from hot loops at batch/lane-group granularity.
  bool cancelled() const {
    if (reason_.load(std::memory_order_acquire) != 0) return true;
    const std::int64_t dl = deadline_ns_.load(std::memory_order_acquire);
    if (dl != 0 && now_ns() >= dl) {
      cancel(CancelReason::DeadlineExpired);
      return true;
    }
    return false;
  }

  CancelReason reason() const {
    return static_cast<CancelReason>(reason_.load(std::memory_order_acquire));
  }

  /// Cooperative checkpoint: throws CancelledError when the token fired.
  void check() const {
    if (cancelled()) throw CancelledError(reason());
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// 0 = not cancelled, else the latched CancelReason.
  mutable std::atomic<int> reason_{0};
  /// Steady-clock deadline in ns since epoch; 0 = none armed.
  mutable std::atomic<std::int64_t> deadline_ns_{0};
};

}  // namespace hgp
