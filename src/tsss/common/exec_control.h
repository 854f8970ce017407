#ifndef TSSS_COMMON_EXEC_CONTROL_H_
#define TSSS_COMMON_EXEC_CONTROL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "tsss/common/status.h"

namespace tsss {

/// Cooperative cancellation / deadline token for one in-flight query.
///
/// A caller that wants to bound a query installs an ExecControl on the
/// executing thread with ScopedExecControl; long-running library loops poll
/// Check() at natural pause points (the R-tree checks once per node load)
/// and unwind with DeadlineExceeded/Cancelled when the token has tripped.
/// The token is shared between the executing thread (polling) and any thread
/// that calls RequestCancel(), hence the atomic flag; the deadline is set
/// before installation and immutable afterwards.
class ExecControl {
 public:
  ExecControl() = default;
  ExecControl(const ExecControl&) = delete;
  ExecControl& operator=(const ExecControl&) = delete;

  /// Sets an absolute deadline. Call before installing the control.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  /// Flags the query for cancellation. Safe from any thread.
  void RequestCancel() {
    // relaxed-ok: standalone flag; polled by Check(), no data published
    cancelled_.store(true, std::memory_order_relaxed);
  }

  bool cancel_requested() const {
    // relaxed-ok: advisory poll of a standalone flag, no acquire payload
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Trips Check() after `n` more polls, regardless of the wall clock.
  /// Test hook: lets a regression test aim a deadline at the Nth poll site
  /// on a query path deterministically. 0 disables (the default).
  void set_check_budget(std::uint64_t n) {
    check_budget_ = n;
    has_budget_ = n != 0;
  }

  /// Number of Check() calls observed so far (poll-coverage telemetry).
  std::uint64_t checks() const {
    // relaxed-ok: monotonic counter read for telemetry, no ordering needed
    return checks_.load(std::memory_order_relaxed);
  }

  /// OK while the query may keep running; Cancelled / DeadlineExceeded once
  /// it must unwind. Reads the clock only when a deadline is set.
  Status Check() const {
    // relaxed-ok: poll counter is advisory; only the polling thread writes
    const std::uint64_t seen = 1 + checks_.fetch_add(1, std::memory_order_relaxed);
    if (cancel_requested()) {
      return Status::Cancelled("query cancelled");
    }
    if (has_budget_ && seen > check_budget_) {
      return Status::DeadlineExceeded("query check budget exhausted");
    }
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

 private:
  std::atomic<bool> cancelled_{false};
  mutable std::atomic<std::uint64_t> checks_{0};
  bool has_deadline_ = false;
  bool has_budget_ = false;
  std::uint64_t check_budget_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
};

/// The control governing the current thread's in-flight query, or nullptr.
ExecControl* CurrentExecControl();

/// Polls the current thread's ExecControl, if any. The canonical one-liner
/// for query loops that do page I/O without going through RTree::ScanNode
/// or LoadNode (which poll per node on their own): tsss_lint's deadline-poll
/// check requires every such loop to reach this, one of those, or a waiver.
inline Status PollExecControl() {
  ExecControl* control = CurrentExecControl();
  if (control == nullptr) return Status::OK();
  return control->Check();
}

/// Installs `control` as the current thread's ExecControl for its lifetime,
/// restoring the previous one on destruction (scopes nest).
class ScopedExecControl {
 public:
  explicit ScopedExecControl(ExecControl* control);
  ~ScopedExecControl();

  ScopedExecControl(const ScopedExecControl&) = delete;
  ScopedExecControl& operator=(const ScopedExecControl&) = delete;

 private:
  ExecControl* prev_;
};

}  // namespace tsss

#endif  // TSSS_COMMON_EXEC_CONTROL_H_
