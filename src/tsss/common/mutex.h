#ifndef TSSS_COMMON_MUTEX_H_
#define TSSS_COMMON_MUTEX_H_

// Annotated synchronization primitives (see common/thread_annotations.h).
//
// std::mutex carries no thread-safety attributes, so Clang's analysis cannot
// see a std::lock_guard acquire anything. These thin wrappers (the LevelDB
// port::Mutex pattern) re-export std::mutex / std::condition_variable with
// capability annotations; all lock-holding state in storage/ and service/
// goes through them so that TSSS_GUARDED_BY members are actually checked.
//
// The wrappers add no state and no overhead beyond the underlying
// primitives; Lock/Unlock inline to std::mutex::lock/unlock.

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "tsss/common/thread_annotations.h"

namespace tsss {

class CondVar;

/// An annotated std::mutex. Prefer MutexLock over manual Lock/Unlock pairs.
class TSSS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TSSS_ACQUIRE() { mu_.lock(); }
  void Unlock() TSSS_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  // lint-ok: raw-mutex (this class IS the annotated wrapper around it)
  std::mutex mu_;
};

/// RAII lock for the scope of a block (std::lock_guard over tsss::Mutex).
class TSSS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TSSS_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() TSSS_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to a tsss::Mutex (LevelDB port::CondVar shape).
/// Every Wait variant must be called with the bound mutex held and re-holds
/// it on return. The requirement is deliberately NOT expressed as
/// TSSS_REQUIRES(mu_): the analysis compares capability expressions
/// syntactically and cannot prove that `cv_.mu_` aliases the caller's `mu_`,
/// so the annotation would reject every correct call site. From the
/// checker's point of view the caller's MutexLock scope simply stays active
/// across the wait - which matches reality, since wait() re-acquires before
/// returning. Spurious-wakeup loops therefore live in the caller, where the
/// guarded state is visible to the analysis.
class CondVar {
 public:
  explicit CondVar(Mutex* mu) : mu_(mu) {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Caller must hold the bound mutex.
  void Wait() {
    // lint-ok: raw-mutex (adopting the wrapper's underlying handle for cv wait)
    std::unique_lock<std::mutex> lock(mu_->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// Caller must hold the bound mutex. Returns false on timeout.
  template <typename Clock, typename Duration>
  [[nodiscard]] bool WaitUntil(
      const std::chrono::time_point<Clock, Duration>& deadline) {
    // lint-ok: raw-mutex (adopting the wrapper's underlying handle for cv wait)
    std::unique_lock<std::mutex> lock(mu_->mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  Mutex* mu_;
  std::condition_variable cv_;
};

}  // namespace tsss

#endif  // TSSS_COMMON_MUTEX_H_
