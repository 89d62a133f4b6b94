#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace uqp {

/// Annotated mutex: a std::mutex declared as a thread-safety-analysis
/// capability, so `clang++ -Wthread-safety` can prove that every field
/// marked UQP_GUARDED_BY(mu) is only touched while `mu` is held. Same
/// cost and semantics as std::mutex — the wrapper exists only because
/// libstdc++'s mutex types carry no annotations, which would leave the
/// analysis blind to every acquisition in the tree.
class UQP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() UQP_ACQUIRE() { mu_.lock(); }
  void Unlock() UQP_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock guard for uqp::Mutex (the std::lock_guard shape clang's
/// analysis understands). This exact pattern — an ACQUIRE-annotated
/// constructor calling the mutex's own ACQUIRE method — is the canonical
/// scoped-capability idiom from the clang thread-safety docs.
class UQP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) UQP_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() UQP_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable paired with uqp::Mutex. Wait requires the capability:
/// from the analysis's point of view the lock is held across the whole
/// call (the internal release-while-sleeping/reacquire is invisible, which
/// is sound — no guarded state is observable from the waiting thread in
/// between). Callers use explicit predicate loops,
///
///   MutexLock lock(&mu_);
///   while (!predicate_over_guarded_state) cv_.Wait(mu_);
///
/// rather than the std::condition_variable predicate-lambda overload: the
/// analysis treats a lambda body as a separate function and would not know
/// the lock is held inside it.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) UQP_REQUIRES(mu) { WaitImpl(mu); }
  /// Wait with a deadline: returns false once `deadline` has passed, true
  /// on a wake-up before it (which, as with Wait, may be spurious).
  template <class Clock, class Duration>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      UQP_REQUIRES(mu) {
    return WaitUntilImpl(mu, deadline);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  // The one place the capability bookkeeping and reality diverge: a wait
  // must release the mutex while sleeping. Both waits are hidden from the
  // analysis here — inside common/, with this comment, per the repo's
  // waiver policy — so every *caller* still checks.
  void WaitImpl(Mutex& mu) UQP_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }
  template <class Clock, class Duration>
  bool WaitUntilImpl(Mutex& mu,
                     const std::chrono::time_point<Clock, Duration>& deadline)
      UQP_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const bool woken =
        cv_.wait_until(lock, deadline) == std::cv_status::no_timeout;
    lock.release();
    return woken;
  }

  std::condition_variable cv_;
};

}  // namespace uqp
