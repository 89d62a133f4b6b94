#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <utility>

namespace uqp {

/// A shared_ptr that any number of threads may load() and store()
/// concurrently: the job of the standard's atomic shared_ptr free
/// functions, done with a one-byte lock inside the cell instead of
/// libstdc++'s process-wide pool of 16 mutexes picked by address. Threads
/// that use different cells therefore write no common line, and an
/// uncontended load is one exchange, the reference-count increment and
/// one store.
/// (C++20's std::atomic<std::shared_ptr> has the same design in libstdc++;
/// this tree builds as C++17.)
///
/// The critical sections are a pointer copy or swap, or a Read callback
/// of a few loads and reference-count increments, so a waiter spins on
/// the byte and yields its time slice while the holder finishes. store()
/// releases the old value after unlocking, so the destructor of the last
/// reference never runs under the lock. Outside the mutex capability
/// model on purpose: the lock is private and held for one statement, and
/// TSan checks the protocol.
template <typename T>
class SharedCell {
 public:
  SharedCell() = default;
  explicit SharedCell(std::shared_ptr<T> value) : value_(std::move(value)) {}
  SharedCell(const SharedCell&) = delete;
  SharedCell& operator=(const SharedCell&) = delete;

  std::shared_ptr<T> load() const {
    Lock();
    std::shared_ptr<T> out = value_;
    Unlock();
    return out;
  }

  /// Calls fn(const std::shared_ptr<T>&) on the held value under the
  /// lock and returns its result: a reader that only checks the value, or
  /// copies pointers that alias it, takes no reference on it. `fn` must be
  /// short, must not throw and must not touch this cell.
  template <typename Fn>
  auto Read(Fn&& fn) const {
    Lock();
    auto out = fn(value_);
    Unlock();
    return out;
  }

  void store(std::shared_ptr<T> value) {
    Lock();
    value_.swap(value);
    Unlock();
  }  // `value` now holds the old pointer and drops it here, unlocked

 private:
  void Lock() const {
    while (locked_.exchange(true, std::memory_order_acquire)) {
      while (locked_.load(std::memory_order_relaxed)) std::this_thread::yield();
    }
  }
  void Unlock() const { locked_.store(false, std::memory_order_release); }

  std::shared_ptr<T> value_;
  mutable std::atomic<bool> locked_{false};
};

}  // namespace uqp
