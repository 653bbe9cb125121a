// Cooperative cancellation and simulated-time deadlines.
//
// CancellationToken is the supervision primitive threaded through every
// concurrent path (ThreadPool::ParallelFor, the distributed trainer's
// workers, Channel-backed producers): the supervisor cancels with a reason
// Status, workers observe the flag at safe points and unwind by returning
// that Status. Cancellation is level-triggered and sticky — the first
// Cancel() wins, later calls are no-ops — so every observer sees one
// consistent reason.
//
// Deadline expresses a budget of *simulated* seconds against a SimClock.
// Because all modeled I/O (including FaultPlane latency spikes and retry
// backoff) is charged to the SimClock deterministically, deadline decisions
// are reproducible bit-for-bit across runs — unlike wall-clock deadlines.

#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "iosim/sim_clock.h"
#include "util/mutex.h"
#include "util/status.h"

namespace corgipile {

/// Copyable handle to shared cancellation state. Thread-safe: any holder
/// may Cancel() or poll concurrently. Copies observe the same state.
class CancellationToken {
 public:
  /// Creates a fresh, un-cancelled token.
  CancellationToken() : state_(std::make_shared<State>()) {}

  /// Requests cancellation with a reason. First call wins; subsequent
  /// calls (any thread) are no-ops.
  void Cancel(Status reason) {
    if (reason.ok()) reason = Status::Cancelled("cancelled");
    MutexLock lock(state_->mu);
    if (state_->cancelled.load(std::memory_order_relaxed)) return;
    state_->reason = std::move(reason);
    state_->cancelled.store(true, std::memory_order_release);
  }
  void Cancel() { Cancel(Status::Cancelled("cancelled")); }

  /// Lock-free fast path for polling inside hot loops.
  bool cancelled() const {
    return state_->cancelled.load(std::memory_order_acquire);
  }

  /// OK while alive; the Cancel() reason afterwards.
  Status status() const {
    if (!cancelled()) return Status::OK();
    MutexLock lock(state_->mu);
    return state_->reason;
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    mutable Mutex mu;
    Status reason CORGI_GUARDED_BY(mu);
  };
  std::shared_ptr<State> state_;
};

/// A budget of simulated seconds measured against a SimClock's total
/// elapsed time, snapshotted at construction. Thread-safe (SimClock is).
class Deadline {
 public:
  /// Never expires.
  Deadline() = default;
  static Deadline Infinite() { return Deadline(); }

  /// Expires once `clock`'s TotalElapsed() has advanced `budget_seconds`
  /// past its value at construction. `clock` is borrowed, not owned.
  Deadline(const SimClock* clock, double budget_seconds)
      : clock_(clock),
        start_(clock != nullptr ? clock->TotalElapsed() : 0.0),
        budget_(budget_seconds) {}

  bool Expired() const {
    return clock_ != nullptr && clock_->TotalElapsed() - start_ > budget_;
  }

  /// OK, or kDeadlineExceeded mentioning `what`.
  Status Check(const std::string& what) const {
    if (!Expired()) return Status::OK();
    return Status::DeadlineExceeded(what + " exceeded " +
                                    std::to_string(budget_) +
                                    " simulated seconds");
  }

  double budget_seconds() const { return budget_; }

 private:
  const SimClock* clock_ = nullptr;
  double start_ = 0.0;
  double budget_ = 0.0;
};

}  // namespace corgipile
