#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "core/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace m2::sim {

/// Discrete-event simulation driver.
///
/// Owns the virtual clock and the event queue. All other substrates
/// (network, node CPUs, timers, clients) schedule work here. Execution is
/// single-threaded and deterministic for a given seed. The schedule/run
/// path is defined inline so the queue operations and the InlineFn
/// emplacement compile into the caller.
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Time now() const { return now_; }
  Rng& rng() { return rng_; }

  /// Schedules a callable to run `delay` from now (delay >= 0).
  template <typename F>
  core::TimerHandle after(Time delay, F&& fn) {
    assert(delay >= 0);
    return queue_.schedule(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules a callable at absolute time `when` (>= now()).
  template <typename F>
  core::TimerHandle at(Time when, F&& fn) {
    assert(when >= now_);
    return queue_.schedule(when, std::forward<F>(fn));
  }

  void cancel(core::TimerHandle id) { queue_.cancel(id); }

  /// Runs events until the queue is empty or `limit` events have fired.
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t limit = UINT64_MAX) {
    std::uint64_t n = 0;
    while (n < limit && !queue_.empty()) {
      // The clock must advance before the callback runs, and pop_run fires
      // in place, so it takes the clock by reference.
      queue_.pop_run(now_);
      ++n;
    }
    executed_ += n;
    return n;
  }

  /// Runs events with timestamp <= deadline; leaves later events queued.
  /// The clock is advanced to `deadline` even if the queue drains early.
  std::uint64_t run_until(Time deadline) {
    std::uint64_t n = 0;
    while (!queue_.empty() && queue_.next_time() <= deadline) {
      queue_.pop_run(now_);
      ++n;
    }
    now_ = deadline;
    executed_ += n;
    return n;
  }

  /// True when no events remain.
  bool idle() const { return queue_.empty(); }

  std::uint64_t events_executed() const { return executed_; }

  /// Live (scheduled, uncancelled) events — the sim-layer backlog gauge.
  std::size_t queue_depth() const { return queue_.size(); }

 private:
  Time now_ = 0;
  core::EventQueue queue_;
  Rng rng_;
  std::uint64_t executed_ = 0;
};

}  // namespace m2::sim
