#pragma once

#include <cstdint>
#include <vector>

#include "core/inline_fn.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace m2::sim {

/// Models the processing capacity of one node as a FIFO queueing station
/// with `cores` identical parallel servers plus one *serial* resource.
///
/// Each submitted job carries a serial cost and a parallel cost. The serial
/// part runs on the node's single serial resource (this is how protocol
/// serialization points — e.g. a single ordering thread, or a lock around a
/// dependency graph — are expressed); the parallel part then runs on the
/// earliest-free core. The job's completion callback fires when the parallel
/// part finishes.
///
/// This is the mechanism behind the paper's Figure 4 (core scaling): a
/// protocol whose per-command work is mostly serial cannot benefit from
/// more cores, while an embarrassingly parallel one can.
class NodeCpu {
 public:
  NodeCpu(Simulator& sim, int cores);

  /// Enqueues a job. Costs must be >= 0. `done` runs when the job completes.
  void submit(Time serial_cost, Time parallel_cost, core::InlineFn done);

  /// submit() without a completion callback: occupies the serial resource
  /// and a core identically, but schedules no simulator event. For
  /// fire-and-forget accounting work (e.g. charging transmit cost to the
  /// sender) this halves the job's event-queue traffic at identical
  /// simulated timing.
  void charge(Time serial_cost, Time parallel_cost);

  int cores() const { return static_cast<int>(core_free_at_.size()); }

  /// Total CPU time consumed so far (serial + parallel), for utilization
  /// reporting: utilization = busy_time / (elapsed * cores).
  Time busy_time() const { return busy_; }
  Time serial_busy_time() const { return serial_busy_; }
  /// Jobs accepted (their completion events may still be pending).
  std::uint64_t jobs_completed() const { return jobs_; }

  /// Simulated time at which the node would next be able to start a purely
  /// parallel job; used by tests to probe backlog.
  Time earliest_core_free() const;

 private:
  /// Shared bookkeeping; returns the job's completion time.
  Time charge_internal(Time serial_cost, Time parallel_cost);

  Simulator& sim_;
  std::vector<Time> core_free_at_;
  Time serial_free_at_ = 0;
  Time busy_ = 0;
  Time serial_busy_ = 0;
  std::uint64_t jobs_ = 0;
};

}  // namespace m2::sim
