#include "sim/cpu.hpp"

#include <algorithm>
#include <cassert>

namespace m2::sim {

NodeCpu::NodeCpu(Simulator& sim, int cores) : sim_(sim) {
  assert(cores >= 1);
  core_free_at_.assign(static_cast<std::size_t>(cores), 0);
}

Time NodeCpu::earliest_core_free() const {
  return *std::min_element(core_free_at_.begin(), core_free_at_.end());
}

void NodeCpu::submit(Time serial_cost, Time parallel_cost,
                     core::InlineFn done) {
  const Time end = charge_internal(serial_cost, parallel_cost);
  sim_.at(end, std::move(done));
}

void NodeCpu::charge(Time serial_cost, Time parallel_cost) {
  charge_internal(serial_cost, parallel_cost);
}

Time NodeCpu::charge_internal(Time serial_cost, Time parallel_cost) {
  assert(serial_cost >= 0 && parallel_cost >= 0);
  const Time now = sim_.now();

  // Serial stage: single FIFO resource shared by all serial work on the node.
  Time ready = now;
  if (serial_cost > 0) {
    const Time start = std::max(now, serial_free_at_);
    serial_free_at_ = start + serial_cost;
    serial_busy_ += serial_cost;
    ready = serial_free_at_;
  }

  // Parallel stage: earliest-free core (reservation semantics: jobs keep
  // submission order per node, which is what a FIFO worker pool does).
  auto it = std::min_element(core_free_at_.begin(), core_free_at_.end());
  const Time start = std::max(ready, *it);
  const Time end = start + parallel_cost;
  *it = end;
  busy_ += serial_cost + parallel_cost;
  ++jobs_;
  return end;
}

}  // namespace m2::sim
