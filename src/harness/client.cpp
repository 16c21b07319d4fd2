#include "harness/client.hpp"

#include "harness/cluster.hpp"

namespace m2::harness {

ClientSet::ClientSet(Cluster& cluster)
    : cluster_(cluster), rng_(cluster.simulator().rng().split()) {}

ClientSet::~ClientSet() { stop(); }

sim::Time ClientSet::next_delay(bool skipped) {
  const LoadConfig& load = cluster_.config().load;
  // A skipped issue means the in-flight cap is full: re-check on the
  // timescale commits actually complete at (tens of microseconds), not at
  // the issue gap — saturated clients must not spin the simulator.
  const sim::Time base =
      skipped ? std::max<sim::Time>(load.think_time, 40 * sim::kMicrosecond)
              : std::max(load.think_time, load.min_issue_gap);
  // +-25 % jitter de-synchronizes clients (no artificial phase locking).
  const auto jitter = static_cast<sim::Time>(
      rng_.uniform(static_cast<std::uint64_t>(base / 2 + 1)));
  return base * 3 / 4 + jitter;
}

void ClientSet::start() {
  if (running_) return;
  running_ = true;
  const int n = cluster_.n_nodes();
  const int per_node = cluster_.config().load.clients_per_node;
  timers_.assign(static_cast<std::size_t>(n) * per_node, core::kInvalidTimer);
  for (NodeId node = 0; node < static_cast<NodeId>(n); ++node) {
    for (int c = 0; c < per_node; ++c) {
      const std::size_t idx = static_cast<std::size_t>(node) * per_node + c;
      // Stagger initial issues across one think interval.
      timers_[idx] = cluster_.simulator().after(
          next_delay(false) * c / std::max(per_node, 1),
          [this, node, idx] { tick(node, idx); });
    }
  }
}

void ClientSet::stop() {
  if (!running_) return;
  running_ = false;
  for (core::TimerHandle t : timers_) cluster_.simulator().cancel(t);
  timers_.clear();
}

void ClientSet::tick(NodeId node, std::size_t client_index) {
  if (!running_) return;
  bool skipped = false;
  if (!cluster_.network().is_crashed(node)) {
    if (cluster_.inflight(node) <
        static_cast<std::uint64_t>(cluster_.config().load.max_inflight_per_node)) {
      cluster_.propose(node, cluster_.workload_.next(node));
    } else {
      skipped = true;
      ++cluster_.skipped_;
    }
  }
  timers_[client_index] = cluster_.simulator().after(
      next_delay(skipped),
      [this, node, client_index] { tick(node, client_index); });
}

}  // namespace m2::harness
