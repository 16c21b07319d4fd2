#pragma once

#include <vector>

#include "net/payload.hpp"
#include "core/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace m2::harness {

class Cluster;

/// Open-loop client threads, `clients_per_node` per node. Each client
/// issues a workload command, sleeps for the think time, and issues again;
/// when the node's in-flight cap is reached the issue is skipped (counted),
/// matching the paper's load injection.
class ClientSet {
 public:
  explicit ClientSet(Cluster& cluster);
  ~ClientSet();

  void start();
  void stop();
  bool running() const { return running_; }

 private:
  void tick(NodeId node, std::size_t client_index);
  sim::Time next_delay(bool skipped);

  Cluster& cluster_;
  sim::Rng rng_;
  bool running_ = false;
  std::vector<core::TimerHandle> timers_;  // one per client, for stop()
};

}  // namespace m2::harness
