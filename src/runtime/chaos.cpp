#include "runtime/chaos.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "fuzz/safety_auditor.hpp"
#include "runtime/chaos_transport.hpp"
#include "runtime/runtime.hpp"
#include "runtime/tcp_transport.hpp"
#include "workload/synthetic.hpp"

namespace m2::runtime {

namespace {

using fuzz::FaultAction;
using fuzz::FaultKind;

core::Time real_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_ns(core::Time ns) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

/// The SafetyAuditor is not thread-safe; runtime callbacks arrive from
/// every node thread plus the driver. One lock around the whole auditor is
/// plenty at soak load (a few thousand events per second).
class LockedAuditor final : public core::ClusterObserver {
 public:
  LockedAuditor(core::Protocol protocol, int n_nodes)
      : auditor_(protocol, n_nodes) {}

  void on_propose(core::Time at, NodeId n, const core::Command& c) override {
    std::lock_guard<std::mutex> lock(mu_);
    auditor_.on_propose(at, n, c);
  }
  void on_decided(core::Time at, NodeId n, core::ObjectId l, core::Instance in,
                  const core::Command& c) override {
    std::lock_guard<std::mutex> lock(mu_);
    auditor_.on_decided(at, n, l, in, c);
  }
  void on_ownership(core::Time at, NodeId n, core::ObjectId l, core::Epoch e,
                    NodeId owner, bool acquired) override {
    std::lock_guard<std::mutex> lock(mu_);
    auditor_.on_ownership(at, n, l, e, owner, acquired);
  }
  void on_deliver(core::Time at, NodeId n, const core::Command& c) override {
    std::lock_guard<std::mutex> lock(mu_);
    auditor_.on_deliver(at, n, c);
  }
  void on_committed(core::Time at, NodeId n, const core::Command& c) override {
    std::lock_guard<std::mutex> lock(mu_);
    auditor_.on_committed(at, n, c);
  }
  void on_crash(core::Time at, NodeId n) override {
    std::lock_guard<std::mutex> lock(mu_);
    auditor_.on_crash(at, n);
  }
  void on_recover(core::Time at, NodeId n) override {
    std::lock_guard<std::mutex> lock(mu_);
    auditor_.on_recover(at, n);
  }

  /// Post-run only: node threads are joined, nothing calls in any more.
  fuzz::SafetyAuditor& auditor() { return auditor_; }

 private:
  std::mutex mu_;
  fuzz::SafetyAuditor auditor_;
};

/// Latency scale `value` (sim semantics: propagation multiplied by value)
/// mapped onto an absolute hold-back: (value - 1) extra milliseconds per
/// message, roughly a 1 ms base RTT scaled like the simulator scales its
/// link latency.
core::Time scale_to_delay(double value) {
  if (value <= 1.0) return 0;
  return static_cast<core::Time>((value - 1.0) *
                                 static_cast<double>(core::kMillisecond));
}

struct Cluster {
  std::vector<std::unique_ptr<Runtime>> runtimes;
  std::vector<ChaosTransport*> chaos;  // borrowed from the runtimes
  std::vector<std::size_t> host;       // node -> runtimes index

  Runtime& of(NodeId node) { return *runtimes[host[node]]; }
  /// The chaos layer filtering node `a`'s outbound traffic.
  ChaosTransport& egress(NodeId a) {
    return *chaos[chaos.size() == 1 ? 0 : host[a]];
  }
};

void apply(Cluster& cluster, std::vector<bool>& crashed,
           const FaultAction& action) {
  switch (action.kind) {
    case FaultKind::kCrash:
      crashed[action.a] = true;
      cluster.of(action.a).crash(action.a);
      break;
    case FaultKind::kRecover:
      crashed[action.a] = false;
      cluster.of(action.a).recover(action.a);
      break;
    case FaultKind::kLinkDown:
      for (auto* c : cluster.chaos) c->set_link(action.a, action.b, false);
      break;
    case FaultKind::kLinkUp:
      for (auto* c : cluster.chaos) c->set_link(action.a, action.b, true);
      break;
    case FaultKind::kPartition:
      for (auto* c : cluster.chaos) c->set_partition(action.group);
      break;
    case FaultKind::kHeal:
      for (auto* c : cluster.chaos) c->heal();
      break;
    case FaultKind::kLossSpike:
      for (auto* c : cluster.chaos) c->set_loss(action.value);
      break;
    case FaultKind::kLossClear:
      for (auto* c : cluster.chaos) c->set_loss(0.0);
      break;
    case FaultKind::kLatencySpike:
      for (auto* c : cluster.chaos) c->set_delay(scale_to_delay(action.value));
      break;
    case FaultKind::kLatencyClear:
      for (auto* c : cluster.chaos) c->set_delay(0);
      break;
    case FaultKind::kDupSpike:
      for (auto* c : cluster.chaos) c->set_duplication(action.value);
      break;
    case FaultKind::kDupClear:
      for (auto* c : cluster.chaos) c->set_duplication(0.0);
      break;
    case FaultKind::kReset:
      cluster.egress(action.a).inject_reset(action.b);
      break;
    case FaultKind::kCorrupt:
      cluster.egress(action.a).inject_corrupt(action.a, action.b);
      break;
    case FaultKind::kThrottleSpike:
      for (auto* c : cluster.chaos)
        c->set_throttle(action.a, action.b,
                        static_cast<core::Time>(
                            action.value *
                            static_cast<double>(core::kMillisecond)));
      break;
    case FaultKind::kThrottleClear:
      for (auto* c : cluster.chaos) c->set_throttle(action.a, action.b, 0);
      break;
  }
}

}  // namespace

fuzz::Result run_case(const fuzz::Case& c) {
  assert(c.backend != core::Backend::kSim);
  const int n = c.n_nodes;
  wl::SyntheticWorkload workload(fuzz::workload_for(c));

  RuntimeConfig rcfg;
  rcfg.protocol = c.protocol;
  rcfg.cluster = fuzz::cluster_for(c);
  rcfg.seed = c.seed;
  rcfg.audit = false;  // the auditor rebuilds C-structs from deliver events
  rcfg.preassign_ownership = true;
  rcfg.owner_map = workload.owner_map();

  LockedAuditor auditor(c.protocol, n);
  rcfg.observer = &auditor;

  const std::vector<FaultAction> schedule = fuzz::schedule_for(c);

  Cluster cluster;
  cluster.host.resize(static_cast<std::size_t>(n), 0);
  if (c.backend == core::Backend::kLoopback) {
    auto chaos = std::make_unique<ChaosTransport>(
        std::make_unique<LoopbackTransport>(n), n, c.seed);
    cluster.chaos.push_back(chaos.get());
    std::vector<NodeId> all;
    for (NodeId i = 0; i < static_cast<NodeId>(n); ++i) all.push_back(i);
    cluster.runtimes.push_back(
        std::make_unique<Runtime>(rcfg, std::move(chaos), all));
  } else {
    std::vector<core::NodeAddress> endpoints;
    for (int i = 0; i < n; ++i)
      endpoints.push_back({"127.0.0.1", free_port()});
    // Snappier lifecycle than production defaults so reconnects and probes
    // land well inside the drain window.
    core::TransportOptions topts;
    topts.connect_timeout = 200 * core::kMillisecond;
    topts.backoff_base = 5 * core::kMillisecond;
    topts.backoff_cap = 200 * core::kMillisecond;
    topts.probe_interval = 50 * core::kMillisecond;
    for (NodeId i = 0; i < static_cast<NodeId>(n); ++i) {
      auto chaos = std::make_unique<ChaosTransport>(
          std::make_unique<TcpTransport>(endpoints, topts), n, c.seed + i);
      cluster.chaos.push_back(chaos.get());
      cluster.runtimes.push_back(std::make_unique<Runtime>(
          rcfg, std::move(chaos), std::vector<NodeId>{i}));
      cluster.host[i] = static_cast<std::size_t>(i);
    }
  }

  for (auto& rt : cluster.runtimes) {
    std::string err;
    if (!rt->start(&err)) {
      fuzz::Result failed;
      failed.schedule = schedule;
      failed.violations.push_back("runtime start failed: " + err);
      for (auto& r : cluster.runtimes) r->stop();
      return failed;
    }
  }

  // Drive: apply schedule actions at their real-time offsets while an
  // open-loop workload paces commands_per_node proposals per node across
  // the horizon. Crashed nodes pause their load (a crashed replica would
  // just swallow the propose).
  std::vector<bool> crashed(static_cast<std::size_t>(n), false);
  std::vector<int> proposed(static_cast<std::size_t>(n), 0);
  const core::Time t0 = real_now();
  std::size_t next_action = 0;
  while (true) {
    const core::Time elapsed = real_now() - t0;
    while (next_action < schedule.size() &&
           schedule[next_action].at <= elapsed) {
      apply(cluster, crashed, schedule[next_action]);
      ++next_action;
    }
    if (elapsed >= c.horizon) break;
    const double frac = std::min(
        1.0, static_cast<double>(elapsed) /
                 static_cast<double>(std::max<core::Time>(1, c.horizon)));
    const int target = static_cast<int>(frac * c.commands_per_node);
    for (NodeId i = 0; i < static_cast<NodeId>(n); ++i) {
      while (proposed[i] < target) {
        ++proposed[i];
        if (!crashed[i]) cluster.of(i).propose(i, workload.next(i));
      }
    }
    sleep_ns(1 * core::kMillisecond);
  }
  // Late actions (times past the horizon: recover/heal/clear undos).
  for (; next_action < schedule.size(); ++next_action)
    apply(cluster, crashed, schedule[next_action]);

  // Safety net: replayed/edited schedules may not end healed — calm every
  // fault and revive every node so the end-of-run checks are meaningful.
  for (auto* chaos : cluster.chaos) chaos->calm();
  for (NodeId i = 0; i < static_cast<NodeId>(n); ++i) {
    if (crashed[i]) {
      crashed[i] = false;
      cluster.of(i).recover(i);
    }
  }
  sleep_ns(c.drain);

  // stop() joins node threads: after this no observer callback is in
  // flight and the transport counters are final.
  for (auto& rt : cluster.runtimes) rt->stop();

  bool observed_loss = false;
  std::uint64_t chaos_injected = 0;
  std::uint64_t tx_dropped = 0;
  for (auto* chaos : cluster.chaos) {
    chaos_injected += chaos->chaos_dropped() + chaos->chaos_delayed() +
                      chaos->chaos_duplicated() + chaos->chaos_corrupted() +
                      chaos->chaos_resets();
    const TransportCounters& inner = chaos->inner()->counters();
    const std::uint64_t dropped =
        inner.messages_dropped.load(std::memory_order_relaxed);
    tx_dropped += dropped;
    observed_loss = observed_loss || chaos->saw_loss() || dropped > 0 ||
                    inner.decode_failures.load(std::memory_order_relaxed) > 0;
  }

  fuzz::Result result =
      fuzz::finish(auditor.auditor(), c, schedule, observed_loss);
  result.chaos_injected = chaos_injected;
  result.tx_dropped = tx_dropped;
  return result;
}

}  // namespace m2::runtime
