#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <unordered_set>

#include "harness/cluster.hpp"
#include "net/link_faults.hpp"
#include "runtime/chaos_transport.hpp"
#include "runtime/runtime.hpp"
#include "runtime/tcp_transport.hpp"
#include "workload/synthetic.hpp"

namespace m2::fuzz {

namespace {

/// Objects in the synthetic workload, split evenly across the nodes'
/// partitions (at least one per node), and simulated clients per node.
constexpr std::uint64_t kObjects = 40;
constexpr int kClientsPerNode = 4;

/// A schedule that can silently disappear individual messages (drop a
/// decide broadcast, isolate a node while a decision happens, kill what sat
/// in a reset connection, make a receiver drop a corrupted stream) leaves
/// correct-but-unlucky nodes with no way to notice the gap unless later
/// traffic exposes it. The strong liveness checks only hold under
/// crash/latency/duplication/throttle faults, where every broadcast that is
/// sent reaches every up node.
bool schedule_is_lossy(const std::vector<FaultAction>& schedule) {
  for (const auto& action : schedule) {
    switch (action.kind) {
      case FaultKind::kLinkDown:
      case FaultKind::kPartition:
      case FaultKind::kLossSpike:
      case FaultKind::kReset:
      case FaultKind::kCorrupt:
        return true;
      default:
        break;
    }
  }
  return false;
}

/// The workload every backend runs a case with.
wl::SyntheticConfig workload_for(const Case& c) {
  wl::SyntheticConfig wcfg;
  wcfg.n_nodes = c.n_nodes;
  wcfg.objects_per_node = std::max<std::uint64_t>(
      1, kObjects / static_cast<std::uint64_t>(c.n_nodes));
  wcfg.locality = 0.7;          // remote proposals force forwards/acquisitions
  wcfg.complex_fraction = 0.1;  // multi-object commands cross partitions
  wcfg.payload_bytes = 16;
  wcfg.seed = c.seed;
  return wcfg;
}

/// The cluster configuration every backend runs a case with.
core::ClusterConfig cluster_for(const Case& c) {
  core::ClusterConfig cluster;
  cluster.n_nodes = c.n_nodes;
  cluster.cores_per_node = 4;
  cluster.forward_timeout = 20 * core::kMillisecond;
  cluster.test_unsafe_epochs = c.inject_bug;
  cluster.batching.enabled = c.batching;
  return cluster;
}

/// Ends a run whose cluster has healed, drained and stopped: picks the
/// liveness checks (downgraded when `schedule` is lossy or the substrate
/// saw messages lost, `result.lossy`), finalizes the auditor and adds its
/// verdict and counters to `result`.
Result finish(SafetyAuditor& auditor, const Case& c,
              std::vector<FaultAction> schedule, Result result) {
  result.lossy = result.lossy || schedule_is_lossy(schedule);
  LivenessChecks checks = default_checks(c.protocol);
  if (result.lossy) {
    checks.eventual_delivery = false;
    checks.convergence = false;
    // Only M²Paxos repairs local delivery under message loss (per-slot
    // watchdog retransmissions plus anti-entropy once a frontier sticks);
    // the single-log protocols stall forever on a lost commit/sequence of
    // a foreign slot ahead of their own. Reporters retry until they deliver
    // locally, so M²Paxos keeps delivery-at-reporter.
    if (c.protocol != core::Protocol::kM2Paxos)
      checks.delivery_at_reporter = false;
  }
  auditor.finalize(checks);

  result.ok = auditor.ok();
  result.violations = auditor.violations();
  result.schedule = std::move(schedule);
  result.proposals = auditor.proposals_seen();
  result.committed = auditor.commits_seen();
  result.decisions = auditor.decisions_seen();
  result.deliveries = auditor.deliveries_seen();
  result.nodes_crashed = static_cast<int>(auditor.ever_crashed().size());
  return result;
}

/// Applies one link fault to `faults`, under the same rules on both
/// substrates. Crash, recover, reset and corrupt are not link faults: the
/// substrate applies those itself (the simulator has no connection to
/// reset or frame to corrupt, so there they do nothing).
void apply_link_fault(net::LinkFaults& faults, const FaultAction& action) {
  switch (action.kind) {
    case FaultKind::kLinkDown:
      faults.set_link(action.a, action.b, false);
      break;
    case FaultKind::kLinkUp:
      faults.set_link(action.a, action.b, true);
      break;
    case FaultKind::kPartition:
      faults.partition(action.group);
      break;
    case FaultKind::kHeal:
      faults.heal();
      break;
    case FaultKind::kLossSpike:
      faults.set_loss(action.value);
      break;
    case FaultKind::kLossClear:
      faults.set_loss(0.0);
      break;
    case FaultKind::kLatencySpike:
      faults.set_latency_scale(action.value);
      break;
    case FaultKind::kLatencyClear:
      faults.set_latency_scale(1.0);
      break;
    case FaultKind::kDupSpike:
      faults.set_duplication(action.value);
      break;
    case FaultKind::kDupClear:
      faults.set_duplication(0.0);
      break;
    case FaultKind::kThrottleSpike:
      faults.set_throttle(action.a, action.b,
                          static_cast<core::Time>(
                              action.value *
                              static_cast<double>(core::kMillisecond)));
      break;
    case FaultKind::kThrottleClear:
      faults.set_throttle(action.a, action.b, 0);
      break;
    case FaultKind::kCrash:
    case FaultKind::kRecover:
    case FaultKind::kReset:
    case FaultKind::kCorrupt:
      break;
  }
}

// A substrate is what run_on drives a case through. Both have the same
// members: start() returns a violation when the cluster cannot start;
// advance_to(t) moves the case clock to `t` (never backwards) under load;
// apply() fires one fault; end_load() stops proposing; calm() undoes every
// fault and revives every node; drain(d) lets the cluster settle for `d`;
// stop() leaves no callback in flight and reports what the substrate saw.

/// The deterministic simulator: harness::Cluster with its self-pacing
/// clients (think time and an in-flight cap), faults applied to the
/// modelled net::Network.
struct SimSubstrate {
  SimSubstrate(const Case& c, SafetyAuditor& auditor)
      : workload(workload_for(c)), cluster(config(c), workload) {
    cluster.set_observer(&auditor);
  }

  static harness::ExperimentConfig config(const Case& c) {
    harness::ExperimentConfig cfg;
    cfg.protocol = c.protocol;
    cfg.cluster = cluster_for(c);
    cfg.network.batching = false;
    cfg.load.clients_per_node = kClientsPerNode;
    cfg.load.think_time = 2 * core::kMillisecond;
    cfg.load.max_inflight_per_node = 8;
    cfg.seed = c.seed;
    cfg.audit = false;  // the auditor rebuilds C-structs from deliver events
    return cfg;
  }

  std::string start() {
    cluster.start_clients();
    return {};
  }

  void advance_to(core::Time t) {
    if (t <= now) return;
    cluster.run_for(t - now);
    now = t;
  }

  void apply(const FaultAction& action) {
    net::Network& net = cluster.network();
    switch (action.kind) {
      case FaultKind::kCrash:
        if (!net.is_crashed(action.a)) cluster.crash(action.a);
        break;
      case FaultKind::kRecover:
        if (net.is_crashed(action.a)) cluster.recover(action.a);
        break;
      default:
        apply_link_fault(net.faults(), action);
        break;
    }
  }

  void end_load() { cluster.stop_clients(); }

  void calm() {
    net::Network& net = cluster.network();
    net.faults().clear();
    const int n = cluster.config().cluster.n_nodes;
    for (NodeId i = 0; i < static_cast<NodeId>(n); ++i)
      if (net.is_crashed(i)) cluster.recover(i);
  }

  void drain(core::Time d) { cluster.run_for(d); }

  /// The modelled network loses only what the schedule says.
  void stop(Result&) {}

  wl::SyntheticWorkload workload;
  harness::Cluster cluster;
  core::Time now = 0;
};

core::Time real_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_ns(core::Time ns) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

/// A real-clock cluster. kLoopback: one in-process Runtime over
/// ChaosTransport(Loopback). kTcp: one Runtime per node, each over
/// ChaosTransport(TcpTransport) on 127.0.0.1 with ephemeral ports — real
/// sockets, real reconnects. The case clock is wall time since start();
/// while it advances, an open-loop load paces commands_per_node proposals
/// per node evenly across the horizon in 1 ms ticks, and crashed nodes
/// pause their load (a crashed replica would just swallow the propose).
struct RuntimeSubstrate {
  RuntimeSubstrate(const Case& c, SafetyAuditor& auditor)
      : c(c),
        workload(workload_for(c)),
        host(static_cast<std::size_t>(c.n_nodes), 0),
        crashed(static_cast<std::size_t>(c.n_nodes), false),
        proposed(static_cast<std::size_t>(c.n_nodes), 0) {
    const int n = c.n_nodes;
    runtime::RuntimeConfig rcfg;
    rcfg.protocol = c.protocol;
    rcfg.cluster = cluster_for(c);
    rcfg.seed = c.seed;
    rcfg.audit = false;  // the auditor rebuilds C-structs from deliver events
    rcfg.preassign_ownership = true;
    rcfg.owner_map = workload.owner_map();
    rcfg.observer = &auditor;

    if (c.backend == core::Backend::kLoopback) {
      auto transport = std::make_unique<runtime::ChaosTransport>(
          std::make_unique<runtime::LoopbackTransport>(n), n, c.seed);
      chaos.push_back(transport.get());
      std::vector<NodeId> all;
      for (NodeId i = 0; i < static_cast<NodeId>(n); ++i) all.push_back(i);
      runtimes.push_back(std::make_unique<runtime::Runtime>(
          rcfg, std::move(transport), all));
      return;
    }
    std::vector<core::NodeAddress> endpoints;
    for (int i = 0; i < n; ++i)
      endpoints.push_back({"127.0.0.1", runtime::free_port()});
    // Snappier lifecycle than production defaults so reconnects and probes
    // land well inside the drain window.
    core::TransportOptions topts;
    topts.connect_timeout = 200 * core::kMillisecond;
    topts.backoff_base = 5 * core::kMillisecond;
    topts.backoff_cap = 200 * core::kMillisecond;
    topts.probe_interval = 50 * core::kMillisecond;
    for (NodeId i = 0; i < static_cast<NodeId>(n); ++i) {
      auto transport = std::make_unique<runtime::ChaosTransport>(
          std::make_unique<runtime::TcpTransport>(endpoints, topts), n,
          c.seed + i);
      chaos.push_back(transport.get());
      runtimes.push_back(std::make_unique<runtime::Runtime>(
          rcfg, std::move(transport), std::vector<NodeId>{i}));
      host[i] = static_cast<std::size_t>(i);
    }
  }

  std::string start() {
    for (auto& rt : runtimes) {
      std::string err;
      if (!rt->start(&err)) {
        for (auto& r : runtimes) r->stop();
        return "runtime start failed: " + err;
      }
    }
    t0 = real_now();
    return {};
  }

  void advance_to(core::Time t) {
    for (core::Time elapsed = real_now() - t0; elapsed < t;
         elapsed = real_now() - t0) {
      const double frac = std::min(
          1.0, static_cast<double>(elapsed) /
                   static_cast<double>(std::max<core::Time>(1, c.horizon)));
      const int target = static_cast<int>(frac * c.commands_per_node);
      for (NodeId i = 0; i < static_cast<NodeId>(c.n_nodes); ++i) {
        while (proposed[i] < target) {
          ++proposed[i];
          if (!crashed[i]) of(i).propose(i, workload.next(i));
        }
      }
      sleep_ns(1 * core::kMillisecond);
    }
  }

  void apply(const FaultAction& action) {
    switch (action.kind) {
      case FaultKind::kCrash:
        crashed[action.a] = true;
        of(action.a).crash(action.a);
        break;
      case FaultKind::kRecover:
        crashed[action.a] = false;
        of(action.a).recover(action.a);
        break;
      case FaultKind::kReset:
        egress(action.a).inject_reset(action.b);
        break;
      case FaultKind::kCorrupt:
        egress(action.a).inject_corrupt(action.a, action.b);
        break;
      default:
        for (auto* t : chaos)
          t->edit_faults([&](net::LinkFaults& faults) {
            apply_link_fault(faults, action);
          });
        break;
    }
  }

  /// The paced load runs only inside advance_to.
  void end_load() {}

  void calm() {
    for (auto* t : chaos) t->calm();
    for (NodeId i = 0; i < static_cast<NodeId>(c.n_nodes); ++i) {
      if (crashed[i]) {
        crashed[i] = false;
        of(i).recover(i);
      }
    }
  }

  void drain(core::Time d) { sleep_ns(d); }

  /// Joins the node threads, then reports what the chaos layer fired and
  /// whether messages were seen lost anywhere in the stack.
  void stop(Result& out) {
    for (auto& rt : runtimes) rt->stop();
    for (auto* t : chaos) {
      out.chaos_injected += t->chaos_dropped() + t->chaos_delayed() +
                            t->chaos_duplicated() + t->chaos_corrupted() +
                            t->chaos_resets();
      const runtime::TransportCounters& inner = t->inner()->counters();
      const std::uint64_t dropped =
          inner.messages_dropped.load(std::memory_order_relaxed);
      out.tx_dropped += dropped;
      out.lossy = out.lossy || t->saw_loss() || dropped > 0 ||
                  inner.decode_failures.load(std::memory_order_relaxed) > 0;
    }
  }

  runtime::Runtime& of(NodeId node) { return *runtimes[host[node]]; }
  /// The chaos layer filtering node `a`'s outbound traffic.
  runtime::ChaosTransport& egress(NodeId a) {
    return *chaos[chaos.size() == 1 ? 0 : host[a]];
  }

  const Case& c;
  wl::SyntheticWorkload workload;
  std::vector<std::unique_ptr<runtime::Runtime>> runtimes;
  std::vector<runtime::ChaosTransport*> chaos;  // borrowed from the runtimes
  std::vector<std::size_t> host;                // node -> runtimes index
  std::vector<bool> crashed;
  std::vector<int> proposed;
  core::Time t0 = 0;
};

/// The one fault-case driver: build the substrate, apply each action at
/// its time, run to the horizon, end the load, calm every fault (the
/// generator pairs each fault with its undo inside the horizon, but
/// replayed or edited schedules may not), drain, stop and audit.
template <class Substrate>
Result run_on(const Case& c) {
  SafetyAuditor auditor(c.protocol, c.n_nodes);
  std::vector<FaultAction> schedule = schedule_for(c);
  Result result;
  Substrate substrate(c, auditor);
  if (std::string failure = substrate.start(); !failure.empty()) {
    result.schedule = std::move(schedule);
    result.violations.push_back(std::move(failure));
    return result;
  }
  for (const FaultAction& action : schedule) {
    substrate.advance_to(action.at);
    substrate.apply(action);
  }
  substrate.advance_to(c.horizon);
  substrate.end_load();
  substrate.calm();
  substrate.drain(c.drain);
  substrate.stop(result);
  return finish(auditor, c, std::move(schedule), std::move(result));
}

}  // namespace

std::vector<FaultAction> schedule_for(const Case& c) {
  if (c.schedule) return *c.schedule;
  ScheduleConfig cfg;
  cfg.n_nodes = c.n_nodes;
  cfg.horizon = c.horizon;
  cfg.intensity = c.intensity;
  cfg.runtime_faults = c.backend != core::Backend::kSim;
  return make_schedule(c.seed, cfg);
}

std::vector<FaultAction> keep_episodes(std::vector<FaultAction> schedule,
                                       const std::vector<int>& episodes) {
  const std::unordered_set<int> keep(episodes.begin(), episodes.end());
  std::erase_if(schedule, [&](const FaultAction& action) {
    return keep.count(action.episode) == 0;
  });
  return schedule;
}

Result run_case(const Case& c) {
  if (c.backend == core::Backend::kSim) return run_on<SimSubstrate>(c);
  return run_on<RuntimeSubstrate>(c);
}

std::vector<int> shrink_schedule(const Case& c, Result& out, const RunFn& run,
                                 int max_runs) {
  const std::vector<FaultAction> full = schedule_for(c);
  std::vector<int> episodes;
  for (const auto& action : full) episodes.push_back(action.episode);
  std::sort(episodes.begin(), episodes.end());
  episodes.erase(std::unique(episodes.begin(), episodes.end()),
                 episodes.end());

  int runs = 0;
  // Replays filter the full schedule, so every action keeps its time.
  auto replay = [&](const std::vector<int>& keep, Result& result) {
    ++runs;
    Case sub = c;
    sub.schedule = keep_episodes(full, keep);
    result = run(sub);
    return !result.ok;
  };

  // The failure must reproduce at all; and if it reproduces with no faults
  // the schedule is irrelevant — report the empty set immediately.
  if (!replay(episodes, out)) return episodes;
  Result candidate;
  if (replay({}, candidate)) {
    out = candidate;
    return {};
  }

  // ddmin over episode ids.
  std::size_t granularity = 2;
  while (episodes.size() >= 2 && runs < max_runs) {
    const std::size_t chunk =
        std::max<std::size_t>(1, episodes.size() / granularity);
    bool reduced = false;
    for (std::size_t begin = 0; begin < episodes.size() && runs < max_runs;
         begin += chunk) {
      const std::size_t end = std::min(begin + chunk, episodes.size());
      std::vector<int> complement;
      complement.reserve(episodes.size() - (end - begin));
      complement.insert(complement.end(), episodes.begin(),
                        episodes.begin() + static_cast<std::ptrdiff_t>(begin));
      complement.insert(complement.end(),
                        episodes.begin() + static_cast<std::ptrdiff_t>(end),
                        episodes.end());
      if (complement.empty()) continue;
      if (replay(complement, candidate)) {
        episodes = std::move(complement);
        out = candidate;
        granularity = std::max<std::size_t>(2, granularity - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (chunk == 1) break;  // 1-minimal
      granularity = std::min(granularity * 2, episodes.size());
    }
  }
  return episodes;
}

}  // namespace m2::fuzz
