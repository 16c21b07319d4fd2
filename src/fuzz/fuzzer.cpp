#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "harness/cluster.hpp"

namespace m2::fuzz {

namespace {

void apply(harness::Cluster& cluster, const FaultAction& action) {
  net::Network& net = cluster.network();
  switch (action.kind) {
    case FaultKind::kCrash:
      if (!net.is_crashed(action.a)) cluster.crash(action.a);
      break;
    case FaultKind::kRecover:
      if (net.is_crashed(action.a)) cluster.recover(action.a);
      break;
    case FaultKind::kLinkDown:
      net.set_link(action.a, action.b, false);
      break;
    case FaultKind::kLinkUp:
      net.set_link(action.a, action.b, true);
      break;
    case FaultKind::kPartition:
      net.partition(action.group);
      break;
    case FaultKind::kHeal:
      net.heal();
      break;
    case FaultKind::kLossSpike:
      net.set_loss(action.value);
      break;
    case FaultKind::kLossClear:
      net.set_loss(0.0);
      break;
    case FaultKind::kLatencySpike:
      net.set_latency_scale(action.value);
      break;
    case FaultKind::kLatencyClear:
      net.set_latency_scale(1.0);
      break;
    case FaultKind::kDupSpike:
      net.set_duplication(action.value);
      break;
    case FaultKind::kDupClear:
      net.set_duplication(0.0);
      break;
    case FaultKind::kReset:
    case FaultKind::kCorrupt:
    case FaultKind::kThrottleSpike:
    case FaultKind::kThrottleClear:
      // Runtime-only kinds: the simulator has no connections to reset or
      // frames to corrupt. Generated only with runtime_faults set, which
      // only the runtime backends request; ignore defensively.
      break;
  }
}

/// Objects in the synthetic workload, split evenly across the nodes'
/// partitions (at least one per node), and simulated clients per node.
constexpr std::uint64_t kObjects = 40;
constexpr int kClientsPerNode = 4;

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

core::ClusterConfig cluster_for(const Case& c) {
  core::ClusterConfig cluster;
  cluster.n_nodes = c.n_nodes;
  cluster.cores_per_node = 4;
  cluster.forward_timeout = 20 * core::kMillisecond;
  cluster.test_unsafe_epochs = c.inject_bug;
  cluster.batching.enabled = c.batching;
  return cluster;
}

Result finish(SafetyAuditor& auditor, const Case& c,
              std::vector<FaultAction> schedule, bool observed_loss) {
  Result result;
  result.lossy = observed_loss || schedule_is_lossy(schedule);
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

Result run_case(const Case& c) {
  assert(c.backend == core::Backend::kSim);
  wl::SyntheticWorkload workload(workload_for(c));

  harness::ExperimentConfig cfg;
  cfg.protocol = c.protocol;
  cfg.cluster = cluster_for(c);
  cfg.network.batching = false;
  cfg.load.clients_per_node = kClientsPerNode;
  cfg.load.think_time = 2 * sim::kMillisecond;
  cfg.load.max_inflight_per_node = 8;
  cfg.seed = c.seed;
  cfg.audit = false;  // the auditor rebuilds C-structs from deliver events
  harness::Cluster cluster(cfg, workload);

  SafetyAuditor auditor(c.protocol, c.n_nodes);
  cluster.set_observer(&auditor);

  std::vector<FaultAction> schedule = schedule_for(c);

  cluster.start_clients();
  sim::Time now = 0;
  for (const auto& action : schedule) {
    if (action.at > now) {
      cluster.run_for(action.at - now);
      now = action.at;
    }
    apply(cluster, action);
  }
  if (c.horizon > now) cluster.run_for(c.horizon - now);
  cluster.stop_clients();

  // Safety net: the generator pairs every fault with its undo inside the
  // horizon, but replayed/edited schedules may not — heal everything so
  // the end-of-run checks are meaningful.
  cluster.network().heal();
  cluster.network().set_loss(0.0);
  cluster.network().set_duplication(0.0);
  cluster.network().set_latency_scale(1.0);
  for (NodeId n = 0; n < static_cast<NodeId>(c.n_nodes); ++n)
    if (cluster.network().is_crashed(n)) cluster.recover(n);
  cluster.run_for(c.drain);

  Result result = finish(auditor, c, std::move(schedule), false);
  cluster.set_observer(nullptr);
  return result;
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
