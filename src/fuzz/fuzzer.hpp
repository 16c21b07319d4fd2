#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "fuzz/fault_schedule.hpp"
#include "fuzz/safety_auditor.hpp"

namespace m2::fuzz {

/// One fault case: a protocol, a backend, a cluster size, and a seed that
/// determines the workload, the fault schedule and (on the simulator) the
/// network jitter stream.
struct Case {
  core::Protocol protocol = core::Protocol::kM2Paxos;
  /// kSim runs on the deterministic simulator: identical cases give
  /// identical results. kLoopback / kTcp run a real threaded cluster: the
  /// schedule then also draws the runtime-only fault kinds, and thread
  /// interleaving makes the trace, not the injected faults, vary from run
  /// to run. run_case drives all three.
  core::Backend backend = core::Backend::kSim;
  int n_nodes = 5;
  std::uint64_t seed = 1;
  int intensity = 3;
  /// Fault-injection window (virtual time on the simulator, wall time on
  /// the runtime); the run then drains for `drain` with all faults healed
  /// before the auditor's end-of-run checks.
  core::Time horizon = 300 * core::kMillisecond;
  core::Time drain = 2 * core::kSecond;
  /// Runtime backends: proposals per node, paced evenly across the
  /// horizon. The simulator's clients pace themselves (think time and an
  /// in-flight cap) and ignore it.
  int commands_per_node = 150;
  /// Deliberately break M²Paxos epoch safety (ClusterConfig::
  /// test_unsafe_epochs) to validate the auditor's detection path.
  bool inject_bug = false;
  /// Run with protocol-level command batching enabled (default knobs with
  /// batching.enabled = true), exercising multi-command slot values,
  /// pipelined accept rounds, and batched recovery under faults.
  bool batching = false;
  /// When set, replay exactly these actions (an empty list: no faults)
  /// instead of the schedule generated from `seed`. The shrinker's replays
  /// and --keep set it.
  std::optional<std::vector<FaultAction>> schedule;
};

struct Result {
  bool ok = false;
  std::vector<std::string> violations;
  /// The schedule that was actually applied.
  std::vector<FaultAction> schedule;
  std::uint64_t proposals = 0;
  std::uint64_t committed = 0;
  std::uint64_t decisions = 0;
  std::uint64_t deliveries = 0;
  int nodes_crashed = 0;
  /// Runtime backends: faults the chaos layer actually fired (drops +
  /// delays + dups + corruptions + resets, summed over transports).
  std::uint64_t chaos_injected = 0;
  /// Runtime backends: transport-level drops underneath the chaos layer
  /// (queue caps, reconnect backoff, write failures).
  std::uint64_t tx_dropped = 0;
  /// True when liveness checks were downgraded: the schedule is lossy, or
  /// (runtime) messages were seen lost anywhere in the stack.
  bool lossy = false;
};

/// The schedule `c` applies: its override if set, else the one generated
/// from its seed (with the runtime-only kinds on a runtime backend).
std::vector<FaultAction> schedule_for(const Case& c);

/// `schedule` restricted to the actions of `episodes`, timing unchanged.
std::vector<FaultAction> keep_episodes(std::vector<FaultAction> schedule,
                                       const std::vector<int>& episodes);

/// Executes one case on its backend: builds a cluster from the seed,
/// applies the fault schedule at its times (virtual on the simulator, wall
/// time since start on the runtime) while every node is under load, heals,
/// drains, stops and audits. Deterministic on the simulator.
Result run_case(const Case& c);

using RunFn = std::function<Result(const Case&)>;

/// Shrinks the fault schedule of a failing case to a locally minimal set
/// of *episodes* that still fails, by ddmin-style bisection (drop halves,
/// then quarters, ... then single episodes), replaying with `run`. Episode
/// granularity keeps every fault paired with its undo, so shrunk schedules
/// always end healed; replays keep each action's original time. Returns the
/// surviving episode ids (replayable with --keep) and the result of the
/// final failing replay in `out`; `max_runs` bounds the replays. On a
/// runtime backend a failure may not reproduce every time, so the result
/// may be a superset of the true minimum. Precondition: run(c) fails.
std::vector<int> shrink_schedule(const Case& c, Result& out, const RunFn& run,
                                 int max_runs);

}  // namespace m2::fuzz
