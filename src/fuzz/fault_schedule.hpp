#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "net/payload.hpp"

namespace m2::fuzz {

/// One timed fault-injection action against a running cluster.
enum class FaultKind : std::uint8_t {
  kCrash,         // node a crashes (volatile protocol rounds lost)
  kRecover,       // node a restarts and rejoins
  kLinkDown,      // directed link a -> b drops everything
  kLinkUp,        // directed link a -> b restored
  kPartition,     // cluster split: `group` vs the rest
  kHeal,          // all partitions and link failures removed
  kLossSpike,     // network-wide drop probability set to `value`
  kLossClear,     // drop probability restored to 0
  kLatencySpike,  // propagation latency scaled by `value`
  kLatencyClear,  // latency scale restored to 1
  kDupSpike,      // duplicate-delivery probability set to `value`
  kDupClear,      // duplicate-delivery probability restored to 0
  // Generated only when ScheduleConfig::runtime_faults is set. Reset and
  // corrupt are wire-level faults only a real connection can express (the
  // simulator does nothing for them); a throttle applies on both
  // substrates.
  kReset,          // one-shot: tear down the established connection a -> b
  kCorrupt,        // one-shot: corrupt the next frame on the wire a -> b
  kThrottleSpike,  // slow peer: `value` ms of extra one-way delay on a -> b
  kThrottleClear   // throttle on a -> b removed
};

const char* to_string(FaultKind kind);

struct FaultAction {
  core::Time at = 0;            // injection time: virtual on the sim,
                                // since run start on the runtime
  FaultKind kind = FaultKind::kHeal;
  NodeId a = kNoNode;           // victim node / link source
  NodeId b = kNoNode;           // link destination
  double value = 0;             // loss/dup probability / latency scale /
                                // throttle delay in ms
  std::vector<NodeId> group;    // partition side A
  /// Episode id: a disruptive action and its undo share one id. The
  /// shrinker and --keep replays drop or keep whole episodes, so every
  /// shrunk schedule still recovers/heals everything it breaks.
  int episode = -1;

  std::string to_string() const;
};

/// Shape of a generated schedule.
struct ScheduleConfig {
  int n_nodes = 5;
  /// Window during which faults are injected. Every disruptive action is
  /// paired with its undo inside [0, horizon]; by `horizon` the cluster is
  /// always fully healed (all nodes up, links up, loss/dup 0, latency x1),
  /// which is what lets the auditor demand eventual delivery afterwards.
  core::Time horizon = 300 * core::kMillisecond;
  /// 1..10: expected number of fault episodes per 100 ms of horizon.
  int intensity = 3;
  /// Also generate connection resets, wire corruption and slow peers. Off
  /// for simulator schedules — the sim has no connections to reset — so sim
  /// seeds keep their historical meaning.
  bool runtime_faults = false;
};

/// Expands `seed` into a deterministic fault schedule, sorted by time.
///
/// Invariants the generator maintains (so that every schedule keeps a live
/// majority and ends healed):
///  - at most floor((n-1)/2) nodes are crashed at any instant;
///  - every crash is followed by a recover, every link-down by a link-up,
///    every partition by a heal, every loss/latency/dup spike by its clear,
///    all within the horizon;
///  - partitions always put a majority on one side (the generator does not
///    try to starve both sides; crashes can still shrink the majority side).
std::vector<FaultAction> make_schedule(std::uint64_t seed,
                                       const ScheduleConfig& cfg);

/// Human-readable one-action-per-line rendering of a schedule.
std::string to_string(const std::vector<FaultAction>& schedule);

}  // namespace m2::fuzz
