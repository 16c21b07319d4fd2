#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "stats/histogram.hpp"

namespace m2::stats {

/// Metric catalogs. Fixed enums so the hot path is an array index — no
/// string hashing, no lookup, no allocation. Every id has a stable name
/// (metric_name) that is the key used by the JSON exporter; docs list the
/// full catalog in docs/observability.md. Add new metrics by extending an
/// enum (before kCount) and its name table — nothing else changes.
enum class Counter : std::uint16_t {
  // Command outcomes observed at this node, split by decision path.
  kCommittedFast,       // committed via the fast path (owner / leader-local)
  kCommittedSlow,       // committed after acquisition / collision / accept round
  kCommittedForwarded,  // committed after forwarding to a remote owner/leader
  kDelivered,           // non-noop commands appended to the local C-struct
  kDecidedSlots,        // consensus slots learned decided at this node
  // Coordination and recovery.
  kForwarded,           // commands forwarded to a remote owner/leader
  kFastPathRounds,      // accept rounds started while owning everything
  kAcquisitions,        // ownership-acquisition (Prepare) rounds started
  kRepairRounds,        // forced acquisitions run to repair delivery
  kAcceptNacks,
  kPrepareNacks,
  kRetries,
  kTimeouts,
  kNoopsFilled,
  kFallbacks,           // routed via the designated conflict leader
  kRetransmissions,     // rounds re-sent with previously assigned slots
  kLeaderChanges,
  kCollisions,          // GenPaxos fast-quorum disagreements
  kExecBlocked,         // EPaxos execution deferrals on uncommitted deps
  kDepBytesSent,        // EPaxos dependency metadata volume
  // Anti-entropy.
  kSyncProbes,
  kSyncSlotsLearned,
  kGcTruncatedSlots,
  // M²Paxos crossing resolution (DESIGN.md §5a #6).
  kCrossingChecks,        // wait-cycle searches run
  kCrossingHeadsVisited,  // frontier commands those searches visited
  kCrossingDelivered,     // commands delivered by breaking a wait cycle
  // Command batching: rounds sent and what triggered each flush.
  kBatchedRounds,
  kBatchedCommands,
  kBatchFlushFull,      // command-count cap reached
  kBatchFlushBytes,     // byte cap reached
  kBatchFlushWindow,    // batch window expired
  kBatchFlushPipeline,  // pipeline slot freed by a settled round
  // Runtime transport: outbound messages dropped instead of sent (peer
  // unreachable, write failure, or per-peer queue over its byte cap).
  kRuntimeTxDropped,
  // Runtime connection lifecycle (TCP transport, per peer writer).
  kRuntimeReconnects,       // successful connects after the first
  kRuntimeConnectFailures,  // connect attempts that failed or timed out
  kRuntimePeerStateChanges, // peer health transitions (up/suspect/down)
  // Chaos layer: faults injected by runtime::ChaosTransport.
  kChaosDropped,     // messages dropped by link/partition/loss faults
  kChaosDelayed,     // messages held back by latency faults (then delivered)
  kChaosDuplicated,  // extra copies injected by duplication faults
  kChaosCorrupted,   // frames corrupted on the wire (CRC teardown path)
  kChaosResets,      // established connections torn down by fault injection
  kCount
};

enum class Gauge : std::uint16_t {
  kEventQueueDepth,   // sim-layer: live events at snapshot time
  kPendingCommands,   // proposer-side in-flight commands at snapshot time
  kCount
};

enum class Histo : std::uint16_t {
  // Propose→commit latency spans at the proposer, by decision path (ns).
  kCommitFastNs,
  kCommitSlowNs,
  kCommitForwardedNs,
  // Propose→deliver spans at the proposer, by decision path (ns).
  kDeliverFastNs,
  kDeliverSlowNs,
  kDeliverForwardedNs,
  // Prepare start → ownership acquired (ns).
  kAcquisitionNs,
  // Commands per batched accept-round slot.
  kBatchOccupancy,
  // Slot-log window depth sampled at each frontier advance.
  kSlotLogDepth,
  kCount
};

const char* metric_name(Counter c);
const char* metric_name(Gauge g);
const char* metric_name(Histo h);

/// Decision path a command took at this node, tagged at routing time and
/// consumed when its commit/delivery span is recorded. "Fast" is the
/// protocol's leader-local/owner path, "forwarded" went through a remote
/// owner or leader, "slow" needed an extra round (acquisition, collision
/// recovery, classic accept fallback).
enum class Path : std::uint8_t { kFast, kSlow, kForwarded };

inline Counter committed_counter(Path p) {
  switch (p) {
    case Path::kSlow: return Counter::kCommittedSlow;
    case Path::kForwarded: return Counter::kCommittedForwarded;
    default: return Counter::kCommittedFast;
  }
}
inline Histo commit_histo(Path p) {
  switch (p) {
    case Path::kSlow: return Histo::kCommitSlowNs;
    case Path::kForwarded: return Histo::kCommitForwardedNs;
    default: return Histo::kCommitFastNs;
  }
}
inline Histo deliver_histo(Path p) {
  switch (p) {
    case Path::kSlow: return Histo::kDeliverSlowNs;
    case Path::kForwarded: return Histo::kDeliverForwardedNs;
    default: return Histo::kDeliverFastNs;
  }
}

/// Per-node metric store. All storage is sized at construction (fixed
/// arrays plus preallocated histograms), so counting, gauging, and
/// recording never allocate — safe inside the zero-steady-state-allocation
/// windows the benches enforce. Copyable (plain arrays + vector) so
/// experiment results can carry a merged snapshot.
class MetricsRegistry {
 public:
  MetricsRegistry() : hists_(static_cast<std::size_t>(Histo::kCount)) {}

  void inc(Counter c, std::uint64_t n = 1) {
    counters_[static_cast<std::size_t>(c)] += n;
  }
  void set(Gauge g, std::int64_t v) {
    gauges_[static_cast<std::size_t>(g)] = v;
  }
  void record(Histo h, std::int64_t v) {
    hists_[static_cast<std::size_t>(h)].record(v);
  }

  std::uint64_t counter(Counter c) const {
    return counters_[static_cast<std::size_t>(c)];
  }
  std::int64_t gauge(Gauge g) const {
    return gauges_[static_cast<std::size_t>(g)];
  }
  const Histogram& histogram(Histo h) const {
    return hists_[static_cast<std::size_t>(h)];
  }

  /// Element-wise merge (counters add, gauges add, histograms merge) —
  /// used to fold per-node registries into one cluster view. Associative.
  void merge(const MetricsRegistry& other) {
    for (std::size_t i = 0; i < counters_.size(); ++i)
      counters_[i] += other.counters_[i];
    for (std::size_t i = 0; i < gauges_.size(); ++i)
      gauges_[i] += other.gauges_[i];
    for (std::size_t i = 0; i < hists_.size(); ++i)
      hists_[i].merge(other.hists_[i]);
  }

  void reset() {
    counters_.fill(0);
    gauges_.fill(0);
    for (auto& h : hists_) h.reset();
  }

 private:
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)>
      counters_{};
  std::array<std::int64_t, static_cast<std::size_t>(Gauge::kCount)> gauges_{};
  std::vector<Histogram> hists_;
};

}  // namespace m2::stats
