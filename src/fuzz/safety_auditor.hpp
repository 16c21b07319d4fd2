#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/command.hpp"
#include "core/config.hpp"
#include "core/cstruct.hpp"
#include "core/observer.hpp"
#include "core/time.hpp"

namespace m2::fuzz {

/// Which liveness-flavoured end-of-run checks a protocol implementation
/// can honour. Safety checks always run; these depend on per-node catch-up
/// machinery the four implementations have to different degrees.
struct LivenessChecks {
  /// Committed commands reach every never-crashed node.
  bool eventual_delivery = false;
  /// Never-crashed nodes end with identical delivered sets.
  bool convergence = false;
  /// Committed commands reach at least the node that reported the commit
  /// (that node retries until delivery).
  bool delivery_at_reporter = false;
};

/// The strongest check set each implementation supports under lossy
/// schedules: M²Paxos has anti-entropy (full checks); Multi-Paxos and
/// GenPaxos proposers retry until local delivery but followers have no
/// catch-up; this EPaxos has no recovery machinery at all, so only pure
/// safety is checked. See docs/testing.md.
LivenessChecks default_checks(core::Protocol protocol);

/// Trace-driven checker of the Generalized Consensus safety invariants
/// (PAPER.md §III, §V), fed by core::ClusterObserver callbacks during a
/// run and finalized against end-of-run replica state.
///
/// Online checks (violations recorded the moment they happen):
///  - decided-slot stability: a consensus slot ⟨object, instance⟩, once
///    decided, is never rebound to a different command — on any node, at
///    any time (cross-node disagreement is the interesting case; same-node
///    rebinding is also caught);
///  - epoch monotonicity: the ownership epochs a node observes for one
///    object never decrease;
///  - unique acquisition: at most one node completes an ownership
///    acquisition of an object per epoch (quorum intersection);
///  - nontriviality: every delivered command was previously proposed;
///  - exactly-once delivery per node.
///
/// End-of-run checks (require the post-heal drain to have completed):
///  - consistency: conflicting commands appear in the same relative order
///    in every pair of never-crashed nodes' C-structs (prefix agreement of
///    the merged C-struct, Generalized Consensus `Consistency`);
///  - total order, additionally, for Multi-Paxos;
///  - eventual delivery: every command acknowledged as committed is
///    delivered at every never-crashed node once all faults healed;
///  - convergence: never-crashed nodes deliver identical command sets.
///
/// The callbacks may arrive concurrently: runtime nodes call in from their
/// own threads, so each one that touches state holds one mutex. finalize()
/// and the accessors take no lock; call them once the run has stopped (the
/// runtime's node threads are joined).
class SafetyAuditor final : public core::ClusterObserver {
 public:
  explicit SafetyAuditor(core::Protocol protocol, int n_nodes);

  // --- ClusterObserver ------------------------------------------------
  void on_propose(core::Time at, NodeId n, const core::Command& c) override;
  void on_decided(core::Time at, NodeId n, core::ObjectId l, core::Instance in,
                  const core::Command& c) override;
  void on_ownership(core::Time at, NodeId n, core::ObjectId l, core::Epoch e,
                    NodeId owner, bool acquired) override;
  void on_deliver(core::Time at, NodeId n, const core::Command& c) override;
  void on_committed(core::Time at, NodeId n, const core::Command& c) override;
  void on_crash(core::Time at, NodeId n) override;
  void on_recover(core::Time at, NodeId n) override;

  /// Runs the end-of-run checks. Call exactly once, after the cluster has
  /// healed and drained. Returns true iff no violation was found (online
  /// ones included).
  bool finalize(const LivenessChecks& checks);

  bool ok() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }
  /// Nodes that crashed at least once (excluded from liveness checks).
  const std::unordered_set<NodeId>& ever_crashed() const {
    return ever_crashed_;
  }
  std::uint64_t proposals_seen() const { return proposed_.size(); }
  std::uint64_t decisions_seen() const { return decisions_seen_; }
  std::uint64_t deliveries_seen() const { return deliveries_seen_; }
  std::uint64_t commits_seen() const { return committed_.size(); }

 private:
  void violation(core::Time at, std::string what);

  std::mutex mu_;  // serializes the observer callbacks
  core::Protocol protocol_;
  int n_nodes_;
  std::vector<std::string> violations_;

  // Online state.
  std::unordered_set<core::CommandId> proposed_;
  /// Committed command -> node that reported the commit. Commands whose
  /// reporter later crashed are excluded from the eventual-delivery check:
  /// a fast-path commit ack can race the crash of the only node that knew
  /// the outcome (GenPaxos acks before the sequencer learns).
  std::unordered_map<core::CommandId, NodeId> committed_;
  std::unordered_set<NodeId> ever_crashed_;
  /// First-decided command per slot key ⟨object, instance⟩ with the node
  /// that reported it (for diagnostics).
  struct SlotDecision {
    core::CommandId cmd;
    NodeId first_node;
  };
  std::map<std::pair<core::ObjectId, core::Instance>, SlotDecision> decisions_;
  /// Highest ownership epoch observed per (node, object).
  std::map<std::pair<NodeId, core::ObjectId>, core::Epoch> epochs_;
  /// Acquiring node per (object, epoch).
  std::map<std::pair<core::ObjectId, core::Epoch>, NodeId> acquirers_;
  /// Per-node delivered C-structs rebuilt from deliver events.
  std::vector<core::CStruct> delivered_;
  std::uint64_t decisions_seen_ = 0;
  std::uint64_t deliveries_seen_ = 0;
  bool finalized_ = false;
};

}  // namespace m2::fuzz
