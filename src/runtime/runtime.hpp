#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/cstruct.hpp"
#include "core/observer.hpp"
#include "core/owner_map.hpp"
#include "runtime/clock.hpp"
#include "runtime/node.hpp"
#include "runtime/transport.hpp"
#include "stats/histogram.hpp"
#include "stats/metrics.hpp"

namespace m2::runtime {

/// Configuration of one real-clock cluster run. The protocol/cluster/seed
/// knobs mean exactly what they mean in harness::ExperimentConfig; this is
/// the subset that survives without the simulated network and client model.
struct RuntimeConfig {
  core::Protocol protocol = core::Protocol::kM2Paxos;
  core::ClusterConfig cluster;
  std::uint64_t seed = 1;
  bool enable_failure_detector = false;
  /// Collect per-node delivered C-structs for consistency auditing
  /// (memory-heavy; tests only).
  bool audit = false;
  /// Install this map as the initial M²Paxos ownership on every node
  /// (steady-state evaluation, like the harness' preassign_ownership).
  bool preassign_ownership = true;
  core::OwnerMap owner_map = core::OwnerMap::modulo(1);
  /// Optional trace observer (same interface the simulator harness feeds —
  /// the SafetyAuditor plugs in here). Called from node threads and from
  /// whichever threads drive propose()/crash()/recover(), concurrently:
  /// the observer must be thread-safe (fuzz::SafetyAuditor locks its
  /// callbacks). Must outlive the Runtime.
  core::ClusterObserver* observer = nullptr;
};

/// A real-clock consensus cluster: the runtime counterpart of
/// harness::Cluster. Owns one OS thread per local node (each driving an
/// unmodified core::Replica through runtime::Node), a shared monotonic
/// clock, and a Transport that carries fully serialized messages between
/// nodes — in-process for the loopback form, TCP for multi-process runs.
///
/// Threading contract for callers: propose()/crash()/recover() and the
/// await/counter accessors are safe from any thread. cstructs(),
/// audit_consistency() and merged_metrics() read node-thread state and are
/// valid only after stop() (thread joins publish the state).
class Runtime final : public NodeCallbacks {
 public:
  /// All-local cluster over the in-process loopback transport.
  explicit Runtime(RuntimeConfig cfg);

  /// Shared-transport form: serve `local_nodes` of the cluster over
  /// `transport` (m2node uses this with TcpTransport, one local node per
  /// process). `transport->attach` is called here; do not pre-attach.
  Runtime(RuntimeConfig cfg, std::unique_ptr<Transport> transport,
          std::vector<NodeId> local_nodes);

  ~Runtime() override;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Starts transport I/O and every local node thread. Returns false (and
  /// sets `*error` when given) if the transport failed to come up.
  bool start(std::string* error = nullptr);

  /// Stops node threads (joining them), then the transport. Idempotent;
  /// the destructor calls it.
  void stop();

  // --- drivers (any thread) --------------------------------------------

  /// Injects `c` at `node`, tracking it for commit-latency measurement.
  /// `node` must be local.
  void propose(NodeId node, core::Command c);
  void crash(NodeId node);
  void recover(NodeId node);

  /// Blocks until `target` tracked proposals have committed or `timeout`
  /// (real time) elapses; true on target reached.
  bool await_committed(std::uint64_t target, core::Time timeout);

  std::uint64_t committed() const;
  /// Non-noop commands node `node` has delivered (applied).
  std::uint64_t delivered(NodeId node) const;
  stats::Histogram commit_latency() const;

  /// Zeroes the committed counter, latency histogram, transport counters
  /// and (asynchronously, on each node's own thread) the per-node metrics
  /// registries — so a measurement window excludes warmup, like
  /// harness::Cluster::reset_measurement.
  void reset_measurement();

  // --- post-stop inspection --------------------------------------------

  /// Per-node delivered C-structs (empty unless cfg.audit). Post-stop.
  const std::vector<core::CStruct>& cstructs() const { return cstructs_; }

  /// Audits the collected C-structs: total order for Multi-Paxos,
  /// pairwise conflict-order consistency for the generalized protocols.
  /// Post-stop.
  core::ConsistencyReport audit_consistency() const;

  /// Union of the per-node metrics registries. Post-stop (or quiesced).
  stats::MetricsRegistry merged_metrics() const;

  const TransportCounters& transport_counters() const {
    return transport_->counters();
  }
  const core::Clock& clock() const { return clock_; }
  int n_nodes() const { return cfg_.cluster.n_nodes; }
  bool is_local(NodeId node) const {
    return node < nodes_.size() && nodes_[node] != nullptr;
  }

  // --- NodeCallbacks (node threads) ------------------------------------
  void node_deliver(NodeId node, const core::Command& c) override;
  void node_committed(NodeId node, const core::Command& c) override;
  void node_decided(NodeId node, core::ObjectId obj, core::Instance inst,
                    const core::Command& c) override;
  void node_ownership(NodeId node, core::ObjectId obj, core::Epoch epoch,
                      NodeId owner, bool acquired) override;

 private:
  void build_nodes(const std::vector<NodeId>& local_nodes);
  Node::Setup make_setup() const;

  RuntimeConfig cfg_;
  MonotonicClock clock_;
  std::unique_ptr<Transport> transport_;
  std::vector<std::unique_ptr<stats::MetricsRegistry>> metrics_;  // per node
  std::vector<std::unique_ptr<Node>> nodes_;  // nullptr = served elsewhere

  // Delivery accounting. Counters are atomics so drivers can poll them
  // live; each C-struct is written only by its own node's thread and read
  // after stop() (the join is the happens-before edge).
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> delivered_;
  std::vector<core::CStruct> cstructs_;

  // Commit tracking shared by driver threads and node threads. Sharded by
  // proposing node so concurrent committers don't serialize on one mutex,
  // and so the global count is a lock-free increment: node_committed runs
  // once per commit on every node's hot path.
  struct CommitShard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, core::Time> propose_times;  // by cmd id
    stats::Histogram latency;  // ns, proposer-observed
  };
  static constexpr std::size_t kCommitShards = 16;  // power of two

  CommitShard& shard_for(core::CommandId id) {
    return commit_shards_[id.proposer() & (kCommitShards - 1)];
  }

  std::array<CommitShard, kCommitShards> commit_shards_;
  std::atomic<std::uint64_t> committed_total_{0};

  // Waiter handshake: await_committed registers its target under wait_mu_
  // and mirrors the smallest outstanding target into min_target_, so
  // committers skip the condvar (and its lock) entirely until some waiter
  // could actually be released. Both sides touch committed_total_ and
  // min_target_ with seq_cst so the register/increment race always ends
  // in either a woken waiter or a failed predicate check.
  mutable std::mutex wait_mu_;
  std::condition_variable committed_cv_;
  std::vector<std::uint64_t> waiter_targets_;  // guarded by wait_mu_
  std::atomic<std::uint64_t> min_target_{UINT64_MAX};

  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace m2::runtime
