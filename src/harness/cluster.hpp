#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cstruct.hpp"
#include "core/observer.hpp"
#include "core/pool.hpp"
#include "core/replica.hpp"
#include "net/network.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "stats/histogram.hpp"
#include "stats/metrics.hpp"
#include "trace/trace.hpp"
#include "workload/workload.hpp"

namespace m2::harness {

/// Client-load shape: open-loop clients per node with a think time and a
/// per-node in-flight cap, exactly the paper's load-injection scheme
/// (§VI: "we injected commands into an open-loop using up to 64 client
/// threads at each node... we limit the number of commands still
/// in-flight... when it is reached, a node will skip issuing").
struct LoadConfig {
  int clients_per_node = 64;
  sim::Time think_time = 0;
  /// Lower bound between issues of one client (prevents zero-delay spins).
  sim::Time min_issue_gap = 2 * sim::kMicrosecond;
  int max_inflight_per_node = 64;
};

struct ExperimentConfig {
  core::Protocol protocol = core::Protocol::kM2Paxos;
  core::ClusterConfig cluster;
  net::NetworkConfig network;
  LoadConfig load;
  sim::Time warmup = 50 * sim::kMillisecond;
  sim::Time measure = 200 * sim::kMillisecond;
  std::uint64_t seed = 1;
  bool enable_failure_detector = false;
  /// Install the workload's partition map as the initial M²Paxos ownership
  /// (steady-state evaluation); turn off to measure cold-start acquisition.
  bool preassign_ownership = true;
  /// Collect per-node C-structs for consistency auditing (memory-heavy;
  /// tests only).
  bool audit = false;
};

struct ExperimentResult {
  double committed_per_sec = 0;   // system-wide ordered commands / second
  std::uint64_t committed = 0;
  std::uint64_t proposals = 0;
  std::uint64_t skipped = 0;      // client issues skipped at the cap
  stats::Histogram commit_latency;  // ns, measured at proposers
  net::TrafficCounters traffic;   // during the measurement window
  std::map<std::string, std::uint64_t> bytes_by_kind;
  double bytes_per_command = 0;
  double avg_cpu_utilization = 0;  // busy fraction across nodes/cores
  /// Protocol/sim metrics merged across nodes (counters and gauges sum,
  /// histograms merge); empty when Config::Metrics is disabled.
  stats::MetricsRegistry metrics;
};

class ClientSet;

/// Observer of the cluster's protocol events (see core/observer.hpp),
/// invoked synchronously from the simulation.
using core::ClusterObserver;

/// Simulated cluster: N protocol replicas over the network substrate, one
/// k-core CPU model per node, plus open-loop clients. Also the Context
/// implementation replicas run against.
class Cluster {
 public:
  Cluster(ExperimentConfig cfg, wl::Workload& workload);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Full standard experiment: warmup, measurement window, collection.
  ExperimentResult run();

  // --- manual control (tests and ablations) --------------------------
  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return *network_; }
  core::Replica& replica(NodeId n) { return *replicas_[n]; }
  template <typename T>
  T& replica_as(NodeId n) {
    return static_cast<T&>(*replicas_[n]);
  }
  int n_nodes() const { return cfg_.cluster.n_nodes; }
  const ExperimentConfig& config() const { return cfg_; }

  /// Proposes `c` at node `n` and tracks it for latency accounting.
  void propose(NodeId n, const core::Command& c);
  void crash(NodeId n);
  void recover(NodeId n);
  /// Advances simulated time by `d`.
  void run_for(sim::Time d);
  /// Runs until the event queue drains (or `max_events`).
  void run_idle(std::uint64_t max_events = 50'000'000);

  /// Starts/stops the open-loop clients manually.
  void start_clients();
  void stop_clients();

  /// Enables commit counting/latency recording outside run() (tests).
  void set_measuring(bool on) { measuring_ = on; }

  // --- observation -----------------------------------------------------
  std::uint64_t committed_count() const { return committed_; }
  std::uint64_t inflight(NodeId n) const { return inflight_[n]; }
  const stats::Histogram& latency() const { return latency_; }
  const std::vector<core::CStruct>& cstructs() const { return cstructs_; }
  core::ConsistencyReport audit_consistency() const;
  /// Delivered (appended) non-noop commands at node n.
  std::uint64_t delivered_at(NodeId n) const { return delivered_[n]; }
  sim::NodeCpu& cpu(NodeId n) { return *cpus_[n]; }

  /// Per-node registry; nullptr when Config::Metrics is disabled.
  stats::MetricsRegistry* node_metrics(NodeId n) {
    return metrics_.empty() ? nullptr : metrics_[n].get();
  }
  /// Cluster-wide view: sum of counters/gauges, merged histograms, with the
  /// sim-layer gauges (event-queue depth, in-flight commands) snapshotted.
  stats::MetricsRegistry merged_metrics() const;

  /// Flight recorder: enable, then dump on failure (tests).
  trace::Recorder& recorder() { return recorder_; }

  /// Installs (or clears, with nullptr) the event observer. Not owned;
  /// must outlive the cluster or be cleared before destruction.
  void set_observer(ClusterObserver* observer) { observer_ = observer; }

 private:
  friend class NodeContext;
  friend class ClientSet;

  void wire_node(NodeId n);
  void on_deliver(NodeId n, const core::Command& c);
  void on_committed(NodeId n, const core::Command& c);
  void on_decided(NodeId n, core::ObjectId l, core::Instance in,
                  const core::Command& c);
  void on_ownership(NodeId n, core::ObjectId l, core::Epoch e, NodeId owner,
                    bool acquired);
  void reset_measurement();

  ExperimentConfig cfg_;
  wl::Workload& workload_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<sim::NodeCpu>> cpus_;
  /// Created before contexts_: each NodeContext hands its node's registry
  /// to the replica at construction. Empty when metrics are disabled.
  std::vector<std::unique_ptr<stats::MetricsRegistry>> metrics_;
  std::vector<std::unique_ptr<core::Context>> contexts_;
  std::vector<std::unique_ptr<core::Replica>> replicas_;
  std::unique_ptr<ClientSet> clients_;

  // Accounting.
  bool measuring_ = false;
  std::uint64_t committed_ = 0;
  std::uint64_t proposals_ = 0;
  std::uint64_t skipped_ = 0;
  stats::Histogram latency_;
  std::vector<std::uint64_t> inflight_;
  std::vector<std::uint64_t> delivered_;
  /// Pooled: one insert/erase per tracked proposal — steady-state churn
  /// must recycle, not hit the heap (the zero-alloc bench counts it).
  core::PoolRef latency_pool_ = core::make_pool();
  std::unordered_map<core::CommandId, sim::Time, std::hash<core::CommandId>,
                     std::equal_to<core::CommandId>,
                     core::PoolAlloc<std::pair<const core::CommandId,
                                               sim::Time>>>
      propose_times_{256, core::PoolAlloc<char>(latency_pool_)};
  std::vector<core::CStruct> cstructs_;
  trace::Recorder recorder_;
  ClusterObserver* observer_ = nullptr;
};

/// Constructs the replica implementing `protocol` (factory shared by the
/// harness, tests, and examples).
std::unique_ptr<core::Replica> make_replica(core::Protocol protocol, NodeId id,
                                            const core::ClusterConfig& cfg,
                                            core::Context& ctx);

}  // namespace m2::harness
