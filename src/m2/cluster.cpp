#include "m2/cluster.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "harness/cluster.hpp"
#include "m2/runtime_config.hpp"
#include "runtime/tcp_transport.hpp"
#include "workload/synthetic.hpp"

namespace m2 {

namespace {

/// Per-node command-id minting shared by both backends; atomic so the
/// threaded backends can propose from several driver threads.
class IdMinter {
 public:
  explicit IdMinter(int n) : seqs_(static_cast<std::size_t>(n)) {
    for (auto& s : seqs_) s.store(0, std::memory_order_relaxed);
  }
  CommandId next(NodeId node) {
    const std::uint64_t seq =
        seqs_.at(node).fetch_add(1, std::memory_order_relaxed) + 1;
    return CommandId::make(node, seq);
  }

 private:
  std::vector<std::atomic<std::uint64_t>> seqs_;
};

/// Backend::kSim — wraps harness::Cluster; await_committed advances
/// virtual time, so a "2 second" timeout costs however long the events in
/// it take to simulate (usually milliseconds of wall time).
class SimCluster final : public Cluster {
 public:
  explicit SimCluster(const Config& cfg)
      : cfg_(cfg),
        workload_({cfg.nodes, cfg.objects_per_node, /*locality=*/1.0,
                   /*complex_fraction=*/0.0, /*payload_bytes=*/16, cfg.seed}),
        minter_(cfg.nodes) {
    harness::ExperimentConfig exp;
    exp.protocol = cfg.protocol;
    exp.cluster = cfg.tuning;
    exp.cluster.n_nodes = cfg.nodes;
    exp.seed = cfg.seed;
    exp.enable_failure_detector = cfg.enable_failure_detector;
    exp.preassign_ownership = cfg.preassign_ownership;
    exp.audit = cfg.audit;
    cluster_ = std::make_unique<harness::Cluster>(exp, workload_);
    cluster_->set_measuring(true);
  }

  int nodes() const override { return cfg_.nodes; }
  Protocol protocol() const override { return cfg_.protocol; }

  using Cluster::propose;
  void propose(NodeId node, Command c) override {
    cluster_->propose(node, std::move(c));
  }
  CommandId next_id(NodeId node) override { return minter_.next(node); }

  bool await_committed(std::uint64_t target, Time timeout) override {
    Time waited = 0;
    while (cluster_->committed_count() < target && waited < timeout) {
      const Time step = std::min<Time>(kMillisecond, timeout - waited);
      cluster_->run_for(step);
      waited += step;
    }
    return cluster_->committed_count() >= target;
  }

  std::uint64_t committed() const override {
    return cluster_->committed_count();
  }
  std::uint64_t delivered(NodeId node) const override {
    return cluster_->delivered_at(node);
  }
  stats::Histogram commit_latency() const override {
    return cluster_->latency();
  }
  stats::MetricsRegistry metrics() const override {
    return cluster_->merged_metrics();
  }

  void crash(NodeId node) override { cluster_->crash(node); }
  void recover(NodeId node) override { cluster_->recover(node); }

  const std::vector<core::CStruct>& cstructs() const override {
    return cluster_->cstructs();
  }
  core::ConsistencyReport audit() const override {
    return cluster_->audit_consistency();
  }

  void stop() override {}  // the simulation stops when not being driven

 private:
  Config cfg_;
  wl::SyntheticWorkload workload_;
  IdMinter minter_;
  std::unique_ptr<harness::Cluster> cluster_;
};

/// Backend::kLoopback / kTcp — wraps runtime::Runtime.
class RuntimeCluster final : public Cluster {
 public:
  RuntimeCluster(const Config& cfg, std::unique_ptr<runtime::Runtime> rt)
      : cfg_(cfg), minter_(rt->n_nodes()), runtime_(std::move(rt)) {}

  ~RuntimeCluster() override { stop(); }

  int nodes() const override { return runtime_->n_nodes(); }
  Protocol protocol() const override { return cfg_.protocol; }

  using Cluster::propose;
  void propose(NodeId node, Command c) override {
    runtime_->propose(node, std::move(c));
  }
  CommandId next_id(NodeId node) override { return minter_.next(node); }

  bool await_committed(std::uint64_t target, Time timeout) override {
    return runtime_->await_committed(target, timeout);
  }

  std::uint64_t committed() const override { return runtime_->committed(); }
  std::uint64_t delivered(NodeId node) const override {
    return runtime_->delivered(node);
  }
  stats::Histogram commit_latency() const override {
    return runtime_->commit_latency();
  }
  stats::MetricsRegistry metrics() const override {
    return runtime_->merged_metrics();
  }

  void crash(NodeId node) override { runtime_->crash(node); }
  void recover(NodeId node) override { runtime_->recover(node); }

  const std::vector<core::CStruct>& cstructs() const override {
    return runtime_->cstructs();
  }
  core::ConsistencyReport audit() const override {
    return runtime_->audit_consistency();
  }

  void stop() override { runtime_->stop(); }

 private:
  Config cfg_;
  IdMinter minter_;
  std::unique_ptr<runtime::Runtime> runtime_;
};

}  // namespace

runtime::RuntimeConfig to_runtime_config(const Config& cfg) {
  const int n = cfg.backend == Backend::kTcp
                    ? static_cast<int>(cfg.addresses.size())
                    : cfg.nodes;
  runtime::RuntimeConfig rt;
  rt.protocol = cfg.protocol;
  rt.cluster = cfg.tuning;
  rt.cluster.n_nodes = n;
  rt.seed = cfg.seed;
  rt.enable_failure_detector = cfg.enable_failure_detector;
  rt.audit = cfg.audit;
  rt.preassign_ownership = cfg.preassign_ownership;
  rt.owner_map = cfg.objects_per_node > 0
                     ? core::OwnerMap::divide(cfg.objects_per_node)
                     : core::OwnerMap::modulo(static_cast<std::uint64_t>(n));
  return rt;
}

CommandId Cluster::propose(NodeId node, ObjectList objects,
                           std::uint32_t payload_bytes) {
  const CommandId id = next_id(node);
  propose(node, Command(id, std::move(objects), payload_bytes));
  return id;
}

std::string Config::validate() const {
  if (backend == Backend::kTcp) {
    if (addresses.empty()) return "kTcp needs a non-empty addresses list";
    if (local_nodes.empty())
      return "kTcp needs local_nodes (which nodes this process serves)";
    for (const NodeId n : local_nodes) {
      if (n >= addresses.size()) return "local_nodes entry out of range";
    }
    for (const auto& a : addresses) {
      if (a.host.empty() || a.port == 0)
        return "every address needs a host and a non-zero port";
    }
  } else {
    if (nodes <= 0) return "cluster needs at least one node";
    if (!addresses.empty() || !local_nodes.empty())
      return "addresses/local_nodes are only meaningful for Backend::kTcp";
  }
  if (preassign_ownership && objects_per_node == 0 &&
      protocol == core::Protocol::kM2Paxos && backend == Backend::kSim)
    return "preassigned ownership needs objects_per_node > 0";
  if (!tuning.batching.valid()) return "invalid batching configuration";
  if (!transport.valid()) return "invalid transport configuration";
  return {};
}

std::unique_ptr<Cluster> ClusterBuilder::build(std::string* error) const {
  if (std::string problem = cfg_.validate(); !problem.empty()) {
    if (error != nullptr) *error = std::move(problem);
    return nullptr;
  }
  switch (cfg_.backend) {
    case Backend::kSim:
      return std::make_unique<SimCluster>(cfg_);
    case Backend::kLoopback: {
      auto rt = std::make_unique<runtime::Runtime>(to_runtime_config(cfg_));
      if (!rt->start(error)) return nullptr;
      return std::make_unique<RuntimeCluster>(cfg_, std::move(rt));
    }
    case Backend::kTcp: {
      auto rt = std::make_unique<runtime::Runtime>(
          to_runtime_config(cfg_),
          std::make_unique<runtime::TcpTransport>(cfg_.addresses,
                                                  cfg_.transport),
          cfg_.local_nodes);
      if (!rt->start(error)) return nullptr;
      return std::make_unique<RuntimeCluster>(cfg_, std::move(rt));
    }
  }
  if (error != nullptr) *error = "unknown backend";
  return nullptr;
}

}  // namespace m2
