#include "harness/cluster.hpp"

#include <cassert>

#include "epaxos/epaxos.hpp"
#include "genpaxos/genpaxos.hpp"
#include "harness/client.hpp"
#include "m2paxos/m2paxos.hpp"
#include "multipaxos/multipaxos.hpp"

namespace m2::harness {

std::unique_ptr<core::Replica> make_replica(core::Protocol protocol, NodeId id,
                                            const core::ClusterConfig& cfg,
                                            core::Context& ctx) {
  switch (protocol) {
    case core::Protocol::kMultiPaxos:
      return std::make_unique<mp::MultiPaxosReplica>(id, cfg, ctx);
    case core::Protocol::kGenPaxos:
      return std::make_unique<gp::GenPaxosReplica>(id, cfg, ctx);
    case core::Protocol::kEPaxos:
      return std::make_unique<ep::EPaxosReplica>(id, cfg, ctx);
    case core::Protocol::kM2Paxos:
      return std::make_unique<m2p::M2PaxosReplica>(id, cfg, ctx);
  }
  return nullptr;
}

/// Context implementation bridging one replica to the DES substrates.
class NodeContext final : public core::Context {
 public:
  NodeContext(Cluster& cluster, NodeId id, stats::MetricsRegistry* metrics)
      : cluster_(cluster), id_(id), metrics_(metrics),
        rng_(cluster.sim_.rng().split()) {}

  stats::MetricsRegistry* metrics() override { return metrics_; }

  sim::Time now() const override { return cluster_.sim_.now(); }
  sim::Rng& rng() override { return rng_; }

  void send(NodeId to, net::PayloadPtr payload) override {
    charge_tx(payload->wire_size());
    cluster_.network_->send(id_, to, std::move(payload));
  }

  void broadcast(net::PayloadPtr payload, bool include_self) override {
    const int n = cluster_.n_nodes();
    const int recipients = include_self ? n : n - 1;
    charge_tx(payload->wire_size() * static_cast<std::size_t>(recipients));
    cluster_.network_->broadcast(id_, std::move(payload), include_self);
  }

  sim::EventId set_timer(sim::Time delay, sim::InlineFn fn) override {
    return cluster_.sim_.after(delay, std::move(fn));
  }
  void cancel_timer(sim::EventId id) override { cluster_.sim_.cancel(id); }

  void deliver(const core::Command& c) override { cluster_.on_deliver(id_, c); }
  void committed(const core::Command& c) override {
    cluster_.on_committed(id_, c);
  }
  void decided(core::ObjectId l, core::Instance in,
               const core::Command& c) override {
    cluster_.on_decided(id_, l, in, c);
  }
  void ownership(core::ObjectId l, core::Epoch e, NodeId owner,
                 bool acquired) override {
    cluster_.on_ownership(id_, l, e, owner, acquired);
  }

 private:
  void charge_tx(std::size_t bytes) {
    // Marshalling/socket work parallelizes across cores; it loads the
    // sender's CPU without delaying the message (see DESIGN.md §5).
    // charge() — not submit() — so no event is queued for the no-op
    // completion.
    cluster_.cpus_[id_]->charge(0, core::tx_cost(bytes));
  }

  Cluster& cluster_;
  NodeId id_;
  stats::MetricsRegistry* metrics_;
  sim::Rng rng_;
};

Cluster::Cluster(ExperimentConfig cfg, wl::Workload& workload)
    : cfg_(cfg), workload_(workload), sim_(cfg.seed) {
  cfg_.cluster.validate();
  const int n = cfg_.cluster.n_nodes;
  network_ = std::make_unique<net::Network>(sim_, cfg_.network, n);
  inflight_.assign(static_cast<std::size_t>(n), 0);
  delivered_.assign(static_cast<std::size_t>(n), 0);
  cstructs_.resize(static_cast<std::size_t>(n));

  if (cfg_.cluster.metrics.enabled) {
    for (int i = 0; i < n; ++i)
      metrics_.push_back(std::make_unique<stats::MetricsRegistry>());
  }
  for (NodeId i = 0; i < static_cast<NodeId>(n); ++i) {
    contexts_.push_back(
        std::make_unique<NodeContext>(*this, i, node_metrics(i)));
    replicas_.push_back(
        make_replica(cfg_.protocol, i, cfg_.cluster, *contexts_.back()));
    wire_node(i);
  }

  if (cfg_.protocol == core::Protocol::kM2Paxos && cfg_.preassign_ownership) {
    const core::OwnerMap map = workload.owner_map();
    for (auto& r : replicas_)
      static_cast<m2p::M2PaxosReplica&>(*r).set_default_owner(map);
  }
  if (cfg_.protocol == core::Protocol::kMultiPaxos) {
    for (auto& r : replicas_) {
      static_cast<mp::MultiPaxosReplica&>(*r).start(
          cfg_.enable_failure_detector);
    }
  }

  clients_ = std::make_unique<ClientSet>(*this);
}

Cluster::~Cluster() = default;

void Cluster::wire_node(NodeId n) {
  cpus_.push_back(
      std::make_unique<sim::NodeCpu>(sim_, cfg_.cluster.cores_per_node));
  network_->set_delivery(n, [this, n](const net::Envelope& env) {
    // Route through the node's CPU: the handler runs when a core frees up.
    const core::RxCost cost = replicas_[n]->rx_cost(*env.payload);
    cpus_[n]->submit(cost.serial, cost.parallel,
                     [this, n, env] { replicas_[n]->on_message(env.from, *env.payload); });
  });
}

void Cluster::propose(NodeId n, const core::Command& c) {
  ++proposals_;
  ++inflight_[n];
  propose_times_[c.id] = sim_.now();
  if (observer_ != nullptr) observer_->on_propose(sim_.now(), n, c);
  replicas_[n]->propose(c);
}

void Cluster::on_committed(NodeId reporter, const core::Command& c) {
  if (observer_ != nullptr) observer_->on_committed(sim_.now(), reporter, c);
  auto it = propose_times_.find(c.id);
  if (it == propose_times_.end()) return;  // not a tracked proposal
  if (measuring_) {
    ++committed_;
    latency_.record(sim_.now() - it->second);
  }
  propose_times_.erase(it);
  // A forwarded command's commit may be reported by the owner node first;
  // the in-flight slot belongs to the node that proposed it.
  const NodeId proposer = c.id.proposer();
  if (proposer < inflight_.size() && inflight_[proposer] > 0)
    --inflight_[proposer];
}

void Cluster::on_deliver(NodeId n, const core::Command& c) {
  if (c.noop) return;
  ++delivered_[n];
  if (cfg_.audit) cstructs_[n].append(c);
  if (observer_ != nullptr) observer_->on_deliver(sim_.now(), n, c);
}

void Cluster::on_decided(NodeId n, core::ObjectId l, core::Instance in,
                         const core::Command& c) {
  if (observer_ != nullptr) observer_->on_decided(sim_.now(), n, l, in, c);
}

void Cluster::on_ownership(NodeId n, core::ObjectId l, core::Epoch e,
                           NodeId owner, bool acquired) {
  if (observer_ != nullptr)
    observer_->on_ownership(sim_.now(), n, l, e, owner, acquired);
}

void Cluster::crash(NodeId n) {
  if (observer_ != nullptr) observer_->on_crash(sim_.now(), n);
  network_->set_crashed(n, true);
  replicas_[n]->on_crash();
}

void Cluster::recover(NodeId n) {
  if (observer_ != nullptr) observer_->on_recover(sim_.now(), n);
  network_->set_crashed(n, false);
  replicas_[n]->on_recover();
}

void Cluster::run_for(sim::Time d) { sim_.run_until(sim_.now() + d); }

void Cluster::run_idle(std::uint64_t max_events) { sim_.run(max_events); }

void Cluster::start_clients() { clients_->start(); }
void Cluster::stop_clients() { clients_->stop(); }

core::ConsistencyReport Cluster::audit_consistency() const {
  return core::check_pairwise_consistency(cstructs_);
}

void Cluster::reset_measurement() {
  committed_ = 0;
  skipped_ = 0;
  latency_.reset();
  network_->reset_counters();
  // Metrics cover the measurement window only, like every other counter.
  for (auto& m : metrics_) m->reset();
}

stats::MetricsRegistry Cluster::merged_metrics() const {
  stats::MetricsRegistry merged;
  for (const auto& m : metrics_) merged.merge(*m);
  if (!metrics_.empty()) {
    merged.set(stats::Gauge::kEventQueueDepth,
               static_cast<std::int64_t>(sim_.queue_depth()));
    std::int64_t pending = 0;
    for (const auto in : inflight_) pending += static_cast<std::int64_t>(in);
    merged.set(stats::Gauge::kPendingCommands, pending);
  }
  return merged;
}

ExperimentResult Cluster::run() {
  start_clients();
  sim_.run_until(cfg_.warmup);
  reset_measurement();
  measuring_ = true;
  sim_.run_until(cfg_.warmup + cfg_.measure);
  measuring_ = false;
  stop_clients();

  ExperimentResult r;
  r.committed = committed_;
  r.proposals = proposals_;
  r.skipped = skipped_;
  r.committed_per_sec =
      static_cast<double>(committed_) / sim::to_seconds(cfg_.measure);
  r.commit_latency = latency_;
  r.traffic = network_->total_counters();
  r.bytes_by_kind = network_->bytes_by_kind();
  r.bytes_per_command =
      committed_ == 0 ? 0
                      : static_cast<double>(r.traffic.bytes_sent) /
                            static_cast<double>(committed_);
  double busy = 0;
  for (const auto& cpu : cpus_)
    busy += sim::to_seconds(cpu->busy_time()) /
            (sim::to_seconds(sim_.now()) * cpu->cores());
  r.avg_cpu_utilization = busy / static_cast<double>(cpus_.size());
  r.metrics = merged_metrics();
  return r;
}

}  // namespace m2::harness
