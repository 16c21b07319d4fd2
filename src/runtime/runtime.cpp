#include "runtime/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "m2paxos/m2paxos.hpp"
#include "multipaxos/multipaxos.hpp"
#include "runtime/tcp_transport.hpp"

namespace m2::runtime {

Runtime::Runtime(RuntimeConfig cfg)
    : Runtime(std::move(cfg), nullptr, {}) {}

Runtime::Runtime(RuntimeConfig cfg, std::unique_ptr<Transport> transport,
                 std::vector<NodeId> local_nodes)
    : cfg_(std::move(cfg)), transport_(std::move(transport)) {
  const int n = cfg_.cluster.n_nodes;
  assert(n > 0);
  if (transport_ == nullptr) {
    transport_ = std::make_unique<LoopbackTransport>(n);
    local_nodes.clear();
    for (NodeId i = 0; i < static_cast<NodeId>(n); ++i)
      local_nodes.push_back(i);
  }
  build_nodes(local_nodes);
}

Runtime::~Runtime() { stop(); }

Node::Setup Runtime::make_setup() const {
  // Copies, not `this`: the hook runs on node threads during start.
  const core::Protocol protocol = cfg_.protocol;
  const bool preassign = cfg_.preassign_ownership;
  const core::OwnerMap map = cfg_.owner_map;
  const bool fd = cfg_.enable_failure_detector;
  return [protocol, preassign, map, fd](core::Replica& r) {
    if (protocol == core::Protocol::kM2Paxos && preassign && map.valid())
      static_cast<m2p::M2PaxosReplica&>(r).set_default_owner(map);
    if (protocol == core::Protocol::kMultiPaxos)
      static_cast<mp::MultiPaxosReplica&>(r).start(fd);
  };
}

void Runtime::build_nodes(const std::vector<NodeId>& local_nodes) {
  const auto n = static_cast<std::size_t>(cfg_.cluster.n_nodes);
  nodes_.resize(n);
  metrics_.resize(n);
  cstructs_.resize(n);
  delivered_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    delivered_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));

  for (const NodeId id : local_nodes) {
    assert(id < n && nodes_[id] == nullptr);
    if (cfg_.cluster.metrics.enabled)
      metrics_[id] = std::make_unique<stats::MetricsRegistry>();
    nodes_[id] = std::make_unique<Node>(
        id, cfg_.protocol, cfg_.cluster, *transport_, clock_, cfg_.seed,
        *this, metrics_[id].get(), make_setup());
    transport_->attach(id, &nodes_[id]->inbox());
  }
}

bool Runtime::start(std::string* error) {
  if (started_) return true;
  started_ = true;
  transport_->start();
  if (const std::string err = transport_->start_error(); !err.empty()) {
    if (error != nullptr) *error = err;
    transport_->stop();
    return false;
  }
  for (auto& node : nodes_) {
    if (node != nullptr) node->start();
  }
  return true;
}

void Runtime::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  for (auto& node : nodes_) {
    if (node != nullptr) node->stop();
  }
  transport_->stop();
}

void Runtime::propose(NodeId node, core::Command c) {
  assert(is_local(node));
  {
    CommitShard& shard = shard_for(c.id);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.propose_times.emplace(c.id.value, clock_.now());
  }
  if (cfg_.observer != nullptr)
    cfg_.observer->on_propose(clock_.now(), node, c);
  nodes_[node]->propose(std::move(c));
}

void Runtime::crash(NodeId node) {
  assert(is_local(node));
  if (cfg_.observer != nullptr) cfg_.observer->on_crash(clock_.now(), node);
  nodes_[node]->crash();
}

void Runtime::recover(NodeId node) {
  assert(is_local(node));
  if (cfg_.observer != nullptr) cfg_.observer->on_recover(clock_.now(), node);
  nodes_[node]->recover();
}

bool Runtime::await_committed(std::uint64_t target, core::Time timeout) {
  if (committed_total_.load(std::memory_order_seq_cst) >= target) return true;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(timeout);
  std::unique_lock<std::mutex> lock(wait_mu_);
  waiter_targets_.push_back(target);
  if (target < min_target_.load(std::memory_order_relaxed))
    min_target_.store(target, std::memory_order_seq_cst);
  const bool ok = committed_cv_.wait_until(lock, deadline, [&] {
    return committed_total_.load(std::memory_order_seq_cst) >= target;
  });
  waiter_targets_.erase(
      std::find(waiter_targets_.begin(), waiter_targets_.end(), target));
  std::uint64_t next = UINT64_MAX;
  for (const std::uint64_t t : waiter_targets_) next = std::min(next, t);
  min_target_.store(next, std::memory_order_seq_cst);
  return ok;
}

std::uint64_t Runtime::committed() const {
  return committed_total_.load(std::memory_order_seq_cst);
}

std::uint64_t Runtime::delivered(NodeId node) const {
  return delivered_.at(node)->load(std::memory_order_relaxed);
}

stats::Histogram Runtime::commit_latency() const {
  stats::Histogram merged;
  for (const CommitShard& shard : commit_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    merged.merge(shard.latency);
  }
  return merged;
}

void Runtime::reset_measurement() {
  committed_total_.store(0, std::memory_order_seq_cst);
  for (CommitShard& shard : commit_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.latency.reset();
  }
  // Registries belong to their node's thread; reset them there.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == nullptr || metrics_[i] == nullptr) continue;
    stats::MetricsRegistry* reg = metrics_[i].get();
    nodes_[i]->run_on_node(core::InlineFn([reg] { reg->reset(); }));
  }
}

core::ConsistencyReport Runtime::audit_consistency() const {
  if (cfg_.protocol == core::Protocol::kMultiPaxos)
    return core::check_total_order(cstructs_);
  return core::check_pairwise_consistency(cstructs_);
}

stats::MetricsRegistry Runtime::merged_metrics() const {
  stats::MetricsRegistry merged;
  for (const auto& m : metrics_) {
    if (m != nullptr) merged.merge(*m);
  }
  // Transport-level counters (drops, connection lifecycle, injected chaos)
  // live outside the node registries; surface them under the same roof.
  transport_->fold_metrics(merged);
  return merged;
}

void Runtime::node_deliver(NodeId node, const core::Command& c) {
  if (c.noop) return;
  delivered_.at(node)->fetch_add(1, std::memory_order_relaxed);
  if (cfg_.audit) cstructs_[node].append(c);
  if (cfg_.observer != nullptr)
    cfg_.observer->on_deliver(clock_.now(), node, c);
}

void Runtime::node_decided(NodeId node, core::ObjectId obj,
                           core::Instance inst, const core::Command& c) {
  if (cfg_.observer != nullptr)
    cfg_.observer->on_decided(clock_.now(), node, obj, inst, c);
}

void Runtime::node_ownership(NodeId node, core::ObjectId obj,
                             core::Epoch epoch, NodeId owner, bool acquired) {
  if (cfg_.observer != nullptr)
    cfg_.observer->on_ownership(clock_.now(), node, obj, epoch, owner,
                                acquired);
}

void Runtime::node_committed(NodeId node, const core::Command& c) {
  if (cfg_.observer != nullptr)
    cfg_.observer->on_committed(clock_.now(), node, c);
  CommitShard& shard = shard_for(c.id);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.propose_times.find(c.id.value);
    if (it == shard.propose_times.end())
      return;  // not tracked / already counted
    shard.latency.record(clock_.now() - it->second);
    shard.propose_times.erase(it);
  }
  const std::uint64_t total =
      committed_total_.fetch_add(1, std::memory_order_seq_cst) + 1;
  // Wake waiters only when one could actually be released; the common
  // commit takes no condvar lock at all.
  if (total >= min_target_.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lock(wait_mu_);
    committed_cv_.notify_all();
  }
}

}  // namespace m2::runtime
