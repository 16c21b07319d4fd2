#include "test_util.hpp"

namespace m2::test {

core::Command cmd(NodeId proposer, std::uint64_t seq,
                  core::ObjectList objects, std::uint32_t payload) {
  return core::Command(core::CommandId::make(proposer, seq),
                       std::move(objects), payload);
}

harness::ExperimentConfig test_config(core::Protocol protocol, int n_nodes,
                                      std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.cluster.n_nodes = n_nodes;
  cfg.cluster.cores_per_node = 4;
  cfg.cluster.forward_timeout = 20 * sim::kMillisecond;
  cfg.network.batching = false;
  cfg.seed = seed;
  cfg.audit = true;
  return cfg;
}

std::vector<core::CStruct> collect_cstructs(const harness::Cluster& cluster) {
  return cluster.cstructs();
}

bool all_delivered(const harness::Cluster& cluster, std::uint64_t expected) {
  for (int n = 0; n < cluster.n_nodes(); ++n) {
    if (cluster.delivered_at(static_cast<NodeId>(n)) != expected) return false;
  }
  return true;
}

std::uint64_t count(harness::Cluster& cluster, NodeId n, stats::Counter c) {
  return cluster.node_metrics(n)->counter(c);
}

const net::Payload* find_last(const ScriptedContext& ctx, std::uint32_t kind) {
  for (auto it = ctx.sent.rbegin(); it != ctx.sent.rend(); ++it)
    if (it->payload->kind() == kind) return it->payload.get();
  return nullptr;
}

}  // namespace m2::test
