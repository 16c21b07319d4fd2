#include "harness/experiment.hpp"

#include <optional>

namespace m2::harness {

ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                wl::Workload& workload) {
  Cluster cluster(cfg, workload);
  return cluster.run();
}

ExperimentResult find_max_throughput(
    const ExperimentConfig& base,
    const std::function<std::unique_ptr<wl::Workload>()>& make_workload,
    const std::vector<int>& inflight_levels) {
  std::optional<ExperimentResult> best;
  for (int level : inflight_levels) {
    ExperimentConfig cfg = base;
    cfg.load.max_inflight_per_node = level;
    cfg.load.clients_per_node = level;
    auto workload = make_workload();
    ExperimentResult r = run_experiment(cfg, *workload);
    if (!best || r.committed_per_sec > best->committed_per_sec)
      best = std::move(r);
  }
  return best ? std::move(*best) : ExperimentResult{};
}

ExperimentConfig default_config(core::Protocol protocol, int n_nodes,
                                std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.cluster.n_nodes = n_nodes;
  cfg.cluster.cores_per_node = 16;  // c3.4xlarge
  cfg.network.batching = true;
  cfg.seed = seed;
  return cfg;
}

}  // namespace m2::harness
