#include "harness/experiment.hpp"

namespace m2::harness {

ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                wl::Workload& workload) {
  Cluster cluster(cfg, workload);
  return cluster.run();
}

SaturationResult find_max_throughput(
    const ExperimentConfig& base,
    const std::function<std::unique_ptr<wl::Workload>()>& make_workload,
    const std::vector<int>& inflight_levels) {
  SaturationResult out;
  for (int level : inflight_levels) {
    ExperimentConfig cfg = base;
    cfg.load.max_inflight_per_node = level;
    cfg.load.clients_per_node = level;
    auto workload = make_workload();
    ExperimentResult r = run_experiment(cfg, *workload);
    if (r.committed_per_sec > out.max_throughput) {
      out.max_throughput = r.committed_per_sec;
      out.median_latency_ms =
          static_cast<double>(r.commit_latency.median()) / 1e6;
      out.best_inflight = level;
    }
    out.all_levels.push_back(std::move(r));
  }
  return out;
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
