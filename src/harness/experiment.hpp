#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "harness/cluster.hpp"
#include "workload/workload.hpp"

namespace m2::harness {

/// Runs one experiment end to end with a fresh cluster.
ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                wl::Workload& workload);

/// Outcome of a saturation search (paper Fig. 1: "we loaded the system up
/// to its saturation and collected the throughput right before that
/// point").
struct SaturationResult {
  double max_throughput = 0;      // commands/second
  double median_latency_ms = 0;   // at the best load level
  int best_inflight = 0;
  std::vector<ExperimentResult> all_levels;
};

/// Sweeps the offered load (in-flight cap per node) upward and returns the
/// best throughput observed. `make_workload` builds a fresh, identically
/// seeded workload per level so levels are comparable.
SaturationResult find_max_throughput(
    const ExperimentConfig& base,
    const std::function<std::unique_ptr<wl::Workload>()>& make_workload,
    const std::vector<int>& inflight_levels = {8, 32, 128});

/// Default experiment configuration matching the paper's testbed settings
/// (batching on, 16 cores, EC2-like network).
ExperimentConfig default_config(core::Protocol protocol, int n_nodes,
                                std::uint64_t seed = 1);

}  // namespace m2::harness
