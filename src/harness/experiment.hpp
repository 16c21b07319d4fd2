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

/// Saturation search (paper Fig. 1: "we loaded the system up to its
/// saturation and collected the throughput right before that point"):
/// sweeps the offered load (in-flight cap per node) upward and returns the
/// run of the first level with the highest committed_per_sec.
/// `make_workload` builds a fresh, identically seeded workload per level so
/// levels are comparable.
ExperimentResult find_max_throughput(
    const ExperimentConfig& base,
    const std::function<std::unique_ptr<wl::Workload>()>& make_workload,
    const std::vector<int>& inflight_levels = {8, 32, 128});

/// Default experiment configuration matching the paper's testbed settings
/// (batching on, 16 cores, EC2-like network).
ExperimentConfig default_config(core::Protocol protocol, int n_nodes,
                                std::uint64_t seed = 1);

}  // namespace m2::harness
