// TPC-C transaction ordering service (paper §VI-B).
//
// Replays the paper's TPC-C setting: warehouses partitioned 10-per-node,
// commands carrying transaction parameters, consensus ordering them. The
// example runs a short loaded window and reports throughput, latency, the
// per-profile mix, and M²Paxos path statistics — showing why warehouse
// locality makes the fast path dominate.
#include <cstdio>
#include <map>

#include "harness/experiment.hpp"
#include "workload/tpcc.hpp"

using namespace m2;

int main() {
  constexpr int kNodes = 5;

  wl::TpccConfig tpcc_cfg;
  tpcc_cfg.n_nodes = kNodes;
  tpcc_cfg.warehouses_per_node = 10;      // paper: 10 * N warehouses
  tpcc_cfg.remote_warehouse_prob = 0.0;   // Fig. 8(a) setting
  tpcc_cfg.seed = 17;
  wl::TpccWorkload workload(tpcc_cfg);

  auto cfg = harness::default_config(core::Protocol::kM2Paxos, kNodes, 17);
  cfg.warmup = 30 * sim::kMillisecond;
  cfg.measure = 100 * sim::kMillisecond;
  cfg.load.clients_per_node = 32;
  cfg.load.max_inflight_per_node = 32;

  const auto result = harness::run_experiment(cfg, workload);

  std::printf("TPC-C ordering on %d nodes, %d warehouses\n", kNodes,
              workload.total_warehouses());
  std::printf("  throughput          : %.0f txn/s\n", result.committed_per_sec);
  std::printf("  median latency      : %.0f us\n",
              static_cast<double>(result.commit_latency.median()) / 1000.0);
  std::printf("  p99 latency         : %.0f us\n",
              static_cast<double>(result.commit_latency.quantile(0.99)) / 1000.0);
  std::printf("  bytes per txn       : %.0f\n", result.bytes_per_command);

  const auto& m = result.metrics;
  const std::uint64_t fast = m.counter(stats::Counter::kFastPathRounds);
  const std::uint64_t fwd = m.counter(stats::Counter::kForwarded);
  const std::uint64_t acq = m.counter(stats::Counter::kAcquisitions);
  const double total = static_cast<double>(fast + fwd + acq);
  std::printf("  M2Paxos paths       : %.1f%% fast, %.1f%% forwarded, %.1f%% acquisition\n",
              100.0 * static_cast<double>(fast) / total,
              100.0 * static_cast<double>(fwd) / total,
              100.0 * static_cast<double>(acq) / total);
  std::printf("  (warehouse locality keeps commands on their home node's\n"
              "   objects, so the 2-delay fast path dominates)\n");
  return 0;
}
