// Ablation A2: ownership-acquisition cost under contention (§IV-C).
//
// The paper's acquisition path has no bound on retries when multiple nodes
// fight over the same objects. This ablation measures acquisition and
// retry counts plus latency percentiles as the object space shrinks
// (more contention), and contrasts cold-start (no preassigned ownership)
// with the steady state. Counts and commits both cover the measurement
// window; cold-start rows run without warm-up, so the acquisitions that
// build the ownership map fall inside it.
#include "bench_common.hpp"

using namespace m2;
using namespace m2::bench;

namespace {

void run_row(harness::Table& table, const std::string& label, int n,
             std::uint64_t objects_per_node, bool preassign,
             double complex_fraction) {
  auto cfg = base_config(core::Protocol::kM2Paxos, n);
  cfg.preassign_ownership = preassign;
  if (!preassign) cfg.warmup = 0;
  cfg.load.clients_per_node = 32;
  cfg.load.max_inflight_per_node = 32;
  wl::SyntheticWorkload w({n, objects_per_node, 1.0, complex_fraction, 16, 1});
  const auto r = harness::run_experiment(cfg, w);

  const auto count = [&](stats::Counter c) { return r.metrics.counter(c); };
  const std::uint64_t acq = count(stats::Counter::kAcquisitions);
  const std::uint64_t retries = count(stats::Counter::kRetries);
  const std::uint64_t nacks = count(stats::Counter::kAcceptNacks) +
                              count(stats::Counter::kPrepareNacks);
  const std::uint64_t noops = count(stats::Counter::kNoopsFilled);
  table.add_row(
      {label, fmt_kcps(r.committed_per_sec),
       harness::Table::num(
           r.committed > 0 ? static_cast<double>(acq) / r.committed : 0, 3),
       harness::Table::num(
           r.committed > 0 ? static_cast<double>(retries) / r.committed : 0, 3),
       std::to_string(nacks), std::to_string(noops),
       fmt_us(static_cast<double>(r.commit_latency.quantile(0.99)))});
}

}  // namespace

int main() {
  const int n = 7;
  harness::Table table("Ablation A2 — acquisition cost under contention (7 nodes)");
  table.set_header({"scenario", "throughput", "acq/cmd", "retries/cmd", "nacks",
                    "noops", "p99 latency"});

  run_row(table, "steady, partitioned", n, 1000, true, 0.0);
  run_row(table, "cold start (no warm-up), partitioned", n, 1000, false, 0.0);
  run_row(table, "steady, 25% complex", n, 1000, true, 0.25);
  run_row(table, "steady, 25% complex, hot set", n, 10, true, 0.25);
  run_row(table, "cold start (no warm-up), hot set", n, 10, false, 0.25);

  table.print(std::cout);
  std::printf("claim: acquisitions amortize after cold start; contention on a\n"
              "hot set multiplies retries — the paper's unbounded-delay regime\n");
  return 0;
}
