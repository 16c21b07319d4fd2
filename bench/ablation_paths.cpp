// Ablation A1: fast-path rate vs locality.
//
// DESIGN.md's core claim for M2Paxos is that under partitionable
// workloads nearly every decision takes the 2-delay fast path. This
// ablation measures, across the locality sweep, what fraction of
// coordinations were fast / forwarded / acquisitions, plus the retry rate
// — the mechanism behind Figures 5 and 6. Counts and commits both cover
// the measurement window.
#include "bench_common.hpp"

using namespace m2;
using namespace m2::bench;

int main() {
  const int n = 11;
  harness::Table table("Ablation A1 — M2Paxos path mix vs locality (11 nodes)");
  table.set_header({"locality", "fast", "forwarded", "acquired", "retries/cmd",
                    "throughput"});

  for (const int pct : {100, 90, 75, 50, 25, 0}) {
    auto cfg = base_config(core::Protocol::kM2Paxos, n);
    cfg.load.clients_per_node = 48;
    cfg.load.max_inflight_per_node = 48;
    wl::SyntheticWorkload w({n, 1000, pct / 100.0, 0.0, 16, 1});
    const auto r = harness::run_experiment(cfg, w);
    const auto count = [&](stats::Counter c) { return r.metrics.counter(c); };
    const std::uint64_t fast = count(stats::Counter::kFastPathRounds);
    const std::uint64_t fwd = count(stats::Counter::kForwarded);
    const std::uint64_t acq = count(stats::Counter::kAcquisitions);
    const std::uint64_t retries = count(stats::Counter::kRetries);
    const double total = static_cast<double>(fast + fwd + acq);
    auto pct_of = [&](std::uint64_t v) {
      return harness::Table::num(total > 0 ? 100.0 * v / total : 0, 1) + "%";
    };
    table.add_row({std::to_string(pct) + "%", pct_of(fast), pct_of(fwd),
                   pct_of(acq),
                   harness::Table::num(
                       r.committed > 0
                           ? static_cast<double>(retries) / r.committed
                           : 0,
                       3),
                   fmt_kcps(r.committed_per_sec)});
  }
  table.print(std::cout);
  std::printf("claim: remote commands become forwards (3 delays), not\n"
              "acquisitions — ownership stays stable under the locality sweep\n");
  return 0;
}
