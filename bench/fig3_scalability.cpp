// Figure 3: scalability under fixed per-node load — 64 client threads per
// node with 5 ms think time, 100 % locality. Paper's claim: M2Paxos alone
// scales near-linearly because it creates no single-node hotspot.
#include "bench_common.hpp"

using namespace m2;
using namespace m2::bench;

int main() {
  harness::Table table(
      "Fig. 3 — throughput vs nodes (64 clients/node, 5ms think time)");
  table.set_header({"nodes", "MultiPaxos", "GenPaxos", "EPaxos", "M2Paxos",
                    "M2 per-node"});

  double m2_first = 0;
  int n_first = 0;
  for (const int n : node_counts()) {
    std::vector<std::string> row{std::to_string(n)};
    double m2 = 0;
    for (const auto p : core::kProtocols) {
      auto cfg = base_config(p, n);
      cfg.load.clients_per_node = 64;
      cfg.load.think_time = 5 * sim::kMillisecond;  // the figure's setting
      cfg.load.max_inflight_per_node = 64;
      // Longer window: at 5 ms think time each client contributes only
      // ~200 cmds/s, so short windows under-sample.
      cfg.measure = 2 * measure(n);
      wl::SyntheticWorkload w({n, 1000, 1.0, 0.0, 16, 1});
      const auto r = harness::run_experiment(cfg, w);
      row.push_back(fmt_kcps(r.committed_per_sec));
      if (p == core::Protocol::kM2Paxos) m2 = r.committed_per_sec;
    }
    if (n_first == 0) {
      n_first = n;
      m2_first = m2;
    }
    row.push_back(fmt_kcps(m2 / n));
    table.add_row(std::move(row));
    if (n == node_counts().back() && m2_first > 0) {
      std::printf("M2Paxos scaling efficiency %d->%d nodes: %.0f%% of linear\n",
                  n_first, n,
                  100.0 * (m2 / m2_first) / (static_cast<double>(n) / n_first));
    }
  }
  table.print(std::cout);
  std::printf("paper: M2Paxos exhibits near-linear scalability; others flatten\n");
  return 0;
}
