// Figure 1: maximum attainable throughput varying the number of nodes.
// Command locality is 100 % (one object per command, each node proposing
// only on objects it owns). Batching on. The paper's claims:
//   - M2Paxos improves 3-7x over the nearest competitor (EPaxos);
//   - Multi-Paxos is the runner-up at <= 11 nodes, then degrades;
//   - EPaxos roughly holds its throughput up to 49 nodes.
#include "bench_common.hpp"

using namespace m2;
using namespace m2::bench;

int main() {
  harness::Table table("Fig. 1 — max throughput vs nodes (100% locality)");
  table.set_header({"nodes", "MultiPaxos", "GenPaxos", "EPaxos", "M2Paxos",
                    "M2/EPaxos"});

  double m2_at_max_n = 0, ep_at_max_n = 0;
  for (const int n : node_counts()) {
    std::vector<std::string> row{std::to_string(n)};
    double per_protocol[4] = {0, 0, 0, 0};
    int idx = 0;
    for (const auto p : core::kProtocols) {
      const auto sat = harness::find_max_throughput(
          base_config(p, n),
          [n] {
            return std::make_unique<wl::SyntheticWorkload>(
                wl::SyntheticConfig{n, 1000, 1.0, 0.0, 16, 1});
          },
          saturation_levels(n));
      per_protocol[idx++] = sat.max_throughput;
      row.push_back(fmt_kcps(sat.max_throughput));
    }
    row.push_back(harness::Table::num(
        per_protocol[2] > 0 ? per_protocol[3] / per_protocol[2] : 0, 2) + "x");
    table.add_row(std::move(row));
    m2_at_max_n = per_protocol[3];
    ep_at_max_n = per_protocol[2];
  }
  table.print(std::cout);
  print_speedup("at max node count", m2_at_max_n, ep_at_max_n, "EPaxos");
  std::printf("paper: up to 3-7x over EPaxos, Multi-Paxos runner-up <=11 nodes\n");
  return 0;
}
