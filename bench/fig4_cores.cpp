// Figure 4: maximum throughput on 11 nodes as per-node cores scale
// 4 -> 8 -> 16 -> 32 (the paper's four EC2 machine classes). Claims:
//   - M2Paxos scales well to 16 cores, then becomes network-bound;
//   - EPaxos cannot use extra cores (dependency metadata serializes);
//   - single-leader protocols do not scale with cores at all.
#include "bench_common.hpp"

using namespace m2;
using namespace m2::bench;

int main() {
  const int n = 11;
  harness::Table table("Fig. 4 — max throughput at 11 nodes vs cores/node");
  table.set_header({"cores", "MultiPaxos", "GenPaxos", "EPaxos", "M2Paxos"});

  double m2_4 = 0, m2_16 = 0, ep_4 = 0, ep_16 = 0;
  for (const int cores : {4, 8, 16, 32}) {
    std::vector<std::string> row{std::to_string(cores)};
    for (const auto p : core::kProtocols) {
      auto cfg = base_config(p, n);
      cfg.cluster.cores_per_node = cores;
      const auto sat = harness::find_max_throughput(
          cfg,
          [] {
            return std::make_unique<wl::SyntheticWorkload>(
                wl::SyntheticConfig{11, 1000, 1.0, 0.0, 16, 1});
          },
          saturation_levels(n));
      row.push_back(fmt_kcps(sat.max_throughput));
      if (p == core::Protocol::kM2Paxos) {
        if (cores == 4) m2_4 = sat.max_throughput;
        if (cores == 16) m2_16 = sat.max_throughput;
      }
      if (p == core::Protocol::kEPaxos) {
        if (cores == 4) ep_4 = sat.max_throughput;
        if (cores == 16) ep_16 = sat.max_throughput;
      }
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::printf("core-scaling 4->16: M2Paxos %.2fx, EPaxos %.2fx\n",
              m2_4 > 0 ? m2_16 / m2_4 : 0, ep_4 > 0 ? ep_16 / ep_4 : 0);
  std::printf("paper: M2Paxos scales to 16 cores; EPaxos and the single-leader\n"
              "protocols do not benefit from additional cores\n");
  return 0;
}
