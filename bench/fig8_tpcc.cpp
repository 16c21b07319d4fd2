// Figure 8: TPC-C workload, 10*N warehouses, N up to 11.
//   (a) 0 % of commands on a remote warehouse;
//   (b) 15 % of commands on a remote warehouse.
// Paper's claims: M2Paxos reaches > 400k cmds/s in (a) and > 250k in (b)
// on the paper's testbed; Multi-Paxos is the closest competitor but still
// ~2.4-2.5x slower; EPaxos is ~5.5x slower (its dependency handling
// suffers under TPC-C's contention); the 15 % remote setting costs
// M2Paxos about 40 %.
#include "bench_common.hpp"

using namespace m2;
using namespace m2::bench;

int main() {
  const std::vector<int> nodes = {3, 5, 7, 9, 11};
  double m2_a_11 = 0, m2_b_11 = 0, mp_b_11 = 0, ep_b_11 = 0;

  for (const double remote : {0.0, 0.15}) {
    harness::Table table(
        remote == 0.0
            ? "Fig. 8(a) — TPC-C, 0% commands on a remote warehouse"
            : "Fig. 8(b) — TPC-C, 15% commands on a remote warehouse");
    std::vector<std::string> header{"nodes"};
    for (const auto p : core::kProtocols) header.push_back(core::to_string(p));
    table.set_header(header);

    for (const int n : nodes) {
      std::vector<std::string> row{std::to_string(n)};
      for (const auto p : core::kProtocols) {
        auto cfg = base_config(p, n);
        cfg.load.clients_per_node = 64;
        cfg.load.max_inflight_per_node = 64;
        wl::TpccWorkload w({n, 10, remote, 1});
        const auto r = harness::run_experiment(cfg, w);
        row.push_back(fmt_kcps(r.committed_per_sec));
        if (n == 11) {
          if (p == core::Protocol::kM2Paxos && remote == 0.0)
            m2_a_11 = r.committed_per_sec;
          if (p == core::Protocol::kM2Paxos && remote != 0.0)
            m2_b_11 = r.committed_per_sec;
          if (p == core::Protocol::kMultiPaxos && remote != 0.0)
            mp_b_11 = r.committed_per_sec;
          if (p == core::Protocol::kEPaxos && remote != 0.0)
            ep_b_11 = r.committed_per_sec;
        }
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
  }

  print_speedup("TPC-C 15% remote, 11 nodes", m2_b_11, mp_b_11, "MultiPaxos");
  print_speedup("TPC-C 15% remote, 11 nodes", m2_b_11, ep_b_11, "EPaxos");
  if (m2_a_11 > 0)
    std::printf("remote-warehouse cost for M2Paxos at 11 nodes: %.0f%%\n",
                100.0 * (1.0 - m2_b_11 / m2_a_11));
  std::printf("paper: ~2.4x over Multi-Paxos, ~5.5x over EPaxos, ~40%% cost\n"
              "for the 15%% remote setting\n");
  return 0;
}
