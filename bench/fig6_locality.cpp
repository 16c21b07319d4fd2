// Figure 6: performance varying the probability of proposing a non-local
// (remote) command, for 3-node and 11-node deployments. Paper's claim:
// M2Paxos degrades only ~4 % on average across the whole sweep (the
// forwarding mechanism is cheap), while the competitors are flat at their
// lower levels.
#include "bench_common.hpp"

using namespace m2;
using namespace m2::bench;

int main() {
  const std::vector<int> remote_pcts = {0, 10, 25, 50, 75, 100};
  for (const int n : {3, 11}) {
    harness::Table table("Fig. 6 — throughput vs % remote commands, " +
                         std::to_string(n) + " nodes");
    std::vector<std::string> header{"protocol"};
    for (const int pct : remote_pcts)
      header.push_back(std::to_string(pct) + "%");
    table.set_header(header);

    double m2_first = 0, m2_sum = 0;
    for (const auto p : core::kProtocols) {
      std::vector<std::string> row{core::to_string(p)};
      for (const int pct : remote_pcts) {
        // Saturation throughput: at a fixed in-flight cap the extra
        // forwarding hop would show as a latency-driven artifact; the
        // figure measures capacity.
        const auto sat = harness::find_max_throughput(
            base_config(p, n),
            [n, pct] {
              return std::make_unique<wl::SyntheticWorkload>(
                  wl::SyntheticConfig{n, 1000, 1.0 - pct / 100.0, 0.0, 16, 1});
            },
            quick_mode() ? std::vector<int>{64} : std::vector<int>{64, 192});
        row.push_back(fmt_kcps(sat.max_throughput));
        if (p == core::Protocol::kM2Paxos) {
          if (pct == 0) m2_first = sat.max_throughput;
          m2_sum += sat.max_throughput;
        }
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    const double avg = m2_sum / static_cast<double>(remote_pcts.size());
    std::printf("M2Paxos average degradation across sweep (%d nodes): %.1f%%\n",
                n, m2_first > 0 ? 100.0 * (1.0 - avg / m2_first) : 0.0);
  }
  std::printf("paper: M2Paxos loses ~4%% on average; competitors are flat\n");
  return 0;
}
