// Ablation A3: message-size overhead of dependency metadata (§VI-A).
//
// The paper argues a key M2Paxos advantage is that it exchanges no
// dependency information. This ablation measures bytes per committed
// command, broken down by message kind, for all four protocols on the
// same workload — once partitioned and once with multi-object conflicts
// (where EPaxos deps and GenPaxos c-structs grow).
#include "bench_common.hpp"

using namespace m2;
using namespace m2::bench;

namespace {

void run_case(const std::string& label, double complex_fraction) {
  const int n = 11;
  harness::Table table("Ablation A3 — bytes per command (" + label + ")");
  table.set_header({"protocol", "bytes/cmd", "msgs/cmd", "top message kinds"});

  for (const auto p : core::kProtocols) {
    auto cfg = base_config(p, n);
    cfg.load.clients_per_node = 48;
    cfg.load.max_inflight_per_node = 48;
    wl::SyntheticWorkload w({n, 1000, 1.0, complex_fraction, 16, 1});
    const auto r = harness::run_experiment(cfg, w);

    // Two biggest contributors by bytes.
    std::vector<std::pair<std::uint64_t, std::string>> kinds;
    for (const auto& [name, bytes] : r.bytes_by_kind)
      kinds.emplace_back(bytes, name);
    std::sort(kinds.rbegin(), kinds.rend());
    std::string top;
    for (std::size_t i = 0; i < kinds.size() && i < 2; ++i) {
      if (i > 0) top += ", ";
      top += kinds[i].second + "=" +
             harness::Table::num(
                 r.committed > 0
                     ? static_cast<double>(kinds[i].first) / r.committed
                     : 0,
                 0) +
             "B";
    }
    table.add_row({core::to_string(p),
                   harness::Table::num(r.bytes_per_command, 0),
                   harness::Table::num(
                       r.committed > 0 ? static_cast<double>(
                                             r.traffic.messages_sent) /
                                             r.committed
                                       : 0,
                       1),
                   top});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  run_case("partitioned, single-object", 0.0);
  run_case("50% complex commands", 0.5);
  std::printf("claim: M2Paxos bytes/cmd stay flat with conflicts; EPaxos and\n"
              "GenPaxos messages grow with dependency/c-struct metadata\n");
  return 0;
}
