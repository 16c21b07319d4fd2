// Bank transfers: multi-object commands under M²Paxos.
//
// Accounts are consensus objects partitioned across branches (nodes). A
// transfer touches two accounts; when both are homed at one branch it is a
// fast decision, across branches it needs ownership acquisition. The
// invariant checked at the end — total balance is conserved and identical
// on every replica — only holds if all replicas execute conflicting
// transfers in the same order.
#include <cstdio>
#include <map>
#include <vector>

#include "harness/cluster.hpp"
#include "sim/rng.hpp"
#include "workload/synthetic.hpp"

using namespace m2;

namespace {

struct Transfer {
  core::ObjectId from;
  core::ObjectId to;
  long amount;
};

class Branch {
 public:
  explicit Branch(long opening_balance, std::uint64_t n_accounts) {
    for (core::ObjectId a = 0; a < n_accounts; ++a)
      balances_[a] = opening_balance;
  }
  void apply(const Transfer& t) {
    // Transfers that would overdraw are rejected deterministically; since
    // every replica sees the same order, they all reject the same ones.
    auto& from = balances_[t.from];
    if (from < t.amount) return;
    from -= t.amount;
    balances_[t.to] += t.amount;
  }
  long total() const {
    long sum = 0;
    for (const auto& [a, b] : balances_) sum += b;
    return sum;
  }
  const std::map<core::ObjectId, long>& balances() const { return balances_; }

 private:
  std::map<core::ObjectId, long> balances_;
};

}  // namespace

int main() {
  constexpr int kNodes = 5;
  constexpr std::uint64_t kAccountsPerBranch = 50;
  constexpr long kOpening = 1000;
  const std::uint64_t total_accounts = kNodes * kAccountsPerBranch;

  wl::SyntheticWorkload workload({kNodes, kAccountsPerBranch, 1.0, 0.0, 16, 3});
  harness::ExperimentConfig cfg;
  cfg.protocol = core::Protocol::kM2Paxos;
  cfg.cluster.n_nodes = kNodes;
  cfg.audit = true;
  harness::Cluster cluster(cfg, workload);
  cluster.set_measuring(true);

  std::map<std::uint64_t, Transfer> transfers;
  sim::Rng rng(99);
  std::uint64_t seq = 1;

  int intra = 0, inter = 0;
  for (int round = 0; round < 40; ++round) {
    for (NodeId n = 0; n < kNodes; ++n) {
      const core::ObjectId a =
          n * kAccountsPerBranch + rng.uniform(kAccountsPerBranch);
      core::ObjectId b;
      if (rng.chance(0.8)) {
        b = n * kAccountsPerBranch + rng.uniform(kAccountsPerBranch);  // intra
        ++intra;
      } else {
        b = rng.uniform(total_accounts);  // possibly another branch
        ++inter;
      }
      if (a == b) continue;
      const auto id = core::CommandId::make(n, seq++);
      transfers[id.value] = Transfer{a, b, static_cast<long>(rng.uniform(20)) + 1};
      cluster.propose(n, core::Command(id, {a, b}, 24));
    }
  }
  cluster.run_idle();

  // Replay each replica's delivered order against a fresh ledger.
  std::vector<Branch> ledgers(kNodes, Branch(kOpening, total_accounts));
  for (int n = 0; n < kNodes; ++n)
    for (const auto& c : cluster.cstructs()[static_cast<std::size_t>(n)].sequence())
      ledgers[static_cast<std::size_t>(n)].apply(transfers.at(c.id.value));

  const long expected_total = kOpening * static_cast<long>(total_accounts);
  bool ok = true;
  for (int n = 0; n < kNodes; ++n) {
    if (ledgers[static_cast<std::size_t>(n)].total() != expected_total) ok = false;
    if (ledgers[static_cast<std::size_t>(n)].balances() != ledgers[0].balances())
      ok = false;
  }

  const stats::MetricsRegistry& node0 = *cluster.node_metrics(0);
  std::printf("transfers committed  : %llu (%d intra-branch, %d inter-branch)\n",
              static_cast<unsigned long long>(cluster.committed_count()), intra,
              inter);
  std::printf("money conserved      : %s (total %ld on every replica)\n",
              ok ? "yes" : "NO", ledgers[0].total());
  std::printf("node0 fast decisions : %llu, acquisitions: %llu\n",
              static_cast<unsigned long long>(
                  node0.counter(stats::Counter::kFastPathRounds)),
              static_cast<unsigned long long>(
                  node0.counter(stats::Counter::kAcquisitions)));
  std::printf("median commit latency: %.0f us\n",
              static_cast<double>(cluster.latency().median()) / 1000.0);
  return ok ? 0 : 1;
}
