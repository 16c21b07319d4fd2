// Long randomized integration runs ("marathons"): sustained load with
// mid-run fault injection, ending in a full consistency audit. These are
// the closest thing to the paper's week-of-EC2 burn-in that a unit test
// can afford.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include "harness/cluster.hpp"
#include "m2paxos/m2paxos.hpp"
#include "test_util.hpp"
#include "workload/synthetic.hpp"

namespace m2 {
namespace {

TEST(Marathon, M2PaxosSurvivesRollingMinorityCrashes) {
  constexpr int kNodes = 5;
  wl::SyntheticWorkload workload({kNodes, 50, 0.8, 0.1, 16, 21});
  auto cfg = test::test_config(core::Protocol::kM2Paxos, kNodes, 21);
  cfg.load.clients_per_node = 4;
  cfg.load.max_inflight_per_node = 4;
  cfg.load.think_time = 500 * sim::kMicrosecond;
  harness::Cluster cluster(cfg, workload);
  cluster.set_measuring(true);
  cluster.start_clients();

  // Roll a crash across nodes 3 and 4 (never more than one down at once, so
  // quorums always exist) while the clients keep the system loaded.
  for (int round = 0; round < 4; ++round) {
    const NodeId victim = static_cast<NodeId>(3 + (round % 2));
    cluster.run_for(60 * sim::kMillisecond);
    cluster.crash(victim);
    cluster.run_for(60 * sim::kMillisecond);
    cluster.recover(victim);
  }
  cluster.stop_clients();
  cluster.run_for(2 * sim::kSecond);  // drain retries and repairs

  EXPECT_GT(cluster.committed_count(), 500u);
  const auto report = cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
  // Un-crashed nodes must have identical delivery counts.
  EXPECT_EQ(cluster.delivered_at(0), cluster.delivered_at(1));
  EXPECT_EQ(cluster.delivered_at(1), cluster.delivered_at(2));
}

TEST(Marathon, HighJitterReorderingStaysConsistent) {
  // Crank network jitter so per-link latency varies wildly (FIFO per link
  // still holds, as with TCP, but cross-link interleavings go wild).
  for (const auto protocol :
       {core::Protocol::kEPaxos, core::Protocol::kM2Paxos}) {
    wl::SyntheticWorkload workload({3, 10, 0.5, 0.3, 16, 31});
    auto cfg = test::test_config(protocol, 3, 31);
    cfg.network.latency.jitter_sigma = 1.2;  // heavy-tailed
    harness::Cluster cluster(cfg, workload);
    cluster.set_measuring(true);
    for (int i = 1; i <= 40; ++i)
      for (NodeId n = 0; n < 3; ++n) cluster.propose(n, workload.next(n));
    cluster.run_idle();
    EXPECT_TRUE(test::all_delivered(cluster, 120))
        << core::to_string(protocol);
    const auto report = cluster.audit_consistency();
    EXPECT_TRUE(report.ok) << core::to_string(protocol) << ": "
                           << report.violation;
  }
}

TEST(Marathon, LossyNetworkLongHaul) {
  wl::SyntheticWorkload workload({3, 100, 1.0, 0.0, 16, 41});
  auto cfg = test::test_config(core::Protocol::kM2Paxos, 3, 41);
  cfg.load.clients_per_node = 2;
  cfg.load.max_inflight_per_node = 2;
  cfg.load.think_time = 2 * sim::kMillisecond;
  harness::Cluster cluster(cfg, workload);
  cluster.set_measuring(true);
  cluster.network().faults().set_loss(0.10);
  cluster.start_clients();
  cluster.run_for(1 * sim::kSecond);
  cluster.stop_clients();
  cluster.network().faults().set_loss(0.0);
  cluster.run_for(2 * sim::kSecond);  // let retries finish

  EXPECT_GT(cluster.committed_count(), 200u);
  const auto report = cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(Marathon, PeakRssStaysBoundedUnderLogTruncation) {
  // Frontier GC is what keeps slot-log memory bounded over a long run;
  // this pins the claim at the process level. Hundreds of thousands of
  // commands decide during the measured window — without truncation the
  // retained slots and command blocks alone would add well over 100 MiB
  // across the three replicas, so peak-RSS growth past the warmed-up
  // baseline must stay far below that.
  wl::SyntheticConfig wl_cfg;
  wl_cfg.n_nodes = 3;
  wl_cfg.objects_per_node = 1024;
  wl_cfg.locality = 1.0;
  wl::SyntheticWorkload workload(wl_cfg);

  harness::ExperimentConfig cfg;
  cfg.protocol = core::Protocol::kM2Paxos;
  cfg.cluster.n_nodes = 3;
  cfg.seed = 61;
  cfg.cluster.gc_margin = 16;
  cfg.cluster.delivered_id_window = 4096;
  harness::Cluster cluster(cfg, workload);
  cluster.start_clients();
  cluster.run_for(200 * sim::kMillisecond);  // reach steady state first

  rusage before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  const std::uint64_t decided_before = cluster.delivered_at(0);
  cluster.run_for(600 * sim::kMillisecond);
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  const std::uint64_t decided = cluster.delivered_at(0) - decided_before;
  cluster.stop_clients();

  EXPECT_GT(decided, 100000u) << "window too small to stress log growth";
  const long grown_kib = after.ru_maxrss - before.ru_maxrss;  // Linux: KiB
  EXPECT_LT(grown_kib, 64 * 1024)
      << "peak RSS grew " << grown_kib << " KiB over " << decided
      << " decided commands — frontier GC is not bounding log memory";
}

TEST(Marathon, DeterministicReplayUnderFaults) {
  // The whole point of the DES: identical seeds + identical fault schedule
  // = identical outcome, even with crashes in the middle.
  auto run_once = [] {
    wl::SyntheticWorkload workload({5, 50, 0.9, 0.1, 16, 51});
    auto cfg = test::test_config(core::Protocol::kM2Paxos, 5, 51);
    cfg.load.clients_per_node = 4;
    cfg.load.max_inflight_per_node = 4;
    harness::Cluster cluster(cfg, workload);
    cluster.set_measuring(true);
    cluster.start_clients();
    cluster.run_for(30 * sim::kMillisecond);
    cluster.crash(4);
    cluster.run_for(30 * sim::kMillisecond);
    cluster.recover(4);
    cluster.run_for(100 * sim::kMillisecond);
    cluster.stop_clients();
    cluster.run_for(500 * sim::kMillisecond);
    return std::make_tuple(cluster.committed_count(),
                           cluster.delivered_at(0),
                           cluster.simulator().events_executed());
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace m2
