#include <gtest/gtest.h>

#include "harness/cluster.hpp"
#include "multipaxos/multipaxos.hpp"
#include "test_util.hpp"
#include "workload/synthetic.hpp"

namespace m2::mp {
namespace {

using stats::Counter;
using test::cmd;

struct MpCluster {
  explicit MpCluster(int n, std::uint64_t seed = 1, bool fd = false)
      : workload(wl::SyntheticConfig{n, 100, 1.0, 0.0, 16, seed}),
        cfg(make_cfg(n, seed, fd)),
        cluster(cfg, workload) {
    cluster.set_measuring(true);
  }
  static harness::ExperimentConfig make_cfg(int n, std::uint64_t seed, bool fd) {
    auto cfg = test::test_config(core::Protocol::kMultiPaxos, n, seed);
    cfg.enable_failure_detector = fd;
    return cfg;
  }
  MultiPaxosReplica& replica(NodeId n) {
    return cluster.replica_as<MultiPaxosReplica>(n);
  }
  std::uint64_t count(NodeId n, Counter c) {
    return test::count(cluster, n, c);
  }
  wl::SyntheticWorkload workload;
  harness::ExperimentConfig cfg;
  harness::Cluster cluster;
};

TEST(MultiPaxos, LeaderLocalProposalCommits) {
  MpCluster t(3);
  t.cluster.propose(0, cmd(0, 1, {1}));
  t.cluster.run_idle();
  EXPECT_EQ(t.cluster.committed_count(), 1u);
  EXPECT_TRUE(test::all_delivered(t.cluster, 1));
  EXPECT_EQ(t.count(0, Counter::kSlotsLed), 1u);
}

TEST(MultiPaxos, RemoteProposalForwardsToLeader) {
  MpCluster t(3);
  t.cluster.propose(2, cmd(2, 1, {1}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 1));
  EXPECT_EQ(t.count(2, Counter::kForwarded), 1u);
  EXPECT_EQ(t.count(0, Counter::kSlotsLed), 1u);
}

TEST(MultiPaxos, ProducesIdenticalTotalOrder) {
  MpCluster t(5, 3);
  for (int i = 1; i <= 20; ++i)
    for (NodeId n = 0; n < 5; ++n)
      t.cluster.propose(n, cmd(n, i, {static_cast<core::ObjectId>(i % 4)}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 100));
  const auto report = core::check_total_order(t.cluster.cstructs());
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(MultiPaxos, NonConflictingCommandsAlsoTotallyOrdered) {
  // Multi-Paxos is conflict-agnostic: even disjoint commands get one order.
  MpCluster t(3, 5);
  for (int i = 1; i <= 10; ++i)
    for (NodeId n = 0; n < 3; ++n)
      t.cluster.propose(n, cmd(n, i, {static_cast<core::ObjectId>(n) * 100 + i}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 30));
  EXPECT_TRUE(core::check_total_order(t.cluster.cstructs()).ok);
}

TEST(MultiPaxos, LatencyIsThreeDelaysAtLeaderFourRemote) {
  MpCluster t(3);
  const auto one_way = t.cfg.network.latency.propagation;
  t.cluster.propose(0, cmd(0, 1, {1}));
  t.cluster.run_idle();
  const auto leader_latency = t.cluster.latency().max();
  // Leader: Accept + Accepted = 1 RTT (commit known at quorum of acks).
  EXPECT_LT(leader_latency, 3 * one_way);

  MpCluster t2(3);
  t2.cluster.propose(1, cmd(1, 1, {1}));
  t2.cluster.run_idle();
  const auto remote_latency = t2.cluster.latency().max();
  // Remote: forward + Accept + Accepted-to-leader + Commit broadcast.
  EXPECT_GT(remote_latency, leader_latency);
  EXPECT_GE(remote_latency, 3 * one_way / 2);
}

TEST(MultiPaxos, DuplicateProposalNotDeliveredTwice) {
  MpCluster t(3);
  const auto c = cmd(1, 1, {1});
  t.cluster.propose(1, c);
  t.cluster.run_idle();
  t.replica(1).propose(c);
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 1));
}

TEST(MultiPaxos, LeaderFailoverElectsNextNode) {
  MpCluster t(3, 1, /*fd=*/true);
  t.cluster.propose(0, cmd(0, 1, {1}));
  t.cluster.run_for(10 * sim::kMillisecond);
  EXPECT_TRUE(test::all_delivered(t.cluster, 1));

  t.cluster.crash(0);
  // Wait past the suspicion timeout for node 1 to take over.
  t.cluster.run_for(core::kSuspectTimeout + 100 * sim::kMillisecond);
  EXPECT_EQ(t.replica(1).current_leader(), 1u);

  t.cluster.propose(2, cmd(2, 1, {2}));
  t.cluster.run_for(200 * sim::kMillisecond);
  EXPECT_EQ(t.cluster.delivered_at(1), 2u);
  EXPECT_EQ(t.cluster.delivered_at(2), 2u);
  const auto report = core::check_total_order(
      {t.cluster.cstructs()[1], t.cluster.cstructs()[2]});
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(MultiPaxos, InFlightCommandsSurviveFailover) {
  MpCluster t(5, 9, /*fd=*/true);
  for (int i = 1; i <= 10; ++i) t.cluster.propose(3, cmd(3, i, {1}));
  // Crash the leader while traffic is in flight.
  t.cluster.run_for(200 * sim::kMicrosecond);
  t.cluster.crash(0);
  t.cluster.run_for(core::kSuspectTimeout + 500 * sim::kMillisecond);
  // All commands must be re-proposed to the new leader and delivered at
  // the surviving nodes exactly once.
  EXPECT_EQ(t.cluster.delivered_at(3), 10u);
  std::vector<core::CStruct> survivors;
  for (NodeId n = 1; n < 5; ++n) survivors.push_back(t.cluster.cstructs()[n]);
  const auto report = core::check_total_order(survivors);
  EXPECT_TRUE(report.ok) << report.violation;
}

}  // namespace
}  // namespace m2::mp
