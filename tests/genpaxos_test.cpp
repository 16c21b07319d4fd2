#include <gtest/gtest.h>

#include "genpaxos/genpaxos.hpp"
#include "harness/cluster.hpp"
#include "test_util.hpp"
#include "workload/synthetic.hpp"

namespace m2::gp {
namespace {

using stats::Counter;
using test::cmd;

struct GpCluster {
  explicit GpCluster(int n, std::uint64_t seed = 1)
      : workload(wl::SyntheticConfig{n, 100, 1.0, 0.0, 16, seed}),
        cfg(test::test_config(core::Protocol::kGenPaxos, n, seed)),
        cluster(cfg, workload) {
    cluster.set_measuring(true);
  }
  std::uint64_t count(NodeId n, Counter c) {
    return test::count(cluster, n, c);
  }
  wl::SyntheticWorkload workload;
  harness::ExperimentConfig cfg;
  harness::Cluster cluster;
};

TEST(GenPaxos, NonConflictingCommandFastAgrees) {
  GpCluster t(3);
  t.cluster.propose(1, cmd(1, 1, {1}));
  t.cluster.run_idle();
  EXPECT_EQ(t.cluster.committed_count(), 1u);
  EXPECT_TRUE(test::all_delivered(t.cluster, 1));
  EXPECT_EQ(t.count(1, Counter::kFastPathRounds), 1u);
  EXPECT_EQ(t.count(1, Counter::kCollisions), 0u);
}

TEST(GenPaxos, CommitReportedAfterTwoDelays) {
  GpCluster t(3);
  t.cluster.propose(1, cmd(1, 1, {1}));
  t.cluster.run_idle();
  ASSERT_EQ(t.cluster.latency().count(), 1u);
  // Fast agreement = propose broadcast + FastAck: well under 2 RTT.
  EXPECT_LT(t.cluster.latency().max(), 4 * t.cfg.network.latency.propagation);
}

TEST(GenPaxos, LeaderSequencesEverything) {
  GpCluster t(3);
  for (int i = 1; i <= 10; ++i)
    for (NodeId n = 0; n < 3; ++n)
      t.cluster.propose(n, cmd(n, i, {static_cast<core::ObjectId>(n * 100 + i)}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 30));
  EXPECT_EQ(t.count(0, Counter::kSequenced), 30u);
  EXPECT_EQ(t.count(1, Counter::kSequenced), 0u);
}

TEST(GenPaxos, ConcurrentConflictsCollideAndResolve) {
  GpCluster t(5, 3);
  for (int i = 1; i <= 10; ++i)
    for (NodeId n = 0; n < 5; ++n) t.cluster.propose(n, cmd(n, i, {7}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 50));
  std::uint64_t collisions = 0;
  for (NodeId n = 0; n < 5; ++n)
    collisions += t.count(n, Counter::kCollisions);
  EXPECT_GT(collisions, 0u);
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(GenPaxos, DeliveryIsATotalOrder) {
  // The leader-sequencer model yields a total order (stronger than needed
  // for Generalized Consensus, trivially consistent).
  GpCluster t(3, 5);
  for (int i = 1; i <= 15; ++i)
    for (NodeId n = 0; n < 3; ++n)
      t.cluster.propose(n, cmd(n, i, {static_cast<core::ObjectId>(i % 5)}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 45));
  const auto report = core::check_total_order(t.cluster.cstructs());
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(GenPaxos, FastAckCarriesCstructWeight) {
  GpCluster t(3);
  FastAck ack;
  ack.preds.push_back(FastAck::Pred{1, core::CommandId::make(0, 1)});
  const auto small = ack.wire_size();
  ack.cstruct_bytes = 4096;
  EXPECT_EQ(ack.wire_size(), small + 4096);
}

TEST(GenPaxos, FastQuorumRequired) {
  GpCluster t(5);
  EXPECT_EQ(t.cfg.cluster.fast_quorum(), 4);  // floor(10/3)+1
  // With one acceptor crashed the fast quorum is still reachable (4 of 5);
  // with two crashed it is not, and the retry path must hand the command
  // to the leader.
  t.cluster.crash(3);
  t.cluster.crash(4);
  t.cluster.propose(1, cmd(1, 1, {1}));
  t.cluster.run_for(2 * t.cfg.cluster.forward_timeout +
                    100 * sim::kMillisecond);
  // Delivered at the surviving nodes via the leader's classic round.
  EXPECT_EQ(t.cluster.delivered_at(0), 1u);
  EXPECT_EQ(t.cluster.delivered_at(1), 1u);
}

}  // namespace
}  // namespace m2::gp
