#include <gtest/gtest.h>

#include "epaxos/epaxos.hpp"
#include "harness/cluster.hpp"
#include "test_util.hpp"
#include "workload/synthetic.hpp"

namespace m2::ep {
namespace {

using stats::Counter;
using test::cmd;

struct EpCluster {
  explicit EpCluster(int n, std::uint64_t seed = 1)
      : workload(wl::SyntheticConfig{n, 100, 1.0, 0.0, 16, seed}),
        cfg(test::test_config(core::Protocol::kEPaxos, n, seed)),
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

TEST(EPaxos, NonConflictingCommandCommitsFast) {
  EpCluster t(5);
  t.cluster.propose(0, cmd(0, 1, {1}));
  t.cluster.run_idle();
  EXPECT_EQ(t.cluster.committed_count(), 1u);
  EXPECT_TRUE(test::all_delivered(t.cluster, 1));
  EXPECT_EQ(t.count(0, Counter::kFastPathRounds), 1u);
  EXPECT_EQ(t.count(0, Counter::kSlowCommits), 0u);
}

TEST(EPaxos, EveryReplicaCanLead) {
  EpCluster t(5);
  for (NodeId n = 0; n < 5; ++n)
    t.cluster.propose(n, cmd(n, 1, {static_cast<core::ObjectId>(n)}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 5));
  for (NodeId n = 0; n < 5; ++n)
    EXPECT_EQ(t.count(n, Counter::kFastPathRounds), 1u) << "node " << n;
}

TEST(EPaxos, SameLeaderConflictsStayFast) {
  // Sequential conflicting commands from one node: acceptors agree on the
  // dependency (the previous command), so the fast path holds.
  EpCluster t(5);
  for (int i = 1; i <= 10; ++i) t.cluster.propose(0, cmd(0, i, {7}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 10));
  EXPECT_EQ(t.count(0, Counter::kFastPathRounds), 10u);
}

TEST(EPaxos, CrossLeaderConflictsTriggerSlowPath) {
  EpCluster t(5, 3);
  // All nodes repeatedly hit one object: cross-node interference.
  for (int i = 1; i <= 10; ++i)
    for (NodeId n = 0; n < 5; ++n) t.cluster.propose(n, cmd(n, i, {7}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 50));
  std::uint64_t slow = 0;
  for (NodeId n = 0; n < 5; ++n) slow += t.count(n, Counter::kSlowCommits);
  EXPECT_GT(slow, 0u);
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(EPaxos, ConflictingCommandsExecuteInSameOrderEverywhere) {
  EpCluster t(3, 11);
  for (int i = 1; i <= 30; ++i)
    for (NodeId n = 0; n < 3; ++n)
      t.cluster.propose(n, cmd(n, i, {static_cast<core::ObjectId>(i % 3)}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 90));
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(EPaxos, MultiObjectCommandsConsistent) {
  EpCluster t(5, 13);
  sim::Rng rng(99);
  for (int i = 1; i <= 20; ++i) {
    for (NodeId n = 0; n < 5; ++n) {
      core::ObjectList ls{rng.uniform(6), rng.uniform(6)};
      t.cluster.propose(n, core::Command(core::CommandId::make(n, i), ls));
    }
  }
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 100));
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(EPaxos, DependencyBytesGrowWithConflicts) {
  EpCluster isolated(5, 7);
  for (int i = 1; i <= 20; ++i)
    for (NodeId n = 0; n < 5; ++n)
      isolated.cluster.propose(
          n, cmd(n, i, {static_cast<core::ObjectId>(n) * 1000 + i}));
  isolated.cluster.run_idle();

  EpCluster contended(5, 7);
  for (int i = 1; i <= 20; ++i)
    for (NodeId n = 0; n < 5; ++n)
      contended.cluster.propose(n, cmd(n, i, {1, 2, 3}));
  contended.cluster.run_idle();

  std::uint64_t iso_bytes = 0, con_bytes = 0;
  for (NodeId n = 0; n < 5; ++n) {
    iso_bytes += isolated.count(n, Counter::kDepBytesSent);
    con_bytes += contended.count(n, Counter::kDepBytesSent);
  }
  EXPECT_GT(con_bytes, iso_bytes);
}

TEST(EPaxos, FastQuorumLargerThanClassicBeyondFiveNodes) {
  EpCluster t7(7);
  EXPECT_GT(t7.cfg.cluster.epaxos_fast_quorum(), t7.cfg.cluster.classic_quorum());
  EpCluster t5(5);
  EXPECT_EQ(t5.cfg.cluster.epaxos_fast_quorum(), t5.cfg.cluster.classic_quorum());
}

TEST(EPaxos, ExecutionWaitsForDependencyCommit) {
  // Craft: node 0 commits a command whose dep (node 1's command) commits
  // later. Delivery at node 2 must happen only after both commit, and in
  // dependency order. Achieved naturally by proposing conflicting commands
  // nearly simultaneously and auditing the result.
  EpCluster t(3, 17);
  t.cluster.propose(0, cmd(0, 1, {5}));
  t.cluster.propose(1, cmd(1, 1, {5}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 2));
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

}  // namespace
}  // namespace m2::ep
