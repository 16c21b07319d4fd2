// Failure injection: crashes, message loss, and partitions. The paper's
// evaluation is crash-free ("that scenario would be equivalent to migrating
// the ownerships acquired by the crashed node"); these tests exercise
// exactly that migration plus the loss-retry machinery.
#include <gtest/gtest.h>

#include "harness/cluster.hpp"
#include "m2paxos/m2paxos.hpp"
#include "test_util.hpp"
#include "workload/synthetic.hpp"

namespace m2 {
namespace {

using test::cmd;

struct FaultCluster {
  FaultCluster(core::Protocol p, int n, std::uint64_t seed = 1)
      : workload(wl::SyntheticConfig{n, 1000, 1.0, 0.0, 16, seed}),
        cfg(test::test_config(p, n, seed)),
        cluster(cfg, workload) {
    cluster.set_measuring(true);
  }
  wl::SyntheticWorkload workload;
  harness::ExperimentConfig cfg;
  harness::Cluster cluster;
};

TEST(FaultM2Paxos, OwnershipMigratesAwayFromCrashedOwner) {
  FaultCluster t(core::Protocol::kM2Paxos, 3);
  // Node 0 owns object 0 (preassigned). Crash it, then node 1 proposes on
  // that object: the forward times out and node 1 acquires ownership.
  t.cluster.crash(0);
  t.cluster.propose(1, cmd(1, 1, {0}));
  // Three forward timeouts pass before node 1 presumes the owner crashed
  // and acquires; allow a few more for the acquisition round itself.
  t.cluster.run_for(t.cfg.cluster.forward_timeout * 8);
  EXPECT_EQ(t.cluster.delivered_at(1), 1u);
  EXPECT_EQ(t.cluster.delivered_at(2), 1u);
  EXPECT_GE(test::count(t.cluster, 1, stats::Counter::kAcquisitions), 1u);
  auto& r1 = t.cluster.replica_as<m2p::M2PaxosReplica>(1);
  const auto* st = r1.table().find(0);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->owner, 1u);
}

TEST(FaultM2Paxos, PendingCommandsRecoveredAfterOwnerCrash) {
  FaultCluster t(core::Protocol::kM2Paxos, 5, 3);
  // The owner streams commands and crashes mid-flight; a survivor then
  // proposes on the same object. Recovery must force surviving accepted
  // commands and fill lost holes with no-ops so delivery never stalls.
  for (int i = 1; i <= 8; ++i) t.cluster.propose(0, cmd(0, i, {0}));
  t.cluster.run_for(120 * sim::kMicrosecond);  // mid-broadcast
  t.cluster.crash(0);
  t.cluster.propose(1, cmd(1, 1, {0}));
  t.cluster.run_for(t.cfg.cluster.forward_timeout * 10);

  // Node 1's command must be delivered at every survivor.
  for (NodeId n = 1; n < 5; ++n) {
    EXPECT_GE(t.cluster.delivered_at(n), 1u) << "node " << n;
  }
  // Survivors agree pairwise.
  std::vector<core::CStruct> survivors(t.cluster.cstructs().begin() + 1,
                                       t.cluster.cstructs().end());
  const auto report = core::check_pairwise_consistency(survivors);
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(FaultM2Paxos, MinorityCrashDoesNotBlockProgress) {
  FaultCluster t(core::Protocol::kM2Paxos, 5, 5);
  t.cluster.crash(3);
  t.cluster.crash(4);
  for (int i = 1; i <= 10; ++i) t.cluster.propose(0, cmd(0, i, {0}));
  t.cluster.run_for(100 * sim::kMillisecond);
  for (NodeId n = 0; n < 3; ++n) EXPECT_EQ(t.cluster.delivered_at(n), 10u);
}

TEST(FaultM2Paxos, MajorityCrashBlocksThenRecovers) {
  FaultCluster t(core::Protocol::kM2Paxos, 5, 7);
  t.cluster.crash(2);
  t.cluster.crash(3);
  t.cluster.crash(4);
  t.cluster.propose(0, cmd(0, 1, {0}));
  t.cluster.run_for(100 * sim::kMillisecond);
  EXPECT_EQ(t.cluster.delivered_at(0), 0u);  // no quorum: blocked

  t.cluster.recover(2);
  t.cluster.run_for(200 * sim::kMillisecond);
  EXPECT_EQ(t.cluster.delivered_at(0), 1u);  // retried and decided
  EXPECT_EQ(t.cluster.delivered_at(2), 1u);
}

TEST(FaultM2Paxos, MessageLossIsMaskedByRetries) {
  FaultCluster t(core::Protocol::kM2Paxos, 3, 9);
  // 20 % loss: accepts and acks get dropped; watchdogs retransmit the same
  // slots until a quorum acks.
  t.cluster.network().set_loss(0.2);
  for (int i = 1; i <= 10; ++i) t.cluster.propose(0, cmd(0, i, {0}));
  t.cluster.run_for(2 * sim::kSecond);
  EXPECT_EQ(t.cluster.delivered_at(0), 10u);
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(FaultM2Paxos, PartitionHealsAndCatchesUp) {
  FaultCluster t(core::Protocol::kM2Paxos, 5, 11);
  // Minority side {0, 1} cannot decide; majority side can.
  t.cluster.network().partition({0, 1});
  t.cluster.propose(0, cmd(0, 1, {0}));   // owner 0 in minority: blocked
  t.cluster.propose(2, cmd(2, 1, {2000})); // owner 2 in majority: decides
  t.cluster.run_for(50 * sim::kMillisecond);
  EXPECT_EQ(t.cluster.delivered_at(0), 0u);
  EXPECT_EQ(t.cluster.delivered_at(2), 1u);

  t.cluster.network().heal();
  t.cluster.run_for(500 * sim::kMillisecond);
  // After healing, the blocked command is retried and reaches everyone.
  // (Decisions broadcast during the partition are not replayed to the
  // minority — there is no anti-entropy — so only the majority side is
  // guaranteed to hold command 2's decision.)
  for (NodeId n = 0; n < 5; ++n)
    EXPECT_GE(t.cluster.delivered_at(n), 1u) << "node " << n;
  for (NodeId n = 2; n < 5; ++n)
    EXPECT_EQ(t.cluster.delivered_at(n), 2u) << "node " << n;
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(FaultEPaxos, MinorityCrashKeepsCommitting) {
  FaultCluster t(core::Protocol::kEPaxos, 5, 13);
  t.cluster.crash(4);
  // With one node down the ring fast quorum may be unreachable for some
  // leaders; conflicts and retries aside, the slow path needs a classic
  // quorum, which survives. Propose at a node whose fast-quorum peers are
  // alive: node 0's peers are 1 and 2 (fq=3 at N=5).
  for (int i = 1; i <= 5; ++i) t.cluster.propose(0, cmd(0, i, {1}));
  t.cluster.run_for(100 * sim::kMillisecond);
  EXPECT_EQ(t.cluster.delivered_at(0), 5u);
}

/// Duplicate deliveries (at-least-once transport) must be idempotent for
/// every protocol: all quorum counting is per-acceptor, and delivery is
/// exactly-once.
class DuplicationFault : public ::testing::TestWithParam<core::Protocol> {};

TEST_P(DuplicationFault, HeavyDuplicationStaysCorrect) {
  FaultCluster t(GetParam(), 3, 17);
  t.cluster.network().set_duplication(0.5);
  for (int i = 1; i <= 20; ++i)
    for (NodeId n = 0; n < 3; ++n)
      t.cluster.propose(n, cmd(n, i, {static_cast<core::ObjectId>(i % 4)}));
  t.cluster.run_for(2 * sim::kSecond);
  for (NodeId n = 0; n < 3; ++n)
    EXPECT_EQ(t.cluster.delivered_at(n), 60u)
        << core::to_string(GetParam()) << " node " << n;
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << core::to_string(GetParam()) << ": "
                         << report.violation;
  // Exactly-once commit accounting despite duplicated acks.
  EXPECT_EQ(t.cluster.committed_count(), 60u);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, DuplicationFault,
    ::testing::Values(core::Protocol::kMultiPaxos, core::Protocol::kGenPaxos,
                      core::Protocol::kEPaxos, core::Protocol::kM2Paxos),
    [](const ::testing::TestParamInfo<core::Protocol>& info) {
      return core::to_string(info.param);
    });

TEST(FaultMultiPaxos, LossToleratedByProposerRetries) {
  FaultCluster t(core::Protocol::kMultiPaxos, 3, 15);
  t.cluster.network().set_loss(0.15);
  for (int i = 1; i <= 10; ++i) t.cluster.propose(1, cmd(1, i, {0}));
  t.cluster.run_for(3 * sim::kSecond);
  EXPECT_EQ(t.cluster.delivered_at(1), 10u);
  EXPECT_TRUE(core::check_total_order(t.cluster.cstructs()).ok);
}

}  // namespace
}  // namespace m2
