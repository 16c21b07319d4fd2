// Anti-entropy (catch-up) extension tests: a replica that misses a Decide
// learns it from a peer's retention window instead of stalling until the
// next proposal on that object.
#include <gtest/gtest.h>

#include "harness/cluster.hpp"
#include "m2paxos/m2paxos.hpp"
#include "test_util.hpp"
#include "workload/synthetic.hpp"

namespace m2::m2p {
namespace {

using stats::Counter;
using test::cmd;

struct SyncCluster {
  explicit SyncCluster(int n, std::uint64_t seed = 1,
                       std::size_t gc_margin = 1024)
      : workload(wl::SyntheticConfig{n, 1000, 1.0, 0.0, 16, seed}),
        cfg(test::test_config(core::Protocol::kM2Paxos, n, seed)),
        cluster((cfg.cluster.sync_period = 5 * sim::kMillisecond,
                 cfg.cluster.gc_margin = gc_margin, cfg),
                workload) {
    cluster.set_measuring(true);
  }
  M2PaxosReplica& replica(NodeId n) {
    return cluster.replica_as<M2PaxosReplica>(n);
  }
  std::uint64_t count(NodeId n, Counter c) {
    return test::count(cluster, n, c);
  }
  wl::SyntheticWorkload workload;
  harness::ExperimentConfig cfg;
  harness::Cluster cluster;
};

TEST(M2PaxosSync, LaggingReplicaCatchesUpViaSync) {
  SyncCluster t(3);
  // Cut node 2 off from node 0's messages: it will miss Accept AND Decide
  // for node 0's commands.
  t.cluster.network().faults().set_link(0, 2, false);
  for (int i = 1; i <= 5; ++i) t.cluster.propose(0, cmd(0, i, {0}));
  t.cluster.run_for(20 * sim::kMillisecond);
  EXPECT_EQ(t.cluster.delivered_at(0), 5u);
  EXPECT_EQ(t.cluster.delivered_at(1), 5u);
  EXPECT_EQ(t.cluster.delivered_at(2), 0u);

  // Heal, then decide one more command so node 2 observes a gap (a decided
  // slot above its frontier) — that arms its sync probe.
  t.cluster.network().faults().set_link(0, 2, true);
  t.cluster.propose(0, cmd(0, 6, {0}));
  t.cluster.run_for(100 * sim::kMillisecond);

  EXPECT_EQ(t.cluster.delivered_at(2), 6u);
  EXPECT_GT(t.count(2, Counter::kSyncSlotsLearned), 0u);
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(M2PaxosSync, HealthyRunSendsNoProbes) {
  SyncCluster t(3);
  // Anti-entropy is demand-driven: with no losses there is nothing to
  // probe, and no periodic traffic may appear.
  for (int i = 1; i <= 10; ++i) t.cluster.propose(0, cmd(0, i, {0}));
  t.cluster.run_idle();
  for (NodeId n = 0; n < 3; ++n)
    EXPECT_EQ(t.count(n, Counter::kSyncProbes), 0u) << "node " << n;
}

TEST(M2PaxosSync, FrontierGcKeepsOnlyTheSyncMargin) {
  // Tiny GC margin: slots more than 4 instances behind the delivery
  // frontier are truncated, on every node, while delivery stays intact.
  SyncCluster t(3, 1, /*gc_margin=*/4);
  for (int i = 1; i <= 20; ++i) t.cluster.propose(0, cmd(0, i, {0}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 20));
  for (NodeId n = 0; n < 3; ++n) {
    const auto* st = t.replica(n).table().find(0);
    ASSERT_NE(st, nullptr) << "node " << n;
    EXPECT_EQ(st->last_appended, 20u) << "node " << n;
    // Retained window = exactly the margin below the frontier.
    EXPECT_EQ(st->log.base(), 20u + 1 - 4) << "node " << n;
    EXPECT_GT(t.count(n, Counter::kGcTruncatedSlots), 0u) << "node " << n;
  }
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(M2PaxosSync, LateSyncBelowTruncationHorizonAnswersRetainedWindow) {
  // A replica that falls behind the cluster's truncation horizon probes
  // with a from_instance the peers have already garbage-collected. The
  // peers must answer from their retained window (their frontier summary)
  // — not crash, not rebind truncated slots — and the laggard must hold
  // its frontier rather than deliver a suffix with a missing prefix.
  SyncCluster t(3, 1, /*gc_margin=*/4);
  t.cluster.network().faults().set_link(0, 2, false);
  t.cluster.network().faults().set_link(1, 2, false);
  for (int i = 1; i <= 30; ++i) t.cluster.propose(0, cmd(0, i, {0}));
  t.cluster.run_for(50 * sim::kMillisecond);
  EXPECT_EQ(t.cluster.delivered_at(0), 30u);
  EXPECT_EQ(t.cluster.delivered_at(1), 30u);
  for (NodeId n = 0; n < 2; ++n)
    EXPECT_GT(t.count(n, Counter::kGcTruncatedSlots), 0u) << "node " << n;

  t.cluster.network().faults().set_link(0, 2, true);
  t.cluster.network().faults().set_link(1, 2, true);
  // The next Decide reaches node 2 and exposes the gap, arming its sync
  // probe — which asks for instance 1, far below the peers' log base.
  t.cluster.propose(0, cmd(0, 31, {0}));
  t.cluster.run_for(200 * sim::kMillisecond);

  EXPECT_EQ(t.cluster.delivered_at(1), 31u);
  EXPECT_GT(t.count(2, Counter::kSyncProbes), 0u);
  // The peers taught the retained decisions above their base...
  EXPECT_GT(t.count(2, Counter::kSyncSlotsLearned), 0u);
  // ...but the truncated prefix is gone everywhere, so node 2's frontier
  // must hold at zero (prefix order forbids delivering the suffix alone).
  EXPECT_EQ(t.cluster.delivered_at(2), 0u);
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(M2PaxosSync, LatePrepareBelowTruncationHorizonRespectsFloors) {
  // An acquisition whose from_instance lies below the quorum's truncation
  // horizon: the promise floors (delivered frontiers) must steer the new
  // owner's writes above the truncated range — never into it — and the
  // surviving replicas keep delivering.
  SyncCluster t(3, 1, /*gc_margin=*/4);
  t.cluster.network().faults().set_link(0, 2, false);
  t.cluster.network().faults().set_link(1, 2, false);
  for (int i = 1; i <= 30; ++i) t.cluster.propose(0, cmd(0, i, {0}));
  t.cluster.run_for(50 * sim::kMillisecond);
  t.cluster.network().faults().set_link(0, 2, true);
  t.cluster.network().faults().set_link(1, 2, true);

  // The owner crashes; node 2 (frontier still 0) must take over object 0
  // with a Prepare starting at instance 1 — 26 instances below node 1's
  // log base.
  t.cluster.crash(0);
  t.cluster.propose(2, cmd(2, 1, {0}));
  t.cluster.run_for(500 * sim::kMillisecond);

  EXPECT_GT(t.count(2, Counter::kAcquisitions), 0u);
  // Node 1's promise carried floor 30: the command landed above it and
  // node 1's sequence extended past its old frontier intact. (The frontier
  // may advance past 31 — repeated takeover rounds fill their skipped
  // slots with no-ops — but exactly one non-noop command was added.)
  EXPECT_EQ(t.cluster.delivered_at(1), 31u);
  const auto* st1 = t.replica(1).table().find(0);
  ASSERT_NE(st1, nullptr);
  EXPECT_GE(st1->last_appended, 31u);
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(M2PaxosSync, SyncRepairsLostDecideWithoutNewProposals) {
  SyncCluster t(3);
  // Establish traffic, then drop node 0 -> node 1 for a burst, then heal:
  // node 1 misses decides but another decision creates the gap signal.
  for (int i = 1; i <= 3; ++i) t.cluster.propose(0, cmd(0, i, {0}));
  t.cluster.run_for(10 * sim::kMillisecond);
  t.cluster.network().faults().set_link(0, 1, false);
  for (int i = 4; i <= 6; ++i) t.cluster.propose(0, cmd(0, i, {0}));
  t.cluster.run_for(10 * sim::kMillisecond);
  t.cluster.network().faults().set_link(0, 1, true);
  // One more command after healing delivers the gap evidence to node 1.
  t.cluster.propose(0, cmd(0, 7, {0}));
  t.cluster.run_for(100 * sim::kMillisecond);
  EXPECT_EQ(t.cluster.delivered_at(1), 7u);
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

}  // namespace
}  // namespace m2::m2p
