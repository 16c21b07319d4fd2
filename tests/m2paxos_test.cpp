#include <gtest/gtest.h>

#include "harness/cluster.hpp"
#include "m2paxos/m2paxos.hpp"
#include "test_util.hpp"
#include "workload/synthetic.hpp"
#include "workload/tpcc.hpp"

namespace m2::m2p {
namespace {

using test::cmd;
using test::test_config;

/// Cluster with a synthetic partition map: node n owns objects
/// [n*1000, (n+1)*1000).
struct M2Cluster {
  explicit M2Cluster(int n, std::uint64_t seed = 1, bool preassign = true)
      : workload(wl::SyntheticConfig{n, 1000, 1.0, 0.0, 16, seed}),
        cfg(make_cfg(n, seed, preassign)),
        cluster(cfg, workload) {
    cluster.set_measuring(true);
  }
  static harness::ExperimentConfig make_cfg(int n, std::uint64_t seed,
                                            bool preassign) {
    auto cfg = test_config(core::Protocol::kM2Paxos, n, seed);
    cfg.preassign_ownership = preassign;
    return cfg;
  }
  M2PaxosReplica& replica(NodeId n) {
    return cluster.replica_as<M2PaxosReplica>(n);
  }

  wl::SyntheticWorkload workload;
  harness::ExperimentConfig cfg;
  harness::Cluster cluster;
};

core::ObjectId owned_by(NodeId n, core::ObjectId k = 0) { return n * 1000 + k; }

TEST(M2Paxos, FastPathSingleObject) {
  M2Cluster t(3);
  t.cluster.propose(0, cmd(0, 1, {owned_by(0)}));
  t.cluster.run_idle();

  EXPECT_EQ(t.cluster.committed_count(), 1u);
  EXPECT_TRUE(test::all_delivered(t.cluster, 1));
  const auto& c = t.replica(0).counters();
  EXPECT_EQ(c.fast_path_rounds, 1u);
  EXPECT_EQ(c.forwarded, 0u);
  EXPECT_EQ(c.acquisitions, 0u);
  EXPECT_EQ(c.retries, 0u);
}

TEST(M2Paxos, FastPathCommitIsTwoCommunicationDelays) {
  M2Cluster t(3);
  // Deterministic network for an exact latency assertion.
  // (jitter already off? keep generous bound instead.)
  t.cluster.propose(0, cmd(0, 1, {owned_by(0)}));
  t.cluster.run_idle();
  ASSERT_EQ(t.cluster.latency().count(), 1u);
  const auto rtt = 2 * t.cfg.network.latency.propagation;
  // One round trip (Accept + AckAccept) plus CPU costs; must be well under
  // two round trips (which would indicate a forward or prepare happened).
  EXPECT_GE(t.cluster.latency().max(), rtt / 2);
  EXPECT_LT(t.cluster.latency().max(), 2 * rtt);
}

TEST(M2Paxos, FastPathPipelinesManyCommands) {
  M2Cluster t(3);
  const int k = 50;
  for (int i = 1; i <= k; ++i)
    t.cluster.propose(0, cmd(0, i, {owned_by(0, i % 7)}));
  t.cluster.run_idle();
  EXPECT_EQ(t.cluster.committed_count(), static_cast<std::uint64_t>(k));
  EXPECT_TRUE(test::all_delivered(t.cluster, k));
  EXPECT_EQ(t.replica(0).counters().fast_path_rounds, static_cast<std::uint64_t>(k));
  EXPECT_EQ(t.replica(0).counters().retries, 0u);
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(M2Paxos, ForwardsToRemoteOwner) {
  M2Cluster t(3);
  // Node 1 proposes a command on node 0's object.
  t.cluster.propose(1, cmd(1, 1, {owned_by(0)}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 1));
  EXPECT_EQ(t.replica(1).counters().forwarded, 1u);
  EXPECT_EQ(t.replica(1).counters().acquisitions, 0u);
  // The owner executed the accept round.
  EXPECT_EQ(t.replica(0).counters().fast_path_rounds, 1u);
  // Commit is observed at the origin (proposer) too.
  EXPECT_EQ(t.cluster.committed_count(), 1u);
}

TEST(M2Paxos, AcquisitionWhenNoOwner) {
  M2Cluster t(3, 1, /*preassign=*/false);
  t.cluster.propose(2, cmd(2, 1, {owned_by(0)}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 1));
  EXPECT_EQ(t.replica(2).counters().acquisitions, 1u);
  // After acquisition, node 2 owns the object: next proposal is fast.
  t.cluster.propose(2, cmd(2, 2, {owned_by(0)}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 2));
  EXPECT_EQ(t.replica(2).counters().fast_path_rounds, 1u);
}

TEST(M2Paxos, MultiObjectFastPath) {
  M2Cluster t(3);
  t.cluster.propose(0, cmd(0, 1, {owned_by(0, 1), owned_by(0, 2), owned_by(0, 3)}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 1));
  EXPECT_EQ(t.replica(0).counters().fast_path_rounds, 1u);
  EXPECT_EQ(t.replica(0).counters().acquisitions, 0u);
}

TEST(M2Paxos, MultiOwnerCommandForwardsToPluralityThenAcquires) {
  M2Cluster t(3);
  // Objects owned by nodes 0 and 1: no unique owner. The proposer forwards
  // to the plurality holder (tie -> lowest id, node 0), which acquires only
  // the object it lacks instead of the proposer stealing both.
  t.cluster.propose(2, cmd(2, 1, {owned_by(0), owned_by(1)}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 1));
  EXPECT_GE(t.replica(2).counters().forwarded, 1u);
  EXPECT_EQ(t.replica(2).counters().acquisitions, 0u);
  EXPECT_GE(t.replica(0).counters().acquisitions, 1u);
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(M2Paxos, OwnershipMovesWithAcquisition) {
  M2Cluster t(3);
  t.cluster.propose(2, cmd(2, 1, {owned_by(0), owned_by(1)}));
  t.cluster.run_idle();
  // Node 0 (the plurality target) acquired node 1's object: it now owns
  // both everywhere, while node 1 was deposed.
  for (NodeId n = 0; n < 3; ++n) {
    const auto* st = t.replica(n).table().find(owned_by(1));
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->owner, 0u) << "node " << n;
  }
  // The deposed owner's next proposal on its old object must forward.
  t.cluster.propose(1, cmd(1, 1, {owned_by(1)}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 2));
  EXPECT_EQ(t.replica(1).counters().forwarded, 1u);
}

TEST(M2Paxos, ConcurrentConflictingProposalsStayConsistent) {
  M2Cluster t(3, 7, /*preassign=*/false);
  // All three nodes hammer the same object concurrently with no owner:
  // worst-case ownership contention (§IV-C).
  for (int i = 1; i <= 10; ++i)
    for (NodeId n = 0; n < 3; ++n)
      t.cluster.propose(n, cmd(n, i, {42}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 30));
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(M2Paxos, StealingOwnershipUnderLoadStaysConsistent) {
  M2Cluster t(3, 11);
  // Node 0 streams on its object while node 1 forces an acquisition of the
  // same object via a cross-partition command.
  for (int i = 1; i <= 20; ++i) t.cluster.propose(0, cmd(0, i, {owned_by(0)}));
  t.cluster.propose(1, cmd(1, 1, {owned_by(0), owned_by(1)}));
  for (int i = 2; i <= 20; ++i) t.cluster.propose(1, cmd(1, i, {owned_by(1)}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 40));
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(M2Paxos, DuplicateProposeIsIgnored) {
  M2Cluster t(3);
  const auto c = cmd(0, 1, {owned_by(0)});
  t.cluster.propose(0, c);
  t.cluster.run_idle();
  t.replica(0).propose(c);  // duplicate after delivery
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 1));
  EXPECT_EQ(t.replica(0).counters().fast_path_rounds, 1u);
}

TEST(M2Paxos, PerObjectDecisionsAgreeAcrossNodes) {
  M2Cluster t(5, 3);
  for (int i = 1; i <= 10; ++i)
    for (NodeId n = 0; n < 5; ++n)
      t.cluster.propose(n, cmd(n, i, {owned_by(n, i % 3)}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 50));
  // Decided[l][in] must be identical wherever it is set. Delivery frontier
  // equality is a strong proxy: all nodes appended the same commands.
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(M2Paxos, CountersAccumulateSanely) {
  M2Cluster t(3);
  for (int i = 1; i <= 5; ++i) t.cluster.propose(0, cmd(0, i, {owned_by(0)}));
  t.cluster.propose(1, cmd(1, 1, {owned_by(0)}));
  t.cluster.run_idle();
  const auto& c0 = t.replica(0).counters();
  EXPECT_EQ(c0.delivered, 6u);
  EXPECT_GE(c0.decided_slots, 6u);
  EXPECT_EQ(t.replica(1).counters().forwarded, 1u);
}

TEST(M2Paxos, TpccWarehouseLocalityKeepsFastPathDominant) {
  // The mechanism behind Fig. 8: with warehouses homed per node, almost
  // every TPC-C command is decided by its proposer on the fast path; only
  // remote-customer payments and remote stock lines need acquisitions, and
  // the warehouse object itself never migrates (plurality forwarding).
  wl::TpccWorkload workload({5, 10, 0.0, 34});
  auto cfg = test::test_config(core::Protocol::kM2Paxos, 5, 34);
  harness::Cluster cluster(cfg, workload);
  cluster.set_measuring(true);
  for (int i = 0; i < 60; ++i)
    for (NodeId n = 0; n < 5; ++n) cluster.propose(n, workload.next(n));
  cluster.run_idle();

  std::uint64_t fast = 0, fwd = 0, acq = 0;
  for (NodeId n = 0; n < 5; ++n) {
    const auto& c = cluster.replica_as<M2PaxosReplica>(n).counters();
    fast += c.fast_path_rounds;
    fwd += c.forwarded;
    acq += c.acquisitions;
  }
  EXPECT_GT(fast, 5 * acq) << "fast=" << fast << " fwd=" << fwd
                           << " acq=" << acq;
  // Warehouse objects stay homed: each node still owns its warehouses.
  for (NodeId n = 0; n < 5; ++n) {
    auto& r = cluster.replica_as<M2PaxosReplica>(n);
    for (int w = 0; w < 50; ++w) {
      const auto* st = r.table().find(wl::TpccWorkload::warehouse_obj(w));
      if (st == nullptr) continue;  // warehouse never touched
      EXPECT_EQ(st->owner, static_cast<NodeId>(w / 10))
          << "warehouse " << w << " migrated (view of node " << n << ")";
    }
  }
  const auto report = cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(M2Paxos, ContentionStormFallsBackToConflictLeader) {
  // Seven nodes fight over three objects with multi-object commands: the
  // adverse workload of §IV-C. Commands that keep losing ownership races
  // must route through the conflict leader and still all deliver.
  M2Cluster t(7, 23, /*preassign=*/false);
  for (int i = 1; i <= 15; ++i)
    for (NodeId n = 0; n < 7; ++n)
      t.cluster.propose(
          n, cmd(n, i, {static_cast<core::ObjectId>(i % 3),
                        static_cast<core::ObjectId>((i + 1) % 3)}));
  t.cluster.run_idle();
  EXPECT_TRUE(test::all_delivered(t.cluster, 105));
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
  std::uint64_t fallbacks = 0;
  for (NodeId n = 0; n < 7; ++n)
    fallbacks += t.replica(n).counters().fallbacks;
  // Whether the storm actually exceeds the threshold is seed-dependent;
  // the assertion is that delivery converged either way.
  (void)fallbacks;
}

// Parameterized consistency sweep: node counts x seeds, adversarial
// object space (few objects => heavy conflicts).
struct SweepParam {
  int n_nodes;
  std::uint64_t seed;
  int objects;
};

// Names the test cases (gtest_discover_tests prints the parameter into each
// name). gtest's default byte dump would include the struct's padding,
// which is uninitialized, so the names would differ between builds.
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << "n" << p.n_nodes << "_s" << p.seed << "_o" << p.objects;
}

class M2PaxosSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(M2PaxosSweep, ConflictHeavyWorkloadConvergesConsistently) {
  const auto p = GetParam();
  M2Cluster t(p.n_nodes, p.seed, /*preassign=*/false);
  sim::Rng rng(p.seed * 77 + 1);
  const int per_node = 12;
  for (int i = 1; i <= per_node; ++i) {
    for (NodeId n = 0; n < static_cast<NodeId>(p.n_nodes); ++n) {
      // 1-2 objects per command from a tiny hot set.
      core::ObjectList ls{rng.uniform(p.objects)};
      if (rng.chance(0.4)) ls.push_back(rng.uniform(p.objects));
      t.cluster.propose(n, core::Command(core::CommandId::make(n, i), ls));
    }
  }
  t.cluster.run_idle();
  const auto expected =
      static_cast<std::uint64_t>(per_node) * static_cast<std::uint64_t>(p.n_nodes);
  EXPECT_TRUE(test::all_delivered(t.cluster, expected))
      << "n=" << p.n_nodes << " seed=" << p.seed;
  const auto report = t.cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, M2PaxosSweep,
    ::testing::Values(SweepParam{3, 1, 2}, SweepParam{3, 2, 5},
                      SweepParam{3, 3, 1}, SweepParam{5, 4, 3},
                      SweepParam{5, 5, 8}, SweepParam{5, 6, 1},
                      SweepParam{7, 7, 4}, SweepParam{7, 8, 2}));

}  // namespace
}  // namespace m2::m2p
