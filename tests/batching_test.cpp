// Protocol-level command batching regressions: multi-command slot values
// must be an invisible transport optimization. Batching on vs off may
// change global interleavings (commands share slots), but never the
// delivered command set, never a per-object delivery order, and never the
// safety invariants — and a batched run must itself be bit-deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "harness/experiment.hpp"
#include "test_util.hpp"
#include "workload/synthetic.hpp"

namespace m2 {
namespace {

using stats::Counter;
using test::cmd;

/// Delivered commands of one run, per node, in delivery order.
struct PlanResult {
  std::vector<std::vector<core::Command>> orders;
  std::uint64_t batched_rounds = 0;    // M2: accept rounds sent batched
  std::uint64_t batched_commands = 0;  // commands carried by those rounds
  bool audit_ok = false;
  std::string violation;
};

/// Drives a fixed 5-node proposal plan: every simulated millisecond each
/// node proposes a burst of 4 single-object commands against its own
/// partition (bursts are what the batch accumulator coalesces), then the
/// cluster drains to idle so both batched and unbatched runs decide the
/// exact same command population.
PlanResult run_m2_plan(bool batching) {
  constexpr int kNodes = 5;
  constexpr int kRounds = 12;
  constexpr int kBurst = 4;
  wl::SyntheticWorkload w({kNodes, 1000, 1.0, 0.0, 16, 1});
  auto cfg = test::test_config(core::Protocol::kM2Paxos, kNodes);
  cfg.cluster.batching.enabled = batching;
  harness::Cluster cluster(cfg, w);

  std::uint64_t seq[kNodes] = {};
  for (int r = 0; r < kRounds; ++r) {
    for (NodeId n = 0; n < kNodes; ++n)
      for (int j = 0; j < kBurst; ++j) {
        const core::ObjectId object =
            static_cast<core::ObjectId>(n) * 1000 + j % 3;
        cluster.propose(n, cmd(n, ++seq[n], {object}));
      }
    cluster.run_for(1 * sim::kMillisecond);
  }
  cluster.run_idle();

  PlanResult out;
  for (const auto& cs : cluster.cstructs()) {
    std::vector<core::Command> order(cs.sequence().begin(),
                                     cs.sequence().end());
    out.orders.push_back(std::move(order));
  }
  for (NodeId n = 0; n < kNodes; ++n) {
    out.batched_rounds += test::count(cluster, n, Counter::kBatchedRounds);
    out.batched_commands += test::count(cluster, n, Counter::kBatchedCommands);
  }
  const auto report = cluster.audit_consistency();
  out.audit_ok = report.ok;
  out.violation = report.violation;
  return out;
}

/// Per-object projection of one node's delivered order (commands here are
/// single-object, so each delivery belongs to exactly one projection).
std::map<core::ObjectId, std::vector<std::uint64_t>> project(
    const std::vector<core::Command>& order) {
  std::map<core::ObjectId, std::vector<std::uint64_t>> by_object;
  for (const auto& c : order) by_object[c.objects[0]].push_back(c.id.value);
  return by_object;
}

std::multiset<std::uint64_t> id_set(const std::vector<core::Command>& order) {
  std::multiset<std::uint64_t> ids;
  for (const auto& c : order) ids.insert(c.id.value);
  return ids;
}

TEST(Batching, M2PaxosBatchingPreservesSetAndPerObjectOrder) {
  const PlanResult off = run_m2_plan(false);
  const PlanResult on = run_m2_plan(true);

  EXPECT_TRUE(off.audit_ok) << off.violation;
  EXPECT_TRUE(on.audit_ok) << on.violation;
  EXPECT_EQ(off.batched_rounds, 0u);
  EXPECT_GT(on.batched_rounds, 0u) << "the batched run never batched";
  EXPECT_GT(on.batched_commands, on.batched_rounds)
      << "batched rounds must carry multiple commands";

  ASSERT_EQ(off.orders.size(), on.orders.size());
  for (std::size_t n = 0; n < off.orders.size(); ++n) {
    ASSERT_FALSE(off.orders[n].empty()) << "node " << n << " delivered nothing";
    // Same command set (batching must not drop or duplicate deliveries)...
    EXPECT_EQ(id_set(off.orders[n]), id_set(on.orders[n])) << "node " << n;
    // ...and identical per-object delivery order (slot order per object is
    // the protocol's contract; the batch accumulator is FIFO).
    EXPECT_EQ(project(off.orders[n]), project(on.orders[n])) << "node " << n;
  }
}

/// Multi-Paxos: same plan through the leader. The total order may regroup
/// under batching, but the delivered set, the cross-node agreement, and
/// each proposer's FIFO projection must survive.
TEST(Batching, MultiPaxosBatchingPreservesSetAndProposerOrder) {
  constexpr int kNodes = 5;
  auto run_plan = [&](bool batching) {
    wl::SyntheticWorkload w({kNodes, 1000, 1.0, 0.0, 16, 1});
    auto cfg = test::test_config(core::Protocol::kMultiPaxos, kNodes);
    cfg.cluster.batching.enabled = batching;
    harness::Cluster cluster(cfg, w);
    std::uint64_t seq[kNodes] = {};
    for (int r = 0; r < 12; ++r) {
      for (NodeId n = 0; n < kNodes; ++n)
        for (int j = 0; j < 4; ++j)
          cluster.propose(
              n, cmd(n, ++seq[n],
                     {static_cast<core::ObjectId>(n) * 1000 + j % 3}));
      cluster.run_for(1 * sim::kMillisecond);
    }
    cluster.run_idle();
    PlanResult out;
    for (const auto& cs : cluster.cstructs())
      out.orders.emplace_back(cs.sequence().begin(), cs.sequence().end());
    for (NodeId n = 0; n < kNodes; ++n) {
      out.batched_rounds += test::count(cluster, n, Counter::kBatchedRounds);
      out.batched_commands +=
          test::count(cluster, n, Counter::kBatchedCommands);
    }
    const auto report = cluster.audit_consistency();
    out.audit_ok = report.ok;
    out.violation = report.violation;
    return out;
  };
  const PlanResult off = run_plan(false);
  const PlanResult on = run_plan(true);

  EXPECT_TRUE(off.audit_ok) << off.violation;
  EXPECT_TRUE(on.audit_ok) << on.violation;
  EXPECT_EQ(off.batched_rounds, 0u);
  EXPECT_GT(on.batched_rounds, 0u) << "the batched run never batched";
  EXPECT_GT(on.batched_commands, on.batched_rounds);

  // Per-proposer projection: forwarding and the leader's accumulator are
  // both FIFO, so each proposer's commands commit in proposal order.
  auto by_proposer = [](const std::vector<core::Command>& order) {
    std::map<std::uint32_t, std::vector<std::uint64_t>> out;
    for (const auto& c : order) out[c.id.proposer()].push_back(c.id.value);
    return out;
  };
  ASSERT_EQ(off.orders.size(), on.orders.size());
  for (std::size_t n = 0; n < off.orders.size(); ++n) {
    ASSERT_FALSE(off.orders[n].empty()) << "node " << n << " delivered nothing";
    EXPECT_EQ(id_set(off.orders[n]), id_set(on.orders[n])) << "node " << n;
    EXPECT_EQ(by_proposer(off.orders[n]), by_proposer(on.orders[n]))
        << "node " << n;
  }
}

/// A batched open-loop run is bit-deterministic: same seed, same delivered
/// orders, same traffic. Few hot objects keep the accumulator full so the
/// batch structures themselves (pooled CommandBatch values, pipelined
/// rounds, window timers) are on the hot path being pinned.
TEST(Batching, M2PaxosBatchedRunIsDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    constexpr int kNodes = 5;
    wl::SyntheticWorkload w({kNodes, 8, 0.8, 0.1, 16, seed});
    auto cfg = harness::default_config(core::Protocol::kM2Paxos, kNodes, seed);
    cfg.warmup = 5 * sim::kMillisecond;
    cfg.measure = 20 * sim::kMillisecond;
    cfg.audit = true;
    cfg.cluster.batching.enabled = true;
    harness::Cluster cluster(cfg, w);
    const auto r = cluster.run();
    const std::uint64_t batched_rounds =
        r.metrics.counter(Counter::kBatchedRounds);
    std::vector<std::vector<std::uint64_t>> orders;
    for (const auto& cs : cluster.cstructs()) {
      std::vector<std::uint64_t> order;
      for (const auto& c : cs.sequence()) order.push_back(c.id.value);
      orders.push_back(std::move(order));
    }
    return std::tuple(r.committed, r.traffic.messages_sent,
                      r.traffic.bytes_sent, r.bytes_by_kind, batched_rounds,
                      orders);
  };
  const auto a = run_once(42);
  const auto b = run_once(42);
  ASSERT_GT(std::get<0>(a), 0u) << "run must actually commit commands";
  ASSERT_GT(std::get<4>(a), 0u) << "run must actually batch";
  EXPECT_EQ(a, b);
}

/// Frontier GC with batches: a laggard probing below the peers' truncation
/// horizon gets the retained window back — whole batched slot values, not
/// just the head commands — and holds its frontier over the missing
/// truncated prefix.
TEST(Batching, M2PaxosFrontierGcWithBatchesAnswersLateSync) {
  constexpr int kNodes = 3;
  wl::SyntheticWorkload w({kNodes, 1000, 1.0, 0.0, 16, 1});
  auto cfg = test::test_config(core::Protocol::kM2Paxos, kNodes);
  cfg.cluster.sync_period = 5 * sim::kMillisecond;
  cfg.cluster.gc_margin = 4;
  cfg.cluster.batching.enabled = true;
  harness::Cluster cluster(cfg, w);
  cluster.set_measuring(true);

  cluster.network().faults().set_link(0, 2, false);
  cluster.network().faults().set_link(1, 2, false);
  // Bursts of 3 against one hot object: the accumulator closes them into
  // multi-command slots, and 30 commands over ~10 slots push the frontier
  // far enough past gc_margin=4 that truncation provably ran.
  for (int burst = 0; burst < 10; ++burst) {
    for (int j = 1; j <= 3; ++j)
      cluster.propose(0, cmd(0, burst * 3 + j, {0}));
    cluster.run_for(1 * sim::kMillisecond);
  }
  cluster.run_for(50 * sim::kMillisecond);
  EXPECT_EQ(cluster.delivered_at(0), 30u);
  EXPECT_EQ(cluster.delivered_at(1), 30u);
  EXPECT_EQ(cluster.delivered_at(2), 0u);
  EXPECT_GT(test::count(cluster, 0, Counter::kBatchedRounds), 0u);
  for (NodeId n = 0; n < 2; ++n)
    EXPECT_GT(test::count(cluster, n, Counter::kGcTruncatedSlots), 0u)
        << "node " << n;

  cluster.network().faults().set_link(0, 2, true);
  cluster.network().faults().set_link(1, 2, true);
  // The next decide reaches node 2 and exposes the gap, arming its probe —
  // which asks from instance 1, below the peers' truncated log base.
  cluster.propose(0, cmd(0, 31, {0}));
  cluster.run_for(200 * sim::kMillisecond);

  EXPECT_EQ(cluster.delivered_at(1), 31u);
  EXPECT_GT(test::count(cluster, 2, Counter::kSyncProbes), 0u);
  // The peers taught their retained decisions — including batch tails —
  EXPECT_GT(test::count(cluster, 2, Counter::kSyncSlotsLearned), 0u);
  // — but the truncated prefix is gone, so the frontier must hold.
  EXPECT_EQ(cluster.delivered_at(2), 0u);
  const auto report = cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

}  // namespace
}  // namespace m2
