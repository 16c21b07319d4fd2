// Regression guard for the simulator hot-path overhaul: the allocation-free
// event queue, flat link tables, and dense payload-kind accounting must not
// perturb simulated behavior. A full 5-node M2Paxos experiment run twice at
// the same seed must produce bit-identical delivered command orders on every
// node and identical traffic accounting — any divergence means some hot-path
// structure leaked nondeterminism (e.g. iteration order or clock skew) into
// the simulation.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "workload/synthetic.hpp"

namespace m2 {
namespace {

struct RunSnapshot {
  std::uint64_t committed = 0;
  std::uint64_t proposals = 0;
  net::TrafficCounters traffic;
  std::map<std::string, std::uint64_t> bytes_by_kind;
  std::uint64_t gc_truncated = 0;  // summed across nodes, in the window
  // Delivered command ids, in order, per node.
  std::vector<std::vector<std::uint64_t>> orders;
};

RunSnapshot run_once(std::uint64_t seed, std::uint64_t objects_per_node = 1000,
                     std::size_t gc_margin = 1024) {
  constexpr int kNodes = 5;
  wl::SyntheticWorkload w({kNodes, objects_per_node, 0.8, 0.1, 16, seed});
  auto cfg = harness::default_config(core::Protocol::kM2Paxos, kNodes, seed);
  cfg.warmup = 5 * sim::kMillisecond;
  cfg.measure = 20 * sim::kMillisecond;
  cfg.audit = true;  // also checks cross-node prefix agreement
  cfg.cluster.gc_margin = gc_margin;
  harness::Cluster cluster(cfg, w);
  const auto r = cluster.run();
  RunSnapshot snap;
  snap.committed = r.committed;
  snap.proposals = r.proposals;
  snap.traffic = r.traffic;
  snap.bytes_by_kind = r.bytes_by_kind;
  snap.gc_truncated = r.metrics.counter(stats::Counter::kGcTruncatedSlots);
  for (const auto& cs : cluster.cstructs()) {
    std::vector<std::uint64_t> order;
    order.reserve(cs.sequence().size());
    for (const auto& c : cs.sequence()) order.push_back(c.id.value);
    snap.orders.push_back(std::move(order));
  }
  return snap;
}

TEST(Determinism, M2PaxosRunTwiceSameSeedIsIdentical) {
  const auto a = run_once(42);
  const auto b = run_once(42);

  ASSERT_GT(a.committed, 0u) << "experiment must actually commit commands";
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.proposals, b.proposals);

  EXPECT_EQ(a.traffic.messages_sent, b.traffic.messages_sent);
  EXPECT_EQ(a.traffic.bytes_sent, b.traffic.bytes_sent);
  EXPECT_EQ(a.traffic.messages_delivered, b.traffic.messages_delivered);
  EXPECT_EQ(a.traffic.batches_sent, b.traffic.batches_sent);
  EXPECT_EQ(a.traffic.messages_dropped, b.traffic.messages_dropped);
  EXPECT_EQ(a.bytes_by_kind, b.bytes_by_kind);

  ASSERT_EQ(a.orders.size(), b.orders.size());
  for (std::size_t n = 0; n < a.orders.size(); ++n) {
    ASSERT_FALSE(a.orders[n].empty()) << "node " << n << " delivered nothing";
    EXPECT_EQ(a.orders[n], b.orders[n])
        << "node " << n << " delivered a different command order";
  }
}

// Same guard with frontier GC actively truncating: few hot objects and a
// tiny margin keep the logs rolling over throughout the run, so the
// truncation path (ring rebasing, pooled block recycling, late-decide
// rejection below base) is itself pinned as deterministic.
TEST(Determinism, M2PaxosWithFrontierGcIsIdentical) {
  const auto a = run_once(42, /*objects_per_node=*/2, /*gc_margin=*/2);
  const auto b = run_once(42, /*objects_per_node=*/2, /*gc_margin=*/2);

  ASSERT_GT(a.committed, 0u) << "experiment must actually commit commands";
  ASSERT_GT(a.gc_truncated, 0u) << "GC must actually truncate in this run";
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.proposals, b.proposals);
  EXPECT_EQ(a.gc_truncated, b.gc_truncated);
  EXPECT_EQ(a.traffic.messages_sent, b.traffic.messages_sent);
  EXPECT_EQ(a.traffic.bytes_sent, b.traffic.bytes_sent);
  EXPECT_EQ(a.bytes_by_kind, b.bytes_by_kind);
  ASSERT_EQ(a.orders.size(), b.orders.size());
  for (std::size_t n = 0; n < a.orders.size(); ++n)
    EXPECT_EQ(a.orders[n], b.orders[n])
        << "node " << n << " delivered a different command order";
}

// Different seeds must diverge: if they did not, the "determinism" above
// would be vacuous (e.g. the seed being ignored entirely).
TEST(Determinism, DifferentSeedsProduceDifferentRuns) {
  const auto a = run_once(42);
  const auto b = run_once(43);
  EXPECT_NE(a.traffic.bytes_sent, b.traffic.bytes_sent);
}

}  // namespace
}  // namespace m2
