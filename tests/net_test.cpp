#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/latency.hpp"
#include "net/link_faults.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace m2::net {
namespace {

struct Ping final : Payload {
  explicit Ping(std::size_t bytes = 100) : bytes_(bytes) {}
  std::size_t bytes_;
  std::uint32_t kind() const override { return 9001; }
  std::size_t wire_size() const override { return bytes_; }
  const char* name() const override { return "Ping"; }
};

NetworkConfig quiet_config() {
  NetworkConfig cfg;
  cfg.latency.jitter_sigma = 0;  // deterministic delays for exact asserts
  return cfg;
}

// ---------------------------------------------------------------------
// LinkFaults: the one set of link-fault rules both substrates follow
// ---------------------------------------------------------------------

TEST(LinkFaults, PartitionRewritesTheLinkMatrix) {
  LinkFaults faults(4);
  faults.partition({0, 1});
  for (NodeId from = 0; from < 4; ++from)
    for (NodeId to = 0; to < 4; ++to)
      EXPECT_EQ(faults.link_up(from, to), (from < 2) == (to < 2))
          << from << "->" << to;
}

TEST(LinkFaults, LinkUpDuringAPartitionReopensThatLink) {
  LinkFaults faults(3);
  faults.partition({0});
  faults.set_link(0, 2, true);
  EXPECT_TRUE(faults.link_up(0, 2));
  EXPECT_FALSE(faults.link_up(2, 0));  // directed: only 0->2 reopened
  EXPECT_FALSE(faults.link_up(0, 1));
  EXPECT_TRUE(faults.link_up(1, 2));
}

TEST(LinkFaults, HealClearsLinksOnly) {
  LinkFaults faults(3);
  faults.partition({0});
  faults.set_link(1, 2, false);
  faults.set_loss(0.25);
  faults.set_duplication(0.5);
  faults.set_latency_scale(4.0);
  faults.set_throttle(1, 0, 7 * sim::kMillisecond);
  faults.heal();
  for (NodeId from = 0; from < 3; ++from)
    for (NodeId to = 0; to < 3; ++to) EXPECT_TRUE(faults.link_up(from, to));
  EXPECT_EQ(faults.loss(), 0.25);
  EXPECT_EQ(faults.duplication(), 0.5);
  EXPECT_EQ(faults.latency_scale(), 4.0);
  EXPECT_EQ(faults.throttle(1, 0), 7 * sim::kMillisecond);
}

TEST(LinkFaults, ClearResetsEverything) {
  LinkFaults faults(3, /*loss=*/0.1);
  EXPECT_EQ(faults.loss(), 0.1);
  faults.partition({2});
  faults.set_duplication(0.5);
  faults.set_latency_scale(4.0);
  faults.set_throttle(0, 1, sim::kMillisecond);
  faults.clear();
  for (NodeId from = 0; from < 3; ++from)
    for (NodeId to = 0; to < 3; ++to) {
      EXPECT_TRUE(faults.link_up(from, to));
      EXPECT_EQ(faults.throttle(from, to), 0);
    }
  EXPECT_EQ(faults.loss(), 0.0);
  EXPECT_EQ(faults.duplication(), 0.0);
  EXPECT_EQ(faults.latency_scale(), 1.0);
}

TEST(LinkFaults, RollsDrawOnlyWhenTheFaultIsOn) {
  LinkFaults faults(2);
  sim::Rng rng(3);
  sim::Rng untouched(3);
  EXPECT_FALSE(faults.lose(rng));
  EXPECT_FALSE(faults.duplicate(rng));
  EXPECT_EQ(rng.next(), untouched.next());
  faults.set_loss(1.0);
  faults.set_duplication(1.0);
  EXPECT_TRUE(faults.lose(rng));
  EXPECT_TRUE(faults.duplicate(rng));
}

// ---------------------------------------------------------------------
// LatencyModel
// ---------------------------------------------------------------------

TEST(LatencyModel, SerializationMatchesBandwidth) {
  LatencyConfig cfg;
  cfg.bandwidth_gbps = 8.0;  // 1 GB/s
  LatencyModel model(cfg);
  // 1000 bytes at 1 GB/s = 1 microsecond.
  EXPECT_EQ(model.serialization(1000), 1 * sim::kMicrosecond);
}

TEST(LatencyModel, OneWayIncludesPropagationAndSize) {
  LatencyConfig cfg;
  cfg.propagation = 100 * sim::kMicrosecond;
  cfg.bandwidth_gbps = 8.0;
  cfg.jitter_sigma = 0;
  LatencyModel model(cfg);
  sim::Rng rng(1);
  EXPECT_EQ(model.one_way(1000, rng),
            100 * sim::kMicrosecond + 1 * sim::kMicrosecond);
}

TEST(LatencyModel, JitterSpreadsDelays) {
  LatencyConfig cfg;
  cfg.jitter_sigma = 0.3;
  LatencyModel model(cfg);
  sim::Rng rng(2);
  sim::Time lo = INT64_MAX, hi = 0;
  for (int i = 0; i < 1000; ++i) {
    const sim::Time d = model.one_way(0, rng);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_LT(lo, cfg.propagation);
  EXPECT_GT(hi, cfg.propagation);
}

// ---------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------

TEST(Network, DeliversWithLatency) {
  sim::Simulator sim;
  Network net(sim, quiet_config(), 2);
  sim::Time arrival = -1;
  net.set_delivery(1, [&](const Envelope& env) {
    arrival = sim.now();
    EXPECT_EQ(env.from, 0u);
    EXPECT_EQ(env.to, 1u);
  });
  net.send(0, 1, make_payload<Ping>());
  sim.run();
  EXPECT_GT(arrival, 0);
  EXPECT_GE(arrival, quiet_config().latency.propagation);
}

TEST(Network, LoopbackIsImmediate) {
  sim::Simulator sim;
  Network net(sim, quiet_config(), 2);
  sim::Time arrival = -1;
  net.set_delivery(0, [&](const Envelope&) { arrival = sim.now(); });
  net.send(0, 0, make_payload<Ping>());
  sim.run();
  EXPECT_EQ(arrival, 0);
}

TEST(Network, BroadcastReachesEveryone) {
  sim::Simulator sim;
  Network net(sim, quiet_config(), 5);
  int received = 0;
  for (NodeId n = 0; n < 5; ++n)
    net.set_delivery(n, [&](const Envelope&) { ++received; });
  net.broadcast(2, make_payload<Ping>(), false);
  sim.run();
  EXPECT_EQ(received, 4);
  received = 0;
  net.broadcast(2, make_payload<Ping>(), true);
  sim.run();
  EXPECT_EQ(received, 5);
}

TEST(Network, NicSharedBandwidthSerializesEgress) {
  sim::Simulator sim;
  auto cfg = quiet_config();
  cfg.latency.bandwidth_gbps = 0.008;  // 1 MB/s: size dominates
  Network net(sim, cfg, 3);
  std::vector<sim::Time> arrivals;
  for (NodeId n = 1; n < 3; ++n)
    net.set_delivery(n, [&](const Envelope&) { arrivals.push_back(sim.now()); });
  // Two 10 kB messages from node 0 must serialize at its NIC.
  net.send(0, 1, make_payload<Ping>(10000));
  net.send(0, 2, make_payload<Ping>(10000));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const sim::Time gap = std::abs(arrivals[1] - arrivals[0]);
  // Each message takes ~10 ms to serialize at 1 MB/s.
  EXPECT_GT(gap, 5 * sim::kMillisecond);
}

TEST(Network, BatchingCoalescesMessages) {
  sim::Simulator sim;
  auto cfg = quiet_config();
  cfg.batching = true;
  cfg.batch_window = 100 * sim::kMicrosecond;
  Network net(sim, cfg, 2);
  std::vector<sim::Time> arrivals;
  net.set_delivery(1, [&](const Envelope&) { arrivals.push_back(sim.now()); });
  for (int i = 0; i < 10; ++i) net.send(0, 1, make_payload<Ping>());
  sim.run();
  ASSERT_EQ(arrivals.size(), 10u);
  // All arrive together (one batch, one flush).
  EXPECT_EQ(arrivals.front(), arrivals.back());
  EXPECT_EQ(net.counters(0).batches_sent, 1u);
}

TEST(Network, BatchFlushesAtMessageLimit) {
  sim::Simulator sim;
  auto cfg = quiet_config();
  cfg.batching = true;
  cfg.batch_max_messages = 4;
  cfg.latency.propagation = sim::kMicrosecond;  // arrival well inside window
  Network net(sim, cfg, 2);
  int received = 0;
  sim::Time first_arrival = -1;
  net.set_delivery(1, [&](const Envelope&) {
    if (received == 0) first_arrival = sim.now();
    ++received;
  });
  for (int i = 0; i < 4; ++i) net.send(0, 1, make_payload<Ping>());
  sim.run_until(cfg.batch_window / 2);
  // Limit reached: flushed before the window expired.
  EXPECT_EQ(received, 4);
  EXPECT_LT(first_arrival, cfg.batch_window);
}

TEST(Network, BatchFlushesAtByteLimit) {
  sim::Simulator sim;
  auto cfg = quiet_config();
  cfg.batching = true;
  cfg.batch_max_bytes = 1024;
  cfg.latency.propagation = sim::kMicrosecond;
  Network net(sim, cfg, 2);
  int received = 0;
  net.set_delivery(1, [&](const Envelope&) { ++received; });
  // Two 600-byte messages exceed the 1 KiB byte limit -> early flush.
  net.send(0, 1, make_payload<Ping>(600));
  net.send(0, 1, make_payload<Ping>(600));
  sim.run_until(cfg.batch_window / 2);
  EXPECT_EQ(received, 2);
}

TEST(Network, DuplicationDeliversTwice) {
  sim::Simulator sim;
  Network net(sim, quiet_config(), 2);
  net.faults().set_duplication(1.0);
  int received = 0;
  net.set_delivery(1, [&](const Envelope&) { ++received; });
  net.send(0, 1, make_payload<Ping>());
  sim.run();
  EXPECT_EQ(received, 2);
}

TEST(Network, LossDropsMessages) {
  sim::Simulator sim;
  auto cfg = quiet_config();
  cfg.loss_probability = 1.0;
  Network net(sim, cfg, 2);
  int received = 0;
  net.set_delivery(1, [&](const Envelope&) { ++received; });
  for (int i = 0; i < 20; ++i) net.send(0, 1, make_payload<Ping>());
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.counters(0).messages_dropped, 20u);
}

TEST(Network, PartitionBlocksAcrossGroups) {
  sim::Simulator sim;
  Network net(sim, quiet_config(), 4);
  std::vector<int> received(4, 0);
  for (NodeId n = 0; n < 4; ++n)
    net.set_delivery(n, [&received, n](const Envelope&) { ++received[n]; });
  net.faults().partition({0, 1});
  net.broadcast(0, make_payload<Ping>(), false);
  sim.run();
  EXPECT_EQ(received[1], 1);
  EXPECT_EQ(received[2], 0);
  EXPECT_EQ(received[3], 0);
  net.faults().heal();
  net.broadcast(0, make_payload<Ping>(), false);
  sim.run();
  EXPECT_EQ(received[2], 1);
  EXPECT_EQ(received[3], 1);
}

TEST(Network, ThrottleDelaysOneDirectedLinkAndKeepsFifo) {
  sim::Simulator sim;
  Network net(sim, quiet_config(), 2);
  constexpr sim::Time kThrottle = 5 * sim::kMillisecond;
  net.faults().set_throttle(0, 1, kThrottle);
  std::vector<sim::Time> at_1;
  std::vector<std::size_t> sizes_at_1;
  sim::Time at_0 = -1;
  net.set_delivery(1, [&](const Envelope& env) {
    at_1.push_back(sim.now());
    sizes_at_1.push_back(env.payload->wire_size());
  });
  net.set_delivery(0, [&](const Envelope&) { at_0 = sim.now(); });
  for (std::size_t i = 1; i <= 10; ++i) net.send(0, 1, make_payload<Ping>(i));
  net.send(1, 0, make_payload<Ping>());
  sim.run();

  const sim::Time base = quiet_config().latency.propagation;
  ASSERT_EQ(at_1.size(), 10u);
  EXPECT_GE(at_1.front(), base + kThrottle);
  // The reverse link is not throttled.
  EXPECT_GE(at_0, base);
  EXPECT_LT(at_0, base + kThrottle);
  // FIFO holds on the throttled link.
  for (std::size_t i = 0; i < sizes_at_1.size(); ++i)
    EXPECT_EQ(sizes_at_1[i], i + 1);
  EXPECT_TRUE(std::is_sorted(at_1.begin(), at_1.end()));

  // Cleared, the link is back to its plain delay.
  net.faults().set_throttle(0, 1, 0);
  const sim::Time sent = sim.now();
  net.send(0, 1, make_payload<Ping>());
  sim.run();
  EXPECT_LT(at_1.back() - sent, base + kThrottle);
}

TEST(Network, CrashedNodeNeitherSendsNorReceives) {
  sim::Simulator sim;
  Network net(sim, quiet_config(), 2);
  int received = 0;
  net.set_delivery(0, [&](const Envelope&) { ++received; });
  net.set_delivery(1, [&](const Envelope&) { ++received; });
  net.set_crashed(1, true);
  net.send(0, 1, make_payload<Ping>());
  net.send(1, 0, make_payload<Ping>());
  sim.run();
  EXPECT_EQ(received, 0);
}

TEST(Network, CountersTrackTraffic) {
  sim::Simulator sim;
  Network net(sim, quiet_config(), 2);
  net.set_delivery(1, [](const Envelope&) {});
  net.send(0, 1, make_payload<Ping>(100));
  sim.run();
  EXPECT_EQ(net.counters(0).messages_sent, 1u);
  EXPECT_GE(net.counters(0).bytes_sent, 100u);
  EXPECT_EQ(net.counters(1).messages_delivered, 1u);
  EXPECT_EQ(net.bytes_by_kind().at("Ping"), net.counters(0).bytes_sent);
  net.reset_counters();
  EXPECT_EQ(net.counters(0).messages_sent, 0u);
}

TEST(Network, MessagesFromOnePairArriveInOrder) {
  sim::Simulator sim;
  NetworkConfig cfg;  // with jitter
  Network net(sim, cfg, 2);
  std::vector<std::size_t> sizes;
  net.set_delivery(1, [&](const Envelope& env) {
    sizes.push_back(env.payload->wire_size());
  });
  for (std::size_t i = 1; i <= 50; ++i) net.send(0, 1, make_payload<Ping>(i));
  sim.run();
  ASSERT_EQ(sizes.size(), 50u);
  // FIFO per link is guaranteed by the NIC serialization: leave times are
  // monotone, and arrival = leave + sampled propagation.
  // With jitter, arrivals could reorder; the protocols tolerate that, so
  // here we only check that nothing was lost.
}

// ---------------------------------------------------------------------
// Flat per-link tables (post-overhaul): the link state that used to live
// in std::maps keyed by (from, to) is now flat vectors indexed by
// from * n + to. These tests pin down the properties that indexing must
// preserve: per-link FIFO correction, per-link partition state, and
// per-node counter attribution.
// ---------------------------------------------------------------------

struct Tagged final : Payload {
  explicit Tagged(std::uint64_t tag) : tag_(tag) {}
  std::uint64_t tag_;
  std::uint32_t kind() const override { return 9002; }
  std::size_t wire_size() const override { return 64; }
  const char* name() const override { return "Tagged"; }
};

TEST(Network, FlatTablesKeepEveryLinkFifoUnderJitter) {
  sim::Simulator sim(7);
  NetworkConfig cfg;  // jitter on; fifo_links = true (default)
  cfg.batching = false;
  constexpr int kNodes = 5;
  Network net(sim, cfg, kNodes);
  // Tags increase per ordered pair; each link's arrivals must do the same.
  std::vector<std::uint64_t> last_tag(kNodes * kNodes, 0);
  std::vector<std::uint64_t> arrivals(kNodes * kNodes, 0);
  int inversions = 0;
  for (NodeId to = 0; to < kNodes; ++to)
    net.set_delivery(to, [&, to](const Envelope& env) {
      const auto& p = static_cast<const Tagged&>(*env.payload);
      std::uint64_t& prev = last_tag[env.from * kNodes + to];
      if (p.tag_ <= prev) ++inversions;
      prev = p.tag_;
      ++arrivals[env.from * kNodes + to];
    });
  constexpr int kRounds = 40;
  std::uint64_t tag = 0;
  for (int round = 0; round < kRounds; ++round)
    for (NodeId from = 0; from < kNodes; ++from)
      for (NodeId to = 0; to < kNodes; ++to)
        if (from != to) net.send(from, to, make_payload<Tagged>(++tag));
  sim.run();
  EXPECT_EQ(inversions, 0) << "a link delivered out of send order";
  for (NodeId from = 0; from < kNodes; ++from)
    for (NodeId to = 0; to < kNodes; ++to)
      if (from != to) {
        EXPECT_EQ(arrivals[from * kNodes + to],
                  static_cast<std::uint64_t>(kRounds))
            << "link " << from << "->" << to;
      }
}

TEST(Network, FlatTablesEnforcePartitionPerLink) {
  sim::Simulator sim;
  Network net(sim, quiet_config(), 4);
  std::vector<int> received(4, 0);
  for (NodeId n = 0; n < 4; ++n)
    net.set_delivery(n, [&received, n](const Envelope&) { ++received[n]; });

  net.faults().partition({0, 1});  // {0,1} vs {2,3}
  for (NodeId from = 0; from < 4; ++from)
    for (NodeId to = 0; to < 4; ++to)
      if (from != to) net.send(from, to, make_payload<Ping>());
  sim.run();
  // Each node hears only from its partner inside the partition group.
  EXPECT_EQ(received, (std::vector<int>{1, 1, 1, 1}));
  // Cross-group sends were dropped and billed to the sender.
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(net.counters(n).messages_dropped, 2u) << "node " << n;
    EXPECT_EQ(net.counters(n).messages_sent, 3u) << "node " << n;
  }

  net.faults().heal();
  for (NodeId from = 0; from < 4; ++from)
    for (NodeId to = 0; to < 4; ++to)
      if (from != to) net.send(from, to, make_payload<Ping>());
  sim.run();
  EXPECT_EQ(received, (std::vector<int>{4, 4, 4, 4}));
}

TEST(Network, FlatTablesAttributeCountersToTheRightNode) {
  sim::Simulator sim;
  Network net(sim, quiet_config(), 3);
  for (NodeId n = 0; n < 3; ++n) net.set_delivery(n, [](const Envelope&) {});
  // Asymmetric traffic: node 0 sends 5, node 1 sends 2, node 2 silent.
  for (int i = 0; i < 5; ++i) net.send(0, 2, make_payload<Ping>(10));
  for (int i = 0; i < 2; ++i) net.send(1, 0, make_payload<Ping>(10));
  sim.run();
  EXPECT_EQ(net.counters(0).messages_sent, 5u);
  EXPECT_EQ(net.counters(1).messages_sent, 2u);
  EXPECT_EQ(net.counters(2).messages_sent, 0u);
  EXPECT_EQ(net.counters(0).messages_delivered, 2u);
  EXPECT_EQ(net.counters(1).messages_delivered, 0u);
  EXPECT_EQ(net.counters(2).messages_delivered, 5u);
  const auto total = net.total_counters();
  EXPECT_EQ(total.messages_sent, 7u);
  EXPECT_EQ(total.messages_delivered, 7u);
  EXPECT_EQ(total.messages_dropped, 0u);
}

}  // namespace
}  // namespace m2::net
