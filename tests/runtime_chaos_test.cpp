// Chaos-hardened runtime: peer health state machine and backoff bounds
// (driven with a deterministic clock), connect-timeout and reconnect-storm
// behavior over real sockets, the ChaosTransport fault decorator, transport
// option validation, and the chaos soak runner end to end (including the
// --inject-bug detection proof).
//
// Labeled `runtime` like runtime_test.cpp — CI runs this binary under TSan.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "m2/cluster.hpp"
#include "m2paxos/messages.hpp"
#include "runtime/chaos.hpp"
#include "runtime/chaos_transport.hpp"
#include "runtime/clock.hpp"
#include "runtime/peer_health.hpp"
#include "runtime/runtime.hpp"
#include "runtime/tcp_transport.hpp"

namespace m2::runtime {
namespace {

net::PayloadPtr make_accept(std::uint64_t req_id) {
  core::Command cmd(core::CommandId::make(0, 1), {7}, 16);
  m2p::SlotList slots;
  slots.push_back(m2p::SlotValue(7, 42, 3, std::move(cmd)));
  return net::make_payload<m2p::Accept>(req_id, std::move(slots));
}

// ----------------------------------------------------------- peer health

TEST(PeerHealth, BackoffStaysWithinJitterBoundsAndNeverExceedsCap) {
  PeerHealth::Options opts;
  opts.backoff_base = 10 * core::kMillisecond;
  opts.backoff_cap = 200 * core::kMillisecond;
  opts.suspect_after = 1;
  opts.down_after = 100;  // stay on the backoff ladder for the whole test
  PeerHealth health(opts, /*rng_seed=*/42);

  // Deterministic clock: failures happen at fixed instants, so every
  // next_attempt() bound is exact. Each decorrelated-jitter step is within
  // [base, min(cap, max(base, 3*prev))] of the failure time.
  core::Time now = 1 * core::kSecond;
  core::Time prev_backoff = 0;
  for (int i = 0; i < 50; ++i) {
    health.on_failure(now);
    const core::Time wait = health.next_attempt() - now;
    EXPECT_GE(wait, opts.backoff_base) << "step " << i;
    EXPECT_LE(wait, opts.backoff_cap) << "step " << i;
    const core::Time hi =
        std::min(opts.backoff_cap, std::max(opts.backoff_base,
                                            prev_backoff * 3));
    EXPECT_LE(wait, std::max(hi, opts.backoff_base)) << "step " << i;
    EXPECT_FALSE(health.attempt_due(now));
    EXPECT_TRUE(health.attempt_due(health.next_attempt()));
    prev_backoff = wait;
    now = health.next_attempt();
  }

  // Success resets the ladder completely: the next failure starts from base
  // again instead of the capped value.
  health.on_connect_success();
  EXPECT_EQ(health.next_attempt(), 0);
  EXPECT_TRUE(health.attempt_due(now));
  health.on_failure(now);
  EXPECT_LE(health.next_attempt() - now, opts.backoff_base);
}

TEST(PeerHealth, TransitionsUpSuspectDownAndBackUp) {
  PeerHealth::Options opts;
  opts.suspect_after = 1;
  opts.down_after = 3;
  opts.probe_interval = 500 * core::kMillisecond;
  PeerHealth health(opts, /*rng_seed=*/7);
  EXPECT_EQ(health.state(), PeerState::kUp);

  core::Time now = 0;
  EXPECT_TRUE(health.on_failure(now));  // 1st failure: up -> suspect
  EXPECT_EQ(health.state(), PeerState::kSuspect);
  EXPECT_FALSE(health.on_failure(now));  // 2nd: still suspect
  EXPECT_EQ(health.state(), PeerState::kSuspect);
  EXPECT_TRUE(health.on_failure(now));  // 3rd: suspect -> down
  EXPECT_EQ(health.state(), PeerState::kDown);
  EXPECT_EQ(health.consecutive_failures(), 3);

  // Down is absorbing under further failures (failures stop growing too,
  // so a long outage cannot overflow the counter).
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(health.on_failure(now));
    EXPECT_EQ(health.state(), PeerState::kDown);
    EXPECT_EQ(health.consecutive_failures(), 3);
    now = health.next_attempt();
  }

  // A successful probe goes straight back to up and resets everything.
  EXPECT_TRUE(health.on_connect_success());
  EXPECT_EQ(health.state(), PeerState::kUp);
  EXPECT_EQ(health.consecutive_failures(), 0);
  EXPECT_FALSE(health.on_connect_success());  // already up: no transition
}

TEST(PeerHealth, DownPeerProbesOnFixedCadenceNotBackoff) {
  PeerHealth::Options opts;
  opts.backoff_base = 1 * core::kMillisecond;
  opts.backoff_cap = 10 * core::kSecond;
  opts.suspect_after = 1;
  opts.down_after = 2;
  opts.probe_interval = 250 * core::kMillisecond;
  PeerHealth health(opts, /*rng_seed=*/3);

  core::Time now = 0;
  health.on_failure(now);
  health.on_failure(now);
  ASSERT_EQ(health.state(), PeerState::kDown);

  // Every failed probe schedules the next exactly probe_interval out —
  // constant cadence, no exponential growth once down.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(health.next_attempt(), now + opts.probe_interval) << i;
    now = health.next_attempt();
    health.on_failure(now);
  }
}

TEST(PeerHealth, StringNamesCoverEveryState) {
  EXPECT_STREQ(to_string(PeerState::kUp), "up");
  EXPECT_STREQ(to_string(PeerState::kSuspect), "suspect");
  EXPECT_STREQ(to_string(PeerState::kDown), "down");
}

// ----------------------------------------------------- option validation

TEST(TransportOptions, ValidRejectsNonPositiveAndMisorderedKnobs) {
  using core::TransportOptions;
  TransportOptions good;
  EXPECT_TRUE(good.valid());

  auto mutated = [&](auto&& set) {
    TransportOptions o;
    set(o);
    return o.valid();
  };
  EXPECT_FALSE(mutated([](TransportOptions& o) { o.max_coalesce_bytes = 0; }));
  EXPECT_FALSE(mutated([](TransportOptions& o) { o.max_queue_bytes = 0; }));
  EXPECT_FALSE(mutated([](TransportOptions& o) { o.connect_timeout = 0; }));
  EXPECT_FALSE(mutated([](TransportOptions& o) { o.connect_timeout = -1; }));
  EXPECT_FALSE(mutated([](TransportOptions& o) { o.backoff_base = 0; }));
  EXPECT_FALSE(mutated([](TransportOptions& o) {
    o.backoff_cap = o.backoff_base - 1;  // cap below base
  }));
  EXPECT_FALSE(mutated([](TransportOptions& o) { o.suspect_after = 0; }));
  EXPECT_FALSE(mutated([](TransportOptions& o) {
    o.suspect_after = 5;
    o.down_after = 4;  // down threshold below suspect threshold
  }));
  EXPECT_FALSE(mutated([](TransportOptions& o) { o.probe_interval = 0; }));
}

TEST(ClusterSpecTransport, ParsesLifecycleKnobsAndRejectsInvalid) {
  const char* text = R"({
    "nodes": [{"host": "a", "port": 1}, {"host": "b", "port": 2}],
    "transport": {
      "connect_timeout_ms": 250, "backoff_base_ms": 5,
      "backoff_cap_ms": 1000, "suspect_after": 2, "down_after": 5,
      "probe_interval_ms": 100
    }
  })";
  m2::Config cfg;
  std::string error;
  ASSERT_TRUE(m2::Config::parse(text, &cfg, &error)) << error;
  EXPECT_EQ(cfg.transport.connect_timeout, 250 * core::kMillisecond);
  EXPECT_EQ(cfg.transport.backoff_base, 5 * core::kMillisecond);
  EXPECT_EQ(cfg.transport.backoff_cap, 1000 * core::kMillisecond);
  EXPECT_EQ(cfg.transport.suspect_after, 2);
  EXPECT_EQ(cfg.transport.down_after, 5);
  EXPECT_EQ(cfg.transport.probe_interval, 100 * core::kMillisecond);

  EXPECT_FALSE(m2::Config::parse(
      R"({"nodes": [{"host": "a", "port": 1}],
          "transport": {"backoff_base_ms": 0}})",
      &cfg, &error));
  EXPECT_NE(error.find("invalid transport"), std::string::npos);
  EXPECT_FALSE(m2::Config::parse(
      R"({"nodes": [{"host": "a", "port": 1}],
          "transport": {"backoff_base_ms": 100, "backoff_cap_ms": 50}})",
      &cfg, &error));
  EXPECT_FALSE(m2::Config::parse(
      R"({"nodes": [{"host": "a", "port": 1}],
          "transport": {"suspect_after": 3, "down_after": 2}})",
      &cfg, &error));
  EXPECT_FALSE(m2::Config::parse(
      R"({"nodes": [{"host": "a", "port": 1}],
          "transport": {"probe_ms": 1}})",  // unknown key
      &cfg, &error));
}

TEST(ClusterBuilderTransport, ConfigValidateCoversLifecycleKnobs) {
  m2::Config cfg;
  EXPECT_TRUE(cfg.validate().empty());
  cfg.transport.backoff_base = 0;
  EXPECT_NE(cfg.validate().find("transport"), std::string::npos);
  cfg.transport.backoff_base = 10 * core::kMillisecond;
  cfg.transport.backoff_cap = 5 * core::kMillisecond;
  EXPECT_FALSE(cfg.validate().empty());
  cfg.transport.backoff_cap = 2 * core::kSecond;
  cfg.transport.down_after = 0;
  EXPECT_FALSE(cfg.validate().empty());
}

// -------------------------------------------------- tcp connect lifecycle

TEST(TcpLifecycle, ConnectTimeoutBoundsDialToUnresponsivePeer) {
  // A listener that never accepts and has a zero backlog: once the backlog
  // token is consumed, further SYNs are ignored and a connect() hangs until
  // its timeout — the exact black-hole case connect_timeout bounds.
  const int sink = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(sink, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(sink, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(sink, 0), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(sink, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  // Consume the backlog so the transport's dial gets black-holed. The
  // fillers dial non-blocking: the ones past the backlog would otherwise
  // hang here for the kernel's SYN-retry timeout themselves.
  std::vector<int> fillers;
  for (int i = 0; i < 4; ++i) {
    const int f = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    ASSERT_GE(f, 0);
    ::connect(f, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    fillers.push_back(f);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::vector<core::NodeAddress> endpoints = {{"127.0.0.1", free_port()},
                                              {"127.0.0.1", port}};
  core::TransportOptions options;
  options.connect_timeout = 100 * core::kMillisecond;
  options.backoff_base = 5 * core::kMillisecond;
  options.backoff_cap = 50 * core::kMillisecond;
  TcpTransport sender(endpoints, options);
  Inbox rx0;
  sender.attach(0, &rx0);
  sender.start();
  ASSERT_TRUE(sender.error().empty()) << sender.error();

  // Without the timeout, the writer would sit in connect() for the kernel
  // default (minutes) and never record an attempt. With it, failed attempts
  // accumulate quickly.
  MonotonicClock clock;
  sender.send(0, 1, *make_accept(1));
  const core::Time deadline = clock.now() + 20 * core::kSecond;
  while (sender.counters().connect_failures.load() < 2 &&
         clock.now() < deadline) {
    sender.send(0, 1, *make_accept(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(sender.counters().connect_failures.load(), 2u);
  sender.stop();
  for (const int f : fillers) ::close(f);
  ::close(sink);
}

TEST(TcpLifecycle, DeadPeerGoesDownWithoutConnectStormThenRecovers) {
  // Nothing listens on the peer port: every dial fails fast (ECONNREFUSED).
  std::vector<core::NodeAddress> endpoints = {{"127.0.0.1", free_port()},
                                              {"127.0.0.1", free_port()}};
  core::TransportOptions options;
  options.connect_timeout = 200 * core::kMillisecond;
  options.backoff_base = 5 * core::kMillisecond;
  options.backoff_cap = 40 * core::kMillisecond;
  options.suspect_after = 1;
  options.down_after = 3;
  options.probe_interval = 50 * core::kMillisecond;
  TcpTransport sender(endpoints, options);
  Inbox rx0;
  sender.attach(0, &rx0);
  sender.start();
  ASSERT_TRUE(sender.error().empty()) << sender.error();

  // Blast sends while the peer is dead. The health machine must take the
  // peer down (state changes counted), and the dial count must be bounded
  // by backoff/probe cadence — not by the send rate.
  MonotonicClock clock;
  constexpr std::uint64_t kSends = 20000;
  const core::Time t0 = clock.now();
  for (std::uint64_t i = 0; i < kSends; ++i)
    sender.send(0, 1, *make_accept(i));
  while (sender.peer_state(1) != PeerState::kDown &&
         clock.now() < t0 + 20 * core::kSecond)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(sender.peer_state(1), PeerState::kDown);
  EXPECT_GE(sender.counters().peer_state_changes.load(), 2u);  // up->suspect->down
  EXPECT_GT(sender.counters().messages_dropped.load(), 0u);

  // Let the prober run a while: attempts accrue per probe interval.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t dials = sender.counters().connect_failures.load();
  EXPECT_GT(dials, 0u);
  // 20k sends + ~0.5s of wall time at 50ms probes / >=5ms backoff: if every
  // send (or even 1% of them) dialed, this would be in the hundreds+.
  EXPECT_LT(dials, 100u);

  // Once down, fresh sends are dropped at enqueue without dialing.
  const std::uint64_t dials_before = sender.counters().connect_failures.load();
  const std::uint64_t dropped_before =
      sender.counters().messages_dropped.load();
  for (std::uint64_t i = 0; i < 1000; ++i)
    sender.send(0, 1, *make_accept(i));
  EXPECT_GE(sender.counters().messages_dropped.load(),
            dropped_before + 1000u);
  EXPECT_LE(sender.counters().connect_failures.load() - dials_before, 20u);

  // Bring the peer up: the next probe reconnects, the state returns to up,
  // and traffic flows again.
  TcpTransport receiver(endpoints);
  Inbox rx1;
  receiver.attach(1, &rx1);
  receiver.start();
  ASSERT_TRUE(receiver.error().empty()) << receiver.error();
  std::vector<Event> events;
  std::size_t got = 0;
  const core::Time deadline = clock.now() + 30 * core::kSecond;
  while (got == 0 && clock.now() < deadline) {
    sender.send(0, 1, *make_accept(1));
    got = rx1.drain_until(clock.now() + 50 * core::kMillisecond, clock,
                          events);
  }
  EXPECT_GT(got, 0u);
  EXPECT_EQ(sender.peer_state(1), PeerState::kUp);
  EXPECT_GE(sender.counters().peer_state_changes.load(), 3u);  // ... down->up
  receiver.stop();
  sender.stop();
}

TEST(TcpLifecycle, LifecycleCountersFoldIntoMergedMetrics) {
  std::vector<core::NodeAddress> endpoints = {{"127.0.0.1", free_port()},
                                              {"127.0.0.1", free_port()}};
  core::TransportOptions options;
  options.backoff_base = 1 * core::kMillisecond;
  options.backoff_cap = 10 * core::kMillisecond;
  options.probe_interval = 10 * core::kMillisecond;
  TcpTransport sender(endpoints, options);
  Inbox rx0;
  sender.attach(0, &rx0);
  sender.start();
  MonotonicClock clock;
  const core::Time deadline = clock.now() + 20 * core::kSecond;
  while (sender.counters().connect_failures.load() == 0 &&
         clock.now() < deadline) {
    sender.send(0, 1, *make_accept(9));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  sender.stop();

  stats::MetricsRegistry reg;
  sender.fold_metrics(reg);
  EXPECT_EQ(reg.counter(stats::Counter::kRuntimeConnectFailures),
            sender.counters().connect_failures.load());
  EXPECT_EQ(reg.counter(stats::Counter::kRuntimePeerStateChanges),
            sender.counters().peer_state_changes.load());
  EXPECT_EQ(reg.counter(stats::Counter::kRuntimeReconnects),
            sender.counters().reconnects.load());
}

// -------------------------------------------------------- chaos decorator

/// Two-node loopback cluster under a ChaosTransport, with both inboxes in
/// hand: send through the chaos layer, observe what survives.
struct ChaosPair {
  ChaosPair() : chaos(std::make_unique<LoopbackTransport>(2), 2, 99) {
    chaos.attach(0, &rx0);
    chaos.attach(1, &rx1);
    chaos.start();
  }
  ~ChaosPair() { chaos.stop(); }

  std::size_t drain(Inbox& rx, std::size_t want, std::vector<Event>& out,
                    core::Time wait = 5 * core::kSecond) {
    std::size_t got = 0;
    const core::Time deadline = clock.now() + wait;
    while (got < want && clock.now() < deadline)
      got += rx.drain_until(deadline, clock, out);
    return got;
  }

  MonotonicClock clock;
  ChaosTransport chaos;
  Inbox rx0;
  Inbox rx1;
};

TEST(ChaosTransportUnit, LinkDownLossAndPartitionDropAndCount) {
  ChaosPair pair;
  pair.chaos.set_link(0, 1, /*up=*/false);
  pair.chaos.send(0, 1, *make_accept(1));
  EXPECT_EQ(pair.chaos.chaos_dropped(), 1u);

  pair.chaos.heal();
  pair.chaos.set_loss(1.0);
  pair.chaos.send(0, 1, *make_accept(2));
  EXPECT_EQ(pair.chaos.chaos_dropped(), 2u);
  pair.chaos.set_loss(0.0);

  pair.chaos.set_partition({0});
  pair.chaos.send(0, 1, *make_accept(3));
  pair.chaos.send(1, 0, *make_accept(4));
  EXPECT_EQ(pair.chaos.chaos_dropped(), 4u);
  // Self-delivery is immune even inside a partition.
  pair.chaos.broadcast(0, *make_accept(5), /*include_self=*/true);
  std::vector<Event> events;
  EXPECT_EQ(pair.drain(pair.rx0, 1, events), 1u);
  pair.chaos.heal();

  // Healed: traffic flows and nothing new is counted.
  pair.chaos.send(0, 1, *make_accept(6));
  events.clear();
  EXPECT_EQ(pair.drain(pair.rx1, 1, events), 1u);
  EXPECT_TRUE(pair.chaos.saw_loss());
}

TEST(ChaosTransportUnit, DuplicatesDeliverTwiceAndDelaysReorder) {
  ChaosPair pair;
  pair.chaos.set_duplication(1.0);
  pair.chaos.send(0, 1, *make_accept(1));
  std::vector<Event> events;
  EXPECT_EQ(pair.drain(pair.rx1, 2, events), 2u);  // original + duplicate
  EXPECT_EQ(pair.chaos.chaos_duplicated(), 1u);
  pair.chaos.set_duplication(0.0);

  // Jittered delay: a burst goes through the hold-back queue and arrives
  // complete (reordering is allowed, loss is not).
  pair.chaos.set_delay(2 * core::kMillisecond);
  constexpr std::uint64_t kBurst = 64;
  for (std::uint64_t i = 0; i < kBurst; ++i)
    pair.chaos.send(0, 1, *make_accept(100 + i));
  events.clear();
  EXPECT_EQ(pair.drain(pair.rx1, kBurst, events), kBurst);
  EXPECT_EQ(pair.chaos.chaos_delayed(), kBurst);
  pair.chaos.calm();
}

TEST(ChaosTransportUnit, CorruptFallsBackToOneShotDropOnLoopback) {
  ChaosPair pair;
  // Loopback has no wire: chaos_corrupt_next is unsupported, so the
  // decorator arms a one-shot drop on the link instead.
  pair.chaos.inject_corrupt(0, 1);
  pair.chaos.send(0, 1, *make_accept(1));  // eaten by the corruption
  EXPECT_EQ(pair.chaos.chaos_corrupted(), 1u);
  pair.chaos.send(0, 1, *make_accept(2));  // one-shot: this one delivers
  std::vector<Event> events;
  ASSERT_EQ(pair.drain(pair.rx1, 1, events), 1u);
  EXPECT_EQ(static_cast<const m2p::Accept&>(*events.front().payload).req_id,
            2u);
  // Resets are meaningless without connections: not supported, not counted.
  pair.chaos.inject_reset(1);
  EXPECT_EQ(pair.chaos.chaos_resets(), 0u);
}

TEST(ChaosTransportUnit, CorruptOverTcpTearsDownViaCrcCheck) {
  // ChaosTransport over two real TcpTransports: inject_corrupt flips a
  // body byte after the CRC is computed, so the receiver counts a decode
  // failure and kills the connection — the full wire teardown path.
  std::vector<core::NodeAddress> endpoints = {{"127.0.0.1", free_port()},
                                              {"127.0.0.1", free_port()}};
  ChaosTransport sender(std::make_unique<TcpTransport>(endpoints), 2, 5);
  TcpTransport receiver(endpoints);
  Inbox rx0;
  Inbox rx1;
  sender.attach(0, &rx0);
  receiver.attach(1, &rx1);
  sender.start();
  receiver.start();
  ASSERT_TRUE(sender.start_error().empty()) << sender.start_error();
  ASSERT_TRUE(receiver.error().empty()) << receiver.error();

  // Establish the connection with a clean message first.
  MonotonicClock clock;
  std::vector<Event> events;
  std::size_t got = 0;
  core::Time deadline = clock.now() + 30 * core::kSecond;
  while (got == 0 && clock.now() < deadline) {
    sender.send(0, 1, *make_accept(1));
    got = rx1.drain_until(clock.now() + 50 * core::kMillisecond, clock,
                          events);
  }
  ASSERT_GT(got, 0u);

  sender.inject_corrupt(0, 1);
  sender.send(0, 1, *make_accept(2));
  EXPECT_EQ(sender.chaos_corrupted(), 1u);
  deadline = clock.now() + 30 * core::kSecond;
  while (receiver.counters().decode_failures.load() == 0 &&
         clock.now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(receiver.counters().decode_failures.load(), 1u);

  // And a reset against the (reconnected or old) live connection counts
  // once it actually severs something.
  deadline = clock.now() + 30 * core::kSecond;
  while (clock.now() < deadline) {
    sender.send(0, 1, *make_accept(3));
    sender.inject_reset(1);
    if (sender.chaos_resets() > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(sender.chaos_resets(), 1u);
  receiver.stop();
  sender.stop();
}

TEST(ChaosTransportUnit, InboxToleratesDuplicatedAndReorderedTraffic) {
  // A real 3-node M²Paxos cluster where EVERY cross-node message is
  // duplicated and jitter-delayed (so copies overtake each other). The
  // protocol must still commit the full workload: duplicate and reordered
  // frames at the inboxes are tolerated end to end.
  const int n = 3;
  auto chaos_owned = std::make_unique<ChaosTransport>(
      std::make_unique<LoopbackTransport>(n), n, 77);
  ChaosTransport* chaos = chaos_owned.get();
  chaos->set_duplication(1.0);
  chaos->set_delay(1 * core::kMillisecond);

  RuntimeConfig cfg;
  cfg.protocol = core::Protocol::kM2Paxos;
  cfg.cluster.n_nodes = n;
  cfg.seed = 11;
  cfg.preassign_ownership = true;
  cfg.owner_map = core::OwnerMap::modulo(static_cast<std::uint64_t>(n));
  std::vector<NodeId> all(n);
  for (int i = 0; i < n; ++i) all[i] = static_cast<NodeId>(i);
  Runtime rt(cfg, std::move(chaos_owned), all);
  std::string error;
  ASSERT_TRUE(rt.start(&error)) << error;

  constexpr std::uint64_t kPerNode = 100;
  for (std::uint64_t seq = 1; seq <= kPerNode; ++seq) {
    for (NodeId node = 0; node < n; ++node) {
      rt.propose(node, core::Command(core::CommandId::make(node, seq),
                                     {node}, 16));
    }
  }
  EXPECT_TRUE(rt.await_committed(kPerNode * n, 60 * core::kSecond));
  EXPECT_GT(chaos->chaos_duplicated(), 0u);
  EXPECT_GT(chaos->chaos_delayed(), 0u);
  EXPECT_FALSE(chaos->saw_loss());
  rt.stop();
}

// ------------------------------------------------------------ soak runner

fuzz::Case runtime_case(std::uint64_t seed, int nodes, core::Time horizon,
                        core::Time drain, int commands) {
  fuzz::Case c;
  c.protocol = core::Protocol::kM2Paxos;
  c.backend = core::Backend::kLoopback;
  c.n_nodes = nodes;
  c.seed = seed;
  c.horizon = horizon;
  c.drain = drain;
  c.commands_per_node = commands;
  return c;
}

TEST(ChaosRunner, CleanSeedCommitsAndPassesAuditor) {
  const fuzz::Result result = runtime::run_case(runtime_case(
      1, 4, 250 * core::kMillisecond, 1500 * core::kMillisecond, 60));
  EXPECT_TRUE(result.ok) << (result.violations.empty()
                                 ? "no violations"
                                 : result.violations.front());
  EXPECT_GT(result.proposals, 0u);
  EXPECT_GT(result.committed, 0u);
  EXPECT_FALSE(result.schedule.empty());
}

TEST(ChaosRunner, DetectsInjectedEpochSafetyBug) {
  // The deliberate epoch bug (ClusterConfig::test_unsafe_epochs) must be
  // caught by the auditor through the chaos pipeline — the end-to-end proof
  // that a real safety break cannot hide behind fault noise. Any one seed
  // may get lucky, so scan a few; the sweep in CI uses the same mechanism.
  bool caught = false;
  for (std::uint64_t seed = 1; seed <= 5 && !caught; ++seed) {
    fuzz::Case c = runtime_case(seed, 5, 300 * core::kMillisecond,
                                1500 * core::kMillisecond, 100);
    c.inject_bug = true;
    caught = !runtime::run_case(c).ok;
  }
  EXPECT_TRUE(caught) << "injected epoch bug evaded the auditor on 5 seeds";
}

TEST(ChaosRunner, KeepEpisodesRestrictsTheSchedule) {
  fuzz::Case c = runtime_case(2, 4, 200 * core::kMillisecond,
                              1200 * core::kMillisecond, 40);
  const fuzz::Result full = runtime::run_case(c);
  c.schedule.emplace();  // keep no episode: a calm run
  const fuzz::Result calm = runtime::run_case(c);
  EXPECT_TRUE(calm.ok);
  EXPECT_TRUE(calm.schedule.empty());
  EXPECT_LT(calm.schedule.size(), full.schedule.size());
}

}  // namespace
}  // namespace m2::runtime
