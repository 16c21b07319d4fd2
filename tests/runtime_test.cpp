// Threaded real-transport runtime: inbox units, 5-node loopback clusters
// (M²Paxos and Multi-Paxos) deciding 10k commands through a node
// kill-and-restart with auditor-checked ordering safety, a real-socket TCP
// smoke test, and the public m2::ClusterBuilder facade.
//
// Labeled `runtime` — CI runs this binary under TSan (the loopback
// clusters exercise every cross-thread edge: inbox handoff, node-confined
// timer queues, transport counters, commit accounting).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "m2/cluster.hpp"
#include "m2/runtime_config.hpp"
#include "m2paxos/messages.hpp"
#include "net/codec.hpp"
#include "net/serde.hpp"
#include "runtime/clock.hpp"
#include "runtime/inbox.hpp"
#include "runtime/runtime.hpp"
#include "runtime/tcp_transport.hpp"

namespace m2::runtime {
namespace {

// ----------------------------------------------------------------- inbox

TEST(Inbox, DrainsInFifoOrderAcrossThreads) {
  MonotonicClock clock;
  Inbox inbox;
  constexpr int kPerProducer = 500;
  auto produce = [&](NodeId from) {
    for (int i = 0; i < kPerProducer; ++i)
      inbox.push(Event::message(from, nullptr));
  };
  std::thread a([&] { produce(1); });
  std::thread b([&] { produce(2); });

  int got = 0;
  int last_from_1 = -1, last_from_2 = -1;
  std::vector<Event> batch;
  while (got < 2 * kPerProducer) {
    batch.clear();
    inbox.drain_until(clock.now() + 100 * core::kMillisecond, clock, batch);
    for (const Event& e : batch) {
      ++got;
      // Per-producer FIFO: each producer's events arrive in push order.
      (void)last_from_1;
      (void)last_from_2;
      ASSERT_EQ(e.kind, Event::Kind::kMessage);
    }
  }
  a.join();
  b.join();
  EXPECT_EQ(got, 2 * kPerProducer);
}

TEST(Inbox, DrainHonorsDeadlineWhenEmpty) {
  MonotonicClock clock;
  Inbox inbox;
  std::vector<Event> batch;
  const core::Time t0 = clock.now();
  const std::size_t n =
      inbox.drain_until(t0 + 5 * core::kMillisecond, clock, batch);
  EXPECT_EQ(n, 0u);
  EXPECT_GE(clock.now() - t0, 4 * core::kMillisecond);  // actually waited
}

TEST(Inbox, PopAllSwapsIntoEmptyScratchAndAppendsOtherwise) {
  Inbox inbox;
  for (int i = 0; i < 3; ++i) inbox.push(Event::of(Event::Kind::kStop));

  std::vector<Event> batch;
  EXPECT_EQ(inbox.pop_all(batch), 3u);  // whole backlog in one call
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(inbox.pop_all(batch), 0u);  // empty inbox: non-blocking no-op
  EXPECT_EQ(batch.size(), 3u);

  // A non-empty scratch keeps its contents; new events append after them.
  inbox.push(Event::of(Event::Kind::kCrash));
  EXPECT_EQ(inbox.pop_all(batch), 1u);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.back().kind, Event::Kind::kCrash);
}

TEST(Inbox, CloseDropsSubsequentPushes) {
  MonotonicClock clock;
  Inbox inbox;
  inbox.push(Event::of(Event::Kind::kStop));
  inbox.close();
  inbox.push(Event::of(Event::Kind::kCrash));  // dropped
  std::vector<Event> batch;
  inbox.drain_until(0, clock, batch);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front().kind, Event::Kind::kStop);
}

// ----------------------------------------------- loopback cluster safety

/// Proposes `count` single-object fast-path commands at `node` (objects it
/// owns under OwnerMap::divide(kObjectsPerNode)).
constexpr std::uint64_t kObjectsPerNode = 16;

std::uint64_t propose_homed(Runtime& rt, NodeId node, std::uint64_t& seq,
                            std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const core::ObjectId object =
        node * kObjectsPerNode + (seq % kObjectsPerNode);
    rt.propose(node, core::Command(core::CommandId::make(node, ++seq),
                                   {object}));
  }
  return count;
}

RuntimeConfig cluster_config(core::Protocol protocol, int nodes) {
  RuntimeConfig cfg;
  cfg.protocol = protocol;
  cfg.cluster.n_nodes = nodes;
  cfg.cluster.batching.enabled = true;  // the paper's throughput setup
  cfg.audit = true;
  cfg.owner_map = core::OwnerMap::divide(kObjectsPerNode);
  cfg.seed = 7;
  return cfg;
}

TEST(RuntimeLoopback, M2PaxosDecides10kThroughKillAndRestart) {
  constexpr int kNodes = 5;
  constexpr std::uint64_t kPerNodePhase = 500;  // 4 phases => 10k total
  Runtime rt(cluster_config(core::Protocol::kM2Paxos, kNodes));
  ASSERT_TRUE(rt.start());

  std::vector<std::uint64_t> seq(kNodes, 0);
  std::uint64_t proposed = 0;

  // Phase 1: all nodes propose on their own objects (fast path).
  for (NodeId n = 0; n < kNodes; ++n)
    proposed += propose_homed(rt, n, seq[n], kPerNodePhase);
  ASSERT_TRUE(rt.await_committed(proposed, 60 * core::kSecond));

  // Phase 2: kill node 4; the surviving majority keeps deciding.
  rt.crash(4);
  for (NodeId n = 0; n < 4; ++n)
    proposed += propose_homed(rt, n, seq[n], kPerNodePhase);
  ASSERT_TRUE(rt.await_committed(proposed, 60 * core::kSecond));

  // Phase 3: restart node 4 (volatile state kept — the paper's CP model);
  // everyone proposes again, including the restarted node.
  rt.recover(4);
  for (NodeId n = 0; n < kNodes; ++n)
    proposed += propose_homed(rt, n, seq[n], 1100);
  ASSERT_TRUE(rt.await_committed(proposed, 120 * core::kSecond));
  EXPECT_EQ(proposed, 10'000u);  // 5*500 + 4*500 + 5*1100

  rt.stop();

  // Safety: every pair of conflicting commands delivered in the same
  // relative order on every node that delivered both.
  const auto report = rt.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
  for (NodeId n = 0; n < 4; ++n) EXPECT_GT(rt.delivered(n), 0u);
}

TEST(RuntimeLoopback, MultiPaxosTotalOrderThroughFollowerRestart) {
  constexpr int kNodes = 5;
  Runtime rt(cluster_config(core::Protocol::kMultiPaxos, kNodes));
  ASSERT_TRUE(rt.start());

  std::vector<std::uint64_t> seq(kNodes, 0);
  std::uint64_t proposed = 0;

  for (NodeId n = 0; n < kNodes; ++n)
    proposed += propose_homed(rt, n, seq[n], 400);
  ASSERT_TRUE(rt.await_committed(proposed, 60 * core::kSecond));

  rt.crash(4);  // follower: the leader (node 0) keeps ordering
  for (NodeId n = 0; n < 4; ++n)
    proposed += propose_homed(rt, n, seq[n], 400);
  ASSERT_TRUE(rt.await_committed(proposed, 60 * core::kSecond));

  rt.recover(4);
  for (NodeId n = 0; n < 4; ++n)
    proposed += propose_homed(rt, n, seq[n], 400);
  ASSERT_TRUE(rt.await_committed(proposed, 120 * core::kSecond));

  rt.stop();

  // Slot-ordered delivery makes every node's sequence a prefix of the
  // longest, restarted follower included.
  const auto report = rt.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
  EXPECT_GT(rt.delivered(0), 0u);
}

// --------------------------------------------------------------- tcp

TEST(RuntimeTcp, ThreeProcessesWorthOfNodesOverRealSockets) {
  // Three Runtime instances, each serving one node with its own
  // TcpTransport — every protocol message crosses a real socket, exactly
  // as three m2node processes would (minus fork/exec).
  constexpr int kNodes = 3;
  std::vector<core::NodeAddress> endpoints;
  for (int i = 0; i < kNodes; ++i)
    endpoints.push_back({"127.0.0.1", free_port()});

  RuntimeConfig cfg = cluster_config(core::Protocol::kM2Paxos, kNodes);
  cfg.audit = false;
  std::vector<std::unique_ptr<Runtime>> procs;
  for (NodeId n = 0; n < kNodes; ++n) {
    procs.push_back(std::make_unique<Runtime>(
        cfg, std::make_unique<TcpTransport>(endpoints),
        std::vector<NodeId>{n}));
    std::string error;
    ASSERT_TRUE(procs.back()->start(&error)) << error;
  }

  // Node 0 proposes on its own objects; commit requires a quorum of the
  // three "processes" to converse over TCP.
  constexpr std::uint64_t kCommands = 200;
  std::uint64_t seq = 0;
  propose_homed(*procs[0], 0, seq, kCommands);
  EXPECT_TRUE(procs[0]->await_committed(kCommands, 60 * core::kSecond));

  // Deliveries propagate to every node (Decide broadcasts).
  for (NodeId n = 0; n < kNodes; ++n) {
    const core::Time deadline = procs[n]->clock().now() + 30 * core::kSecond;
    while (procs[n]->delivered(n) < kCommands &&
           procs[n]->clock().now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(procs[n]->delivered(n), kCommands) << "node " << n;
  }
  const auto& counters = procs[0]->transport_counters();
  EXPECT_GT(counters.bytes_sent.load(), 0u);
  EXPECT_EQ(counters.decode_failures.load(), 0u);
  for (auto& p : procs) p->stop();
}

// ------------------------------------------------------------- crc32c

TEST(Crc32c, Rfc3720KnownAnswers) {
  // RFC 3720 §B.4 test vectors, checked against both the dispatched
  // implementation and the software path it must agree with.
  const char digits[] = "123456789";
  EXPECT_EQ(net::crc32c(digits, 9), 0xE3069283u);
  EXPECT_EQ(net::crc32c_sw(digits, 9), 0xE3069283u);

  std::uint8_t block[32];
  std::memset(block, 0x00, sizeof(block));
  EXPECT_EQ(net::crc32c(block, sizeof(block)), 0x8A9136AAu);
  EXPECT_EQ(net::crc32c_sw(block, sizeof(block)), 0x8A9136AAu);

  std::memset(block, 0xFF, sizeof(block));
  EXPECT_EQ(net::crc32c(block, sizeof(block)), 0x62A8AB43u);
  EXPECT_EQ(net::crc32c_sw(block, sizeof(block)), 0x62A8AB43u);

  for (int i = 0; i < 32; ++i) block[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(net::crc32c(block, sizeof(block)), 0x46DD794Eu);
  EXPECT_EQ(net::crc32c_sw(block, sizeof(block)), 0x46DD794Eu);

  for (int i = 0; i < 32; ++i) block[i] = static_cast<std::uint8_t>(31 - i);
  EXPECT_EQ(net::crc32c(block, sizeof(block)), 0x113FDB5Cu);
  EXPECT_EQ(net::crc32c_sw(block, sizeof(block)), 0x113FDB5Cu);
}

TEST(Crc32c, HardwareAgreesWithSoftwareOnEveryShape) {
  if (!net::crc32c_hw_available())
    GTEST_SKIP() << "crc32c() already dispatches to the software path";
  std::vector<std::uint8_t> data(4096);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;  // deterministic xorshift64
  for (auto& b : data) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    b = static_cast<std::uint8_t>(state);
  }
  // All alignments × lengths around the hardware path's 8-byte stride, so
  // the unaligned head, 64-bit body, and byte tail splits are each hit.
  constexpr std::size_t kLens[] = {0, 1, 3, 7, 8, 9, 15, 16, 17,
                                   63, 64, 65, 255, 1024, 4000};
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (const std::size_t len : kLens) {
      ASSERT_LE(offset + len, data.size());
      EXPECT_EQ(net::crc32c(data.data() + offset, len),
                net::crc32c_sw(data.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
}

// -------------------------------------------------------- tcp wire path

/// One-slot M²Paxos Accept with a one-object command — the representative
/// fast-path message (same shape bench/micro_runtime.cpp pumps). `req_id`
/// tags the message so receivers can check ordering.
net::PayloadPtr make_accept(std::uint64_t req_id) {
  core::Command cmd(core::CommandId::make(0, 1), {7}, 16);
  m2p::SlotList slots;
  slots.push_back(m2p::SlotValue(7, 42, 3, std::move(cmd)));
  return net::make_payload<m2p::Accept>(req_id, std::move(slots));
}

/// Two TcpTransport instances over real localhost sockets: node 0 lives in
/// `sender`, node 1 in `receiver` — the minimal cross-process shape.
struct WirePair {
  explicit WirePair(core::TransportOptions sender_options = {})
      : endpoints{{"127.0.0.1", free_port()}, {"127.0.0.1", free_port()}},
        sender(endpoints, sender_options),
        receiver(endpoints) {
    sender.attach(0, &rx0);
    receiver.attach(1, &rx1);
    sender.start();
    receiver.start();
    EXPECT_TRUE(sender.error().empty()) << sender.error();
    EXPECT_TRUE(receiver.error().empty()) << receiver.error();
  }
  ~WirePair() {
    sender.stop();
    receiver.stop();
  }

  /// Appends events from `rx` into `out` until `want` arrived or 30 s.
  std::size_t drain(Inbox& rx, std::size_t want, std::vector<Event>& out) {
    std::size_t got = 0;
    const core::Time deadline = clock.now() + 30 * core::kSecond;
    while (got < want && clock.now() < deadline)
      got += rx.drain_until(deadline, clock, out);
    return got;
  }

  MonotonicClock clock;
  std::vector<core::NodeAddress> endpoints;
  TcpTransport sender;
  TcpTransport receiver;
  Inbox rx0;
  Inbox rx1;
};

TEST(TcpWirePath, PerProducerFifoSurvivesConcurrentSendersAndCoalescing) {
  WirePair wire;
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 400;
  constexpr std::uint64_t kTotal = kProducers * kPerProducer;

  // Four threads race on node 0's writer queue, each sending its own
  // req_id sequence (producer * kPerProducer + seq, in seq order).
  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t seq = 0; seq < kPerProducer; ++seq)
        wire.sender.send(0, 1, *make_accept(p * kPerProducer + seq));
    });
  }
  for (auto& t : producers) t.join();

  std::vector<Event> events;
  ASSERT_EQ(wire.drain(wire.rx1, kTotal, events), kTotal);  // nothing lost

  // Per-producer FIFO: each producer's req_ids arrive in send order even
  // though the four push sequences interleave arbitrarily.
  std::vector<std::uint64_t> next(kProducers, 0);
  for (const Event& e : events) {
    ASSERT_EQ(e.kind, Event::Kind::kMessage);
    ASSERT_EQ(e.payload->kind(), net::kKindM2Paxos + 2);
    const std::uint64_t id = static_cast<const m2p::Accept&>(*e.payload).req_id;
    const std::uint64_t p = id / kPerProducer;
    ASSERT_LT(p, kProducers);
    EXPECT_EQ(id % kPerProducer, next[p]) << "producer " << p;
    next[p] = id % kPerProducer + 1;
  }

  // Coalescing: the writer drains queue batches into single sendmsg()
  // flushes, so a burst this size takes far fewer syscalls than frames.
  EXPECT_GT(wire.sender.tx_flushes(), 0u);
  EXPECT_LT(wire.sender.tx_flushes(), kTotal);
}

TEST(TcpWirePath, QueueCapDropsAndCountsInsteadOfBufferingUnbounded) {
  core::TransportOptions tiny;
  tiny.max_queue_bytes = 256;  // room for a frame or two, not a burst
  WirePair wire(tiny);

  constexpr std::uint64_t kBurst = 2000;
  for (std::uint64_t i = 0; i < kBurst; ++i)
    wire.sender.send(0, 1, *make_accept(i));

  // The burst must overflow the cap (drops counted, send never blocks)
  // without losing everything: the first frame always fits an empty queue.
  const std::uint64_t dropped =
      wire.sender.counters().messages_dropped.load();
  EXPECT_GT(dropped, 0u);
  EXPECT_LT(dropped, kBurst);
  std::vector<Event> events;
  EXPECT_GT(wire.drain(wire.rx1, kBurst - dropped, events), 0u);
}

TEST(TcpWirePath, ReconnectsAndDeliversAfterPeerRestart) {
  std::vector<core::NodeAddress> endpoints = {{"127.0.0.1", free_port()},
                                              {"127.0.0.1", free_port()}};
  MonotonicClock clock;
  TcpTransport sender(endpoints);
  Inbox rx0;
  sender.attach(0, &rx0);
  sender.start();
  ASSERT_TRUE(sender.error().empty()) << sender.error();

  {
    TcpTransport receiver(endpoints);
    Inbox rx1;
    receiver.attach(1, &rx1);
    receiver.start();
    ASSERT_TRUE(receiver.error().empty()) << receiver.error();
    sender.send(0, 1, *make_accept(1));
    std::vector<Event> events;
    const core::Time deadline = clock.now() + 30 * core::kSecond;
    std::size_t got = 0;
    while (got == 0 && clock.now() < deadline)
      got = rx1.drain_until(deadline, clock, events);
    ASSERT_EQ(got, 1u);
    receiver.stop();
  }  // peer gone; the sender's established connection is now dead

  // Sends into the void are dropped and counted — never blocked on.
  const core::Time drop_deadline = clock.now() + 30 * core::kSecond;
  while (sender.counters().messages_dropped.load() == 0 &&
         clock.now() < drop_deadline) {
    sender.send(0, 1, *make_accept(2));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(sender.counters().messages_dropped.load(), 0u);

  // A fresh peer on the same endpoints: the writer reconnects on a later
  // flush and delivery resumes, with no sender restart.
  TcpTransport receiver(endpoints);
  Inbox rx1;
  receiver.attach(1, &rx1);
  receiver.start();
  ASSERT_TRUE(receiver.error().empty()) << receiver.error();
  std::vector<Event> events;
  std::size_t got = 0;
  const core::Time deadline = clock.now() + 30 * core::kSecond;
  while (got == 0 && clock.now() < deadline) {
    sender.send(0, 1, *make_accept(3));
    got = rx1.drain_until(clock.now() + 50 * core::kMillisecond, clock,
                          events);
  }
  EXPECT_GT(got, 0u);
  receiver.stop();
  sender.stop();
}

TEST(TcpWirePath, CorruptFrameIsCountedDroppedAndNeverDelivered) {
  std::vector<core::NodeAddress> endpoints = {{"127.0.0.1", free_port()},
                                              {"127.0.0.1", free_port()}};
  TcpTransport receiver(endpoints);
  Inbox rx1;
  receiver.attach(1, &rx1);
  receiver.start();
  ASSERT_TRUE(receiver.error().empty()) << receiver.error();

  const std::vector<std::uint8_t> body = net::encode_payload(*make_accept(7));
  net::FrameHeader header;
  header.sender = 0;
  header.message_count = 1;
  header.body_bytes = body.size();

  const auto dial = [&] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(endpoints[1].port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    return fd;
  };
  const auto send_frame = [&](int fd) {
    const std::vector<std::uint8_t> head = header.encode();
    EXPECT_EQ(::send(fd, head.data(), head.size(), 0),
              static_cast<ssize_t>(head.size()));
    EXPECT_EQ(::send(fd, body.data(), body.size(), 0),
              static_cast<ssize_t>(body.size()));
  };

  // A frame whose body fails its CRC: the reader counts the corruption and
  // drops the connection without delivering — EOF here is the drop.
  header.checksum = net::crc32c(body.data(), body.size()) ^ 0xDEADBEEF;
  const int bad = dial();
  send_frame(bad);
  std::uint8_t byte;
  EXPECT_EQ(::recv(bad, &byte, 1, 0), 0);
  ::close(bad);
  EXPECT_EQ(receiver.counters().decode_failures.load(), 1u);
  std::vector<Event> events;
  EXPECT_EQ(rx1.pop_all(events), 0u);

  // A well-formed frame on a fresh connection still delivers: one corrupt
  // peer cannot poison the listener.
  header.checksum = net::crc32c(body.data(), body.size());
  const int good = dial();
  send_frame(good);
  MonotonicClock clock;
  const core::Time deadline = clock.now() + 30 * core::kSecond;
  std::size_t got = 0;
  while (got == 0 && clock.now() < deadline)
    got = rx1.drain_until(deadline, clock, events);
  ASSERT_EQ(got, 1u);
  ASSERT_EQ(events.front().payload->kind(), net::kKindM2Paxos + 2);
  EXPECT_EQ(static_cast<const m2p::Accept&>(*events.front().payload).req_id,
            7u);
  ::close(good);
  receiver.stop();
}

TEST(TcpWirePath, FrameWithBytesPastItsMessagesIsCountedAndDropped) {
  std::vector<core::NodeAddress> endpoints = {{"127.0.0.1", free_port()},
                                              {"127.0.0.1", free_port()}};
  TcpTransport receiver(endpoints);
  Inbox rx1;
  receiver.attach(1, &rx1);
  receiver.start();
  ASSERT_TRUE(receiver.error().empty()) << receiver.error();

  // A CRC-valid frame of one message followed by one stray byte: the
  // message count and the body length disagree, so the framing is lost.
  std::vector<std::uint8_t> body = net::encode_payload(*make_accept(7));
  body.push_back(0);
  net::FrameHeader header;
  header.sender = 0;
  header.message_count = 1;
  header.body_bytes = body.size();
  header.checksum = net::crc32c(body.data(), body.size());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(endpoints[1].port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const timeval recv_timeout{10, 0};  // fail, not hang, if never dropped
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recv_timeout,
               sizeof(recv_timeout));
  std::vector<std::uint8_t> frame = header.encode();
  frame.insert(frame.end(), body.begin(), body.end());
  EXPECT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  // The reader counts the failure and drops the connection without
  // delivering the frame's message: EOF here is the drop.
  std::uint8_t byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  EXPECT_EQ(receiver.counters().decode_failures.load(), 1u);
  std::vector<Event> events;
  EXPECT_EQ(rx1.pop_all(events), 0u);
  receiver.stop();
}

// ------------------------------------------------------------ spec files

TEST(ClusterSpec, ParsesFullDocument) {
  const char* text = R"({
    "protocol": "multipaxos",
    "seed": 9,
    "nodes": [
      {"host": "10.0.0.1", "port": 7101},
      {"host": "10.0.0.2", "port": 7102},
      {"host": "10.0.0.3", "port": 7103}
    ],
    "objects_per_node": 64,
    "enable_failure_detector": true,
    "batching": {"enabled": true, "max_commands": 8, "window_us": 100},
    "transport": {"max_coalesce_bytes": 65536, "max_queue_bytes": 1048576}
  })";
  m2::Config cfg;
  std::string error;
  ASSERT_TRUE(m2::Config::parse(text, &cfg, &error)) << error;
  EXPECT_EQ(cfg.protocol, core::Protocol::kMultiPaxos);
  EXPECT_EQ(cfg.backend, core::Backend::kTcp);
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_TRUE(cfg.enable_failure_detector);
  ASSERT_EQ(cfg.addresses.size(), 3u);
  EXPECT_EQ(cfg.addresses[1].host, "10.0.0.2");
  EXPECT_EQ(cfg.addresses[1].port, 7102);
  EXPECT_EQ(cfg.local_nodes, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(cfg.objects_per_node, 64u);
  EXPECT_TRUE(cfg.tuning.batching.enabled);
  EXPECT_EQ(cfg.tuning.batching.batch_max_commands, 8u);
  EXPECT_EQ(cfg.tuning.batching.batch_window, 100 * core::kMicrosecond);
  EXPECT_EQ(cfg.transport.max_coalesce_bytes, 65536u);
  EXPECT_EQ(cfg.transport.max_queue_bytes, 1048576u);

  const RuntimeConfig rt = m2::to_runtime_config(cfg);
  EXPECT_EQ(rt.protocol, core::Protocol::kMultiPaxos);
  EXPECT_EQ(rt.seed, 9u);
  EXPECT_EQ(rt.cluster.n_nodes, 3);
  EXPECT_TRUE(rt.enable_failure_detector);
  EXPECT_TRUE(rt.cluster.batching.enabled);
  EXPECT_EQ(rt.owner_map.owner(63), 0u);
  EXPECT_EQ(rt.owner_map.owner(64), 1u);
  EXPECT_EQ(rt.owner_map.owner(128), 2u);
}

TEST(ClusterSpec, WithoutObjectsPerNodeOwnershipIsModuloN) {
  m2::Config cfg;
  std::string error;
  ASSERT_TRUE(m2::Config::parse(
      R"({"nodes": [{"host": "a", "port": 1}, {"host": "b", "port": 2},
                    {"host": "c", "port": 3}]})",
      &cfg, &error))
      << error;
  EXPECT_EQ(cfg.objects_per_node, 0u);
  const RuntimeConfig rt = m2::to_runtime_config(cfg);
  EXPECT_EQ(rt.cluster.n_nodes, 3);
  for (core::ObjectId o = 0; o < 12; ++o)
    EXPECT_EQ(rt.owner_map.owner(o), static_cast<NodeId>(o % 3)) << o;
}

TEST(ClusterSpec, RejectsMalformedDocuments) {
  m2::Config cfg;
  std::string error;
  EXPECT_FALSE(m2::Config::parse("not json", &cfg, &error));
  EXPECT_FALSE(m2::Config::parse("{}", &cfg, &error));  // no nodes
  EXPECT_FALSE(m2::Config::parse(
      R"({"nodes": [{"host": "a", "port": 1}], "typo_key": 1})", &cfg,
      &error));
  EXPECT_NE(error.find("unknown key \"typo_key\""), std::string::npos);
  EXPECT_FALSE(m2::Config::parse(
      R"({"protocol": "raft", "nodes": [{"host": "a", "port": 1}]})", &cfg,
      &error));
  EXPECT_FALSE(m2::Config::parse(
      R"({"nodes": [{"host": "a", "port": 99999}]})", &cfg, &error));
  // Transport knobs: unknown keys and zero limits fail loudly.
  EXPECT_FALSE(m2::Config::parse(
      R"({"nodes": [{"host": "a", "port": 1}],
          "transport": {"coalesce": 1}})",
      &cfg, &error));
  EXPECT_FALSE(m2::Config::parse(
      R"({"nodes": [{"host": "a", "port": 1}],
          "transport": {"max_queue_bytes": 0}})",
      &cfg, &error));
}

TEST(ProtocolNames, ParseRoundTripsEveryNameInAnyCase) {
  for (const core::Protocol p : core::kProtocols) {
    const std::string name = core::to_string(p);
    EXPECT_EQ(core::parse_protocol(name), p) << name;
    EXPECT_EQ(core::parse_protocol(core::lower_name(p)), p) << name;
    std::string upper = name;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    EXPECT_EQ(core::parse_protocol(upper), p) << upper;
  }
  EXPECT_EQ(core::lower_name(core::Protocol::kM2Paxos), "m2paxos");
  EXPECT_EQ(core::parse_protocol("raft"), std::nullopt);
  EXPECT_EQ(core::parse_protocol("m2paxo"), std::nullopt);
  EXPECT_EQ(core::parse_protocol(""), std::nullopt);
}

// ---------------------------------------------------------------- facade

TEST(ClusterBuilder, RejectsInvalidConfigs) {
  std::string error;
  EXPECT_EQ(m2::ClusterBuilder().nodes(0).build(&error), nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(m2::ClusterBuilder().backend(m2::Backend::kTcp).build(&error),
            nullptr);  // kTcp without addresses
}

TEST(ClusterBuilder, SimAndLoopbackAgreeOnASmallRun) {
  for (const m2::Backend backend :
       {m2::Backend::kSim, m2::Backend::kLoopback}) {
    std::string error;
    auto cluster = m2::ClusterBuilder()
                       .protocol(m2::Protocol::kM2Paxos)
                       .backend(backend)
                       .nodes(3)
                       .objects_per_node(8)
                       .audit(true)
                       .build(&error);
    ASSERT_NE(cluster, nullptr) << error;
    for (NodeId n = 0; n < 3; ++n) {
      cluster->propose(n, {n * 8});
      cluster->propose(n, {0});  // everyone contends on object 0
    }
    EXPECT_TRUE(cluster->await_committed(6, 30 * core::kSecond));
    cluster->stop();
    const auto report = cluster->audit();
    EXPECT_TRUE(report.ok) << report.violation;
    EXPECT_EQ(cluster->committed(), 6u);
    EXPECT_GT(cluster->commit_latency().count(), 0u);
  }
}

}  // namespace
}  // namespace m2::runtime
