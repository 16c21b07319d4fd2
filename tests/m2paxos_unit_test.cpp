// Message-precise unit tests of M2PaxosReplica against a scripted Context:
// no network, no harness — every send is captured and asserted, every
// incoming message injected by hand. These pin the exact protocol steps of
// Algorithms 1-4 (epochs, slots, ack/nack rules, promise contents).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "m2paxos/m2paxos.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace m2::m2p {
namespace {

using test::cmd;

struct Sent {
  bool broadcast = false;
  NodeId to = kNoNode;
  net::PayloadPtr payload;
};

class ScriptedContext final : public core::Context {
 public:
  sim::Time now() const override { return sim.now(); }
  sim::Rng& rng() override { return rng_; }
  void send(NodeId to, net::PayloadPtr p) override {
    sent.push_back({false, to, std::move(p)});
  }
  void broadcast(net::PayloadPtr p, bool) override {
    sent.push_back({true, kNoNode, std::move(p)});
  }
  sim::EventId set_timer(sim::Time delay, sim::InlineFn fn) override {
    return sim.after(delay, std::move(fn));
  }
  void cancel_timer(sim::EventId id) override { sim.cancel(id); }
  void deliver(const core::Command& c) override { delivered.push_back(c); }
  void committed(const core::Command& c) override { committed_.push_back(c); }

  sim::Simulator sim;
  sim::Rng rng_{7};
  std::vector<Sent> sent;
  std::vector<core::Command> delivered;
  std::vector<core::Command> committed_;
};

/// Finds the most recent sent payload with the given kind.
const net::Payload* find_last(const ScriptedContext& ctx, std::uint32_t kind) {
  for (auto it = ctx.sent.rbegin(); it != ctx.sent.rend(); ++it)
    if (it->payload->kind() == kind) return it->payload.get();
  return nullptr;
}

struct Fixture {
  Fixture() : ctx(), replica(0, make_cfg(), ctx) {
    // Node n owns [n*1000, (n+1)*1000).
    replica.set_default_owner(core::OwnerMap::divide(1000));
  }
  static core::ClusterConfig make_cfg() {
    core::ClusterConfig cfg;
    cfg.n_nodes = 3;
    return cfg;
  }
  ScriptedContext ctx;
  M2PaxosReplica replica;
};

TEST(M2PaxosUnit, FastPathSendsAcceptWithOwnedEpochAndNextSlot) {
  Fixture f;
  f.replica.propose(cmd(0, 1, {7}));
  const auto* accept = static_cast<const Accept*>(
      find_last(f.ctx, net::kKindM2Paxos + 2));
  ASSERT_NE(accept, nullptr);
  ASSERT_EQ(accept->slots.size(), 1u);
  EXPECT_EQ(accept->slots[0].object, 7u);
  EXPECT_EQ(accept->slots[0].instance, 1u);  // first slot
  EXPECT_EQ(accept->slots[0].epoch, 0u);     // preassigned epoch
  EXPECT_EQ(accept->slots[0].cmd->id, cmd(0, 1, {7}).id);

  // Pipelined second command takes the next slot.
  f.replica.propose(cmd(0, 2, {7}));
  const auto* accept2 = static_cast<const Accept*>(
      find_last(f.ctx, net::kKindM2Paxos + 2));
  EXPECT_EQ(accept2->slots[0].instance, 2u);
}

TEST(M2PaxosUnit, QuorumOfAcksDecidesAndBroadcastsDecide) {
  Fixture f;
  const auto c = cmd(0, 1, {7});
  f.replica.propose(c);
  const auto* accept = static_cast<const Accept*>(
      find_last(f.ctx, net::kKindM2Paxos + 2));
  ASSERT_NE(accept, nullptr);

  // Self ack (1) + one remote ack (2) = classic quorum at N=3.
  AckAccept self_ack;
  self_ack.req_id = accept->req_id;
  self_ack.acceptor = 0;
  self_ack.ack = true;
  f.replica.on_message(0, self_ack);
  EXPECT_TRUE(f.ctx.committed_.empty()) << "one ack is not a quorum";

  AckAccept remote_ack = self_ack;
  remote_ack.acceptor = 1;
  f.replica.on_message(1, remote_ack);

  EXPECT_NE(find_last(f.ctx, net::kKindM2Paxos + 4), nullptr);  // Decide
  ASSERT_EQ(f.ctx.committed_.size(), 1u);  // commit after 2 delays
  EXPECT_EQ(f.ctx.committed_[0].id, c.id);
  ASSERT_EQ(f.ctx.delivered.size(), 1u);   // frontier slot -> delivered
}

TEST(M2PaxosUnit, DuplicateAckFromSameAcceptorDoesNotCount) {
  Fixture f;
  f.replica.propose(cmd(0, 1, {7}));
  const auto* accept = static_cast<const Accept*>(
      find_last(f.ctx, net::kKindM2Paxos + 2));
  AckAccept ack;
  ack.req_id = accept->req_id;
  ack.acceptor = 0;
  ack.ack = true;
  f.replica.on_message(0, ack);
  f.replica.on_message(0, ack);  // duplicate
  EXPECT_TRUE(f.ctx.committed_.empty());
}

TEST(M2PaxosUnit, AcceptorAcksAcceptAndUpdatesOwnership) {
  Fixture f;
  const auto c = cmd(1, 1, {1500});
  Accept accept(42, {{1500, 1, 0, c}});
  f.replica.on_message(1, accept);

  const auto* reply = static_cast<const AckAccept*>(
      find_last(f.ctx, net::kKindM2Paxos + 3));
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->ack);
  EXPECT_EQ(reply->req_id, 42u);
  EXPECT_EQ(reply->acceptor, 0u);
  const auto* st = f.replica.table().find(1500);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->owner, 1u);  // Algorithm 2 line 18
}

TEST(M2PaxosUnit, AcceptorNacksStaleEpochWithHints) {
  Fixture f;
  const auto c1 = cmd(1, 1, {1500});
  // A prepare at epoch 5 raises the promise.
  Prepare prep(1, {{1500, 1, 5}});
  f.replica.on_message(2, prep);
  // A stale accept at epoch 3 must be NACKed, with the current view.
  Accept accept(43, {{1500, 1, 3, c1}});
  f.replica.on_message(1, accept);
  const auto* reply = static_cast<const AckAccept*>(
      find_last(f.ctx, net::kKindM2Paxos + 3));
  ASSERT_NE(reply, nullptr);
  EXPECT_FALSE(reply->ack);
  ASSERT_EQ(reply->hints.size(), 1u);
  EXPECT_EQ(reply->hints[0].object, 1500u);
  EXPECT_EQ(reply->hints[0].epoch, 5u);
}

TEST(M2PaxosUnit, AcceptorPromiseReportsVotesAndFloor) {
  Fixture f;
  const auto c = cmd(1, 1, {1500});
  f.replica.on_message(1, Accept(44, {{1500, 3, 0, c}}));
  f.ctx.sent.clear();

  Prepare prep(2, {{1500, 1, 4}});
  f.replica.on_message(2, prep);
  const auto* reply = static_cast<const AckPrepare*>(
      find_last(f.ctx, net::kKindM2Paxos + 6));
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->ack);
  ASSERT_EQ(reply->votes.size(), 1u);
  EXPECT_EQ(reply->votes[0].instance, 3u);
  EXPECT_EQ(reply->votes[0].cmd->id, c.id);
  EXPECT_FALSE(reply->votes[0].decided);
  ASSERT_EQ(reply->delivered_floors.size(), 1u);
  EXPECT_EQ(reply->delivered_floors[0].second, 0u);  // nothing delivered

  // A second prepare at a lower epoch is rejected.
  f.ctx.sent.clear();
  Prepare stale(3, {{1500, 1, 2}});
  f.replica.on_message(1, stale);
  const auto* nack = static_cast<const AckPrepare*>(
      find_last(f.ctx, net::kKindM2Paxos + 6));
  ASSERT_NE(nack, nullptr);
  EXPECT_FALSE(nack->ack);
}

TEST(M2PaxosUnit, DecideMessageAdvancesFrontierAndDelivers) {
  Fixture f;
  const auto c1 = cmd(1, 1, {1500});
  const auto c2 = cmd(1, 2, {1500});
  // Out of order: slot 2 first (gap), then slot 1.
  f.replica.on_message(1, Decide({{1500, 2, 0, c2}}));
  EXPECT_TRUE(f.ctx.delivered.empty());
  f.replica.on_message(1, Decide({{1500, 1, 0, c1}}));
  ASSERT_EQ(f.ctx.delivered.size(), 2u);
  EXPECT_EQ(f.ctx.delivered[0].id, c1.id);
  EXPECT_EQ(f.ctx.delivered[1].id, c2.id);
}

TEST(M2PaxosUnit, SyncRequestServesRetainedDecisions) {
  Fixture f;
  const auto c = cmd(1, 1, {1500});
  f.replica.on_message(1, Decide({{1500, 1, 0, c}}));
  f.ctx.sent.clear();
  f.replica.on_message(2, SyncRequest(SyncRequest::EntryList{{1500, 1}}));
  const auto* reply = static_cast<const SyncReply*>(
      find_last(f.ctx, net::kKindM2Paxos + 8));
  ASSERT_NE(reply, nullptr);
  ASSERT_EQ(reply->slots.size(), 1u);
  EXPECT_EQ(reply->slots[0].cmd->id, c.id);
}

TEST(M2PaxosUnit, DecidedSlotKeepsTheAcceptedHandle) {
  Fixture f;
  const auto accepted = std::make_shared<const Command>(cmd(1, 1, {1500}));
  f.replica.on_message(1, Accept(42, {{1500, 1, 0, accepted}}));
  // Over a real transport the Decide decodes its own copy of the command.
  f.replica.on_message(
      1, Decide({{1500, 1, 0, std::make_shared<const Command>(*accepted)}}));
  const Slot* slot = f.replica.table().find(1500)->log.find(1);
  ASSERT_NE(slot, nullptr);
  EXPECT_TRUE(slot->decided);
  EXPECT_EQ(slot->cmd, accepted);  // one command block, not two
  ASSERT_EQ(f.ctx.delivered.size(), 1u);
}

TEST(M2PaxosUnit, LaterAcceptLeavesADecidedSlotAlone) {
  Fixture f;
  const auto c1 = cmd(1, 1, {1500});
  f.replica.on_message(1, Accept(42, {{1500, 1, 0, c1}}));
  f.replica.on_message(1, Decide({{1500, 1, 0, c1}}));
  // A higher-epoch Accept of another command at the decided slot is acked
  // (the promise allows it) but changes neither value nor decision.
  f.replica.on_message(2, Accept(43, {{1500, 1, 5, cmd(2, 9, {1500})}}));
  const auto* ack = static_cast<const AckAccept*>(
      find_last(f.ctx, net::kKindM2Paxos + 3));
  ASSERT_NE(ack, nullptr);
  EXPECT_TRUE(ack->ack);
  const Slot* slot = f.replica.table().find(1500)->log.find(1);
  ASSERT_NE(slot, nullptr);
  EXPECT_TRUE(slot->decided);
  EXPECT_EQ(slot->cmd->id, c1.id);
  EXPECT_EQ(slot->accepted_epoch, 0u);

  f.replica.on_message(2, Prepare(7, {{1500, 1, 6}}));
  const auto* reply = static_cast<const AckPrepare*>(
      find_last(f.ctx, net::kKindM2Paxos + 6));
  ASSERT_NE(reply, nullptr);
  ASSERT_TRUE(reply->ack);
  ASSERT_EQ(reply->votes.size(), 1u);
  EXPECT_TRUE(reply->votes[0].decided);
  EXPECT_EQ(reply->votes[0].cmd->id, c1.id);
}

TEST(M2PaxosUnit, DecisionWithAnotherHeadReplacesTheAcceptedValue) {
  Fixture f;
  f.replica.on_message(1, Accept(42, {{1500, 1, 0, cmd(1, 1, {1500})}}));
  const auto decided = std::make_shared<const Command>(cmd(2, 1, {1500}));
  f.replica.on_message(2, Decide({{1500, 1, 0, decided}}));
  const Slot* slot = f.replica.table().find(1500)->log.find(1);
  ASSERT_NE(slot, nullptr);
  EXPECT_TRUE(slot->decided);
  EXPECT_EQ(slot->cmd, decided);
  ASSERT_EQ(f.ctx.delivered.size(), 1u);
  EXPECT_EQ(f.ctx.delivered[0].id, decided->id);
}

TEST(M2PaxosUnit, ForwardedProposeGoesToOwner) {
  Fixture f;
  // Object 1500 is owned by node 1 per the default map.
  f.replica.propose(cmd(0, 1, {1500}));
  ASSERT_FALSE(f.ctx.sent.empty());
  const Sent& s = f.ctx.sent.back();
  EXPECT_FALSE(s.broadcast);
  EXPECT_EQ(s.to, 1u);
  EXPECT_EQ(s.payload->kind(), net::kKindM2Paxos + 1);  // Propose
}

}  // namespace
}  // namespace m2::m2p
