// Message-precise unit tests of GenPaxosReplica with a scripted context.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "genpaxos/genpaxos.hpp"
#include "test_util.hpp"

namespace m2::gp {
namespace {

using test::cmd;
using test::find_last;
using test::ScriptedContext;

constexpr std::uint64_t kRngSeed = 11;

core::ClusterConfig cfg3() {
  core::ClusterConfig cfg;
  cfg.n_nodes = 3;  // fast quorum = floor(2*3/3)+1 = 3
  return cfg;
}

FastAck make_ack(const core::Command& c, NodeId acceptor,
                 core::CommandId pred) {
  FastAck ack;
  ack.cmd_id = c.id;
  ack.acceptor = acceptor;
  for (const auto obj : c.objects) ack.preds.push_back({obj, pred});
  return ack;
}

TEST(GenPaxosUnit, ProposeBroadcastsFastRound) {
  ScriptedContext ctx{kRngSeed};
  GenPaxosReplica node(1, cfg3(), ctx);
  node.propose(cmd(1, 1, {4}));
  const auto* fp = find_last(ctx, net::kKindGenPaxos + 1);
  ASSERT_NE(fp, nullptr);
}

TEST(GenPaxosUnit, AgreeingFastQuorumCommitsAndNotifiesLeader) {
  ScriptedContext ctx{kRngSeed};
  GenPaxosReplica node(1, cfg3(), ctx);
  const auto c = cmd(1, 1, {4});
  node.propose(c);
  for (NodeId a = 0; a < 3; ++a)
    node.on_message(a, make_ack(c, a, core::CommandId{}));
  ASSERT_EQ(ctx.committed_.size(), 1u);  // fast agreement (2 delays)
  EXPECT_EQ(ctx.registry.counter(stats::Counter::kFastPathRounds), 1u);
  // Leader (node 0) asked to sequence.
  ASSERT_FALSE(ctx.sent.empty());
  const auto& last = ctx.sent.back();
  EXPECT_EQ(last.to, 0u);
  EXPECT_EQ(last.payload->kind(), net::kKindGenPaxos + 3);
}

TEST(GenPaxosUnit, DisagreeingVotesRaiseCollision) {
  ScriptedContext ctx{kRngSeed};
  GenPaxosReplica node(1, cfg3(), ctx);
  const auto c = cmd(1, 1, {4});
  node.propose(c);
  node.on_message(0, make_ack(c, 0, core::CommandId{}));
  node.on_message(1, make_ack(c, 1, core::CommandId{}));
  node.on_message(2, make_ack(c, 2, core::CommandId::make(2, 9)));  // differs
  EXPECT_EQ(ctx.registry.counter(stats::Counter::kCollisions), 1u);
  EXPECT_TRUE(ctx.committed_.empty());
  const auto& last = ctx.sent.back();
  EXPECT_EQ(last.to, 0u);
  EXPECT_EQ(last.payload->kind(), net::kKindGenPaxos + 4);  // ResolveReq
}

TEST(GenPaxosUnit, LeaderSequencesOnNotify) {
  ScriptedContext ctx{kRngSeed};
  GenPaxosReplica leader(0, cfg3(), ctx);
  const auto c = cmd(1, 1, {4});
  leader.on_message(1, CommitNotify(c));
  const auto* seq = static_cast<const Sequence*>(
      find_last(ctx, net::kKindGenPaxos + 7));
  ASSERT_NE(seq, nullptr);
  EXPECT_EQ(seq->index, 1u);
  EXPECT_EQ(seq->cmd.id, c.id);
  EXPECT_EQ(ctx.registry.counter(stats::Counter::kSequenced), 1u);
  // The leader itself delivers in sequence order.
  ASSERT_EQ(ctx.delivered.size(), 1u);
  // Duplicate notifies do not re-sequence.
  leader.on_message(2, CommitNotify(c));
  EXPECT_EQ(ctx.registry.counter(stats::Counter::kSequenced), 1u);
}

TEST(GenPaxosUnit, LeaderResolvesCollisionThroughClassicRound) {
  ScriptedContext ctx{kRngSeed};
  GenPaxosReplica leader(0, cfg3(), ctx);
  const auto c = cmd(2, 1, {4});
  leader.on_message(2, ResolveReq(c));
  const auto* slow = find_last(ctx, net::kKindGenPaxos + 5);
  ASSERT_NE(slow, nullptr);

  SlowAck a1;
  a1.ballot = 0;
  a1.cmd_id = c.id;
  a1.acceptor = 0;
  leader.on_message(0, a1);
  EXPECT_EQ(ctx.registry.counter(stats::Counter::kSequenced), 0u);
  SlowAck a2 = a1;
  a2.acceptor = 1;
  leader.on_message(1, a2);
  EXPECT_EQ(ctx.registry.counter(stats::Counter::kSequenced), 1u);
  EXPECT_NE(find_last(ctx, net::kKindGenPaxos + 7), nullptr);
}

TEST(GenPaxosUnit, LearnerDeliversInIndexOrder) {
  ScriptedContext ctx{kRngSeed};
  GenPaxosReplica learner(2, cfg3(), ctx);
  const auto c1 = cmd(0, 1, {1});
  const auto c2 = cmd(1, 1, {2});
  learner.on_message(0, Sequence(2, c2));  // gap
  EXPECT_TRUE(ctx.delivered.empty());
  learner.on_message(0, Sequence(1, c1));
  ASSERT_EQ(ctx.delivered.size(), 2u);
  EXPECT_EQ(ctx.delivered[0].id, c1.id);
  EXPECT_EQ(ctx.delivered[1].id, c2.id);
}

TEST(GenPaxosUnit, AcceptorVoteCarriesPerObjectPredecessors) {
  ScriptedContext ctx{kRngSeed};
  GenPaxosReplica acceptor(2, cfg3(), ctx);
  const auto c1 = cmd(0, 1, {4});
  const auto c2 = cmd(1, 1, {4});
  acceptor.on_message(0, FastPropose(c1));
  ctx.sent.clear();
  acceptor.on_message(1, FastPropose(c2));
  const auto* ack = static_cast<const FastAck*>(
      find_last(ctx, net::kKindGenPaxos + 2));
  ASSERT_NE(ack, nullptr);
  ASSERT_EQ(ack->preds.size(), 1u);
  EXPECT_EQ(ack->preds[0].pred, c1.id) << "c2's predecessor on object 4";
  EXPECT_GT(ack->cstruct_bytes, 0u);
}

}  // namespace
}  // namespace m2::gp
