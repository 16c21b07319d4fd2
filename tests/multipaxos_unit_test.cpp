// Message-precise unit tests of MultiPaxosReplica with a scripted context
// (see m2paxos_unit_test.cpp for the pattern).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "multipaxos/multipaxos.hpp"
#include "test_util.hpp"

namespace m2::mp {
namespace {

using test::cmd;
using test::find_last;
using test::ScriptedContext;

constexpr std::uint64_t kRngSeed = 3;

core::ClusterConfig cfg3() {
  core::ClusterConfig cfg;
  cfg.n_nodes = 3;
  return cfg;
}

TEST(MultiPaxosUnit, InitialLeaderIsNodeZero) {
  ScriptedContext ctx{kRngSeed};
  MultiPaxosReplica leader(0, cfg3(), ctx);
  EXPECT_TRUE(leader.is_leader());
  MultiPaxosReplica follower(1, cfg3(), ctx);
  EXPECT_FALSE(follower.is_leader());
  EXPECT_EQ(follower.current_leader(), 0u);
}

TEST(MultiPaxosUnit, LeaderAssignsConsecutiveSlots) {
  ScriptedContext ctx{kRngSeed};
  MultiPaxosReplica leader(0, cfg3(), ctx);
  leader.propose(cmd(0, 1, {1}));
  leader.propose(cmd(0, 2, {2}));
  std::vector<std::uint64_t> slots;
  for (const auto& [to, p] : ctx.sent)
    if (p->kind() == net::kKindMultiPaxos + 4)
      slots.push_back(static_cast<const Accept&>(*p).slot);
  EXPECT_EQ(slots, (std::vector<std::uint64_t>{1, 2}));
}

TEST(MultiPaxosUnit, FollowerForwardsToLeader) {
  ScriptedContext ctx{kRngSeed};
  MultiPaxosReplica follower(2, cfg3(), ctx);
  follower.propose(cmd(2, 1, {1}));
  ASSERT_FALSE(ctx.sent.empty());
  EXPECT_EQ(ctx.sent.back().to, 0u);
  EXPECT_EQ(ctx.sent.back().payload->kind(), net::kKindMultiPaxos + 1);
}

TEST(MultiPaxosUnit, QuorumOfAcceptedCommitsAndBroadcasts) {
  ScriptedContext ctx{kRngSeed};
  MultiPaxosReplica leader(0, cfg3(), ctx);
  const auto c = cmd(0, 1, {1});
  leader.propose(c);

  // Leader's own acceptance.
  leader.on_message(0, Accept(0, 1, c));
  Accepted a1;
  a1.ballot = 0;
  a1.slot = 1;
  a1.acceptor = 0;
  a1.ack = true;
  leader.on_message(0, a1);
  EXPECT_TRUE(ctx.committed_.empty());

  Accepted a2 = a1;
  a2.acceptor = 1;
  leader.on_message(1, a2);
  EXPECT_NE(find_last(ctx, net::kKindMultiPaxos + 6), nullptr);  // Commit
  ASSERT_EQ(ctx.committed_.size(), 1u);
  ASSERT_EQ(ctx.delivered.size(), 1u);
  EXPECT_EQ(ctx.delivered[0].id, c.id);
}

TEST(MultiPaxosUnit, AcceptorRejectsLowerBallotAfterPromise) {
  ScriptedContext ctx{kRngSeed};
  MultiPaxosReplica acceptor(1, cfg3(), ctx);
  acceptor.on_message(2, Prepare(5, 1));  // ballot 5 led by node 2 (5 % 3)
  const auto* promise = static_cast<const Promise*>(
      find_last(ctx, net::kKindMultiPaxos + 3));
  ASSERT_NE(promise, nullptr);
  EXPECT_TRUE(promise->ack);
  EXPECT_EQ(acceptor.current_leader(), 2u);

  ctx.sent.clear();
  acceptor.on_message(0, Accept(3, 1, cmd(0, 1, {1})));  // stale ballot
  const auto* reply = static_cast<const Accepted*>(
      find_last(ctx, net::kKindMultiPaxos + 5));
  ASSERT_NE(reply, nullptr);
  EXPECT_FALSE(reply->ack);
}

TEST(MultiPaxosUnit, PromiseCarriesVotesAboveRequestedSlot) {
  ScriptedContext ctx{kRngSeed};
  MultiPaxosReplica acceptor(1, cfg3(), ctx);
  const auto c = cmd(0, 1, {1});
  acceptor.on_message(0, Accept(0, 4, c));
  ctx.sent.clear();
  acceptor.on_message(2, Prepare(5, 2));
  const auto* promise = static_cast<const Promise*>(
      find_last(ctx, net::kKindMultiPaxos + 3));
  ASSERT_NE(promise, nullptr);
  ASSERT_EQ(promise->votes.size(), 1u);
  EXPECT_EQ(promise->votes[0].slot, 4u);
  EXPECT_EQ(promise->votes[0].vballot, 0u);
  EXPECT_EQ(promise->votes[0].cmd->id, c.id);
}

TEST(MultiPaxosUnit, CommitsDeliverInSlotOrder) {
  ScriptedContext ctx{kRngSeed};
  MultiPaxosReplica learner(2, cfg3(), ctx);
  const auto c1 = cmd(0, 1, {1});
  const auto c2 = cmd(0, 2, {2});
  learner.on_message(0, Commit(2, c2));  // gap: slot 1 missing
  EXPECT_TRUE(ctx.delivered.empty());
  learner.on_message(0, Commit(1, c1));
  ASSERT_EQ(ctx.delivered.size(), 2u);
  EXPECT_EQ(ctx.delivered[0].id, c1.id);
  EXPECT_EQ(ctx.delivered[1].id, c2.id);
}

}  // namespace
}  // namespace m2::mp
