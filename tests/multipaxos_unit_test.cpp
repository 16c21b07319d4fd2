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

TEST(MultiPaxosUnit, ReArmedBatchWindowCountsTheFlushItCloses) {
  ScriptedContext ctx{kRngSeed};
  core::ClusterConfig cfg = cfg3();
  cfg.batching.enabled = true;
  cfg.batching.pipeline_depth = 1;
  const core::Time window = cfg.batching.batch_window;
  MultiPaxosReplica leader(0, cfg, ctx);
  auto last_accept_slot = [&] {
    const auto* a =
        static_cast<const Accept*>(find_last(ctx, net::kKindMultiPaxos + 4));
    return a == nullptr ? 0 : a->slot;
  };

  const auto window_flushes = [&] {
    return ctx.registry.counter(stats::Counter::kBatchFlushWindow);
  };

  const auto c1 = cmd(0, 1, {1});
  leader.propose(c1);
  ctx.sim.run_until(window);  // closes slot 1; the pipeline is now full
  ASSERT_EQ(last_accept_slot(), 1u);
  EXPECT_EQ(window_flushes(), 1u);

  // The window expires with the pipeline full: c2 is held back, the flush
  // re-arms the window, and the expiry that closed nothing is not counted.
  leader.propose(cmd(0, 2, {2}));
  ctx.sim.run_until(2 * window);
  ASSERT_EQ(last_accept_slot(), 1u);
  EXPECT_EQ(window_flushes(), 1u);

  // Slot 1 commits: the pipeline has room, but a partial batch waits.
  leader.on_message(0, Accept(0, 1, c1));
  Accepted ack;
  ack.ballot = 0;
  ack.slot = 1;
  ack.ack = true;
  for (NodeId from : {0u, 1u}) {
    ack.acceptor = from;
    leader.on_message(from, ack);
  }
  ASSERT_EQ(ctx.committed_.size(), 1u);
  ASSERT_EQ(last_accept_slot(), 1u);

  // The re-armed window closes the held-back batch and counts it.
  ctx.sim.run_until(3 * window);
  EXPECT_EQ(last_accept_slot(), 2u);
  EXPECT_EQ(window_flushes(), 2u);
}

TEST(MultiPaxosUnit, WindowEmptiedByAFullBatchIsNotCounted) {
  ScriptedContext ctx{kRngSeed};
  core::ClusterConfig cfg = cfg3();
  cfg.batching.enabled = true;
  cfg.batching.batch_max_commands = 2;
  const core::Time window = cfg.batching.batch_window;
  MultiPaxosReplica leader(0, cfg, ctx);

  // The first command arms the window; the second fills the batch, which
  // closes at once and leaves that window armed over an empty buffer.
  leader.propose(cmd(0, 1, {1}));
  leader.propose(cmd(0, 2, {2}));
  ASSERT_EQ(ctx.registry.counter(stats::Counter::kBatchFlushFull), 1u);
  ctx.sim.run_until(window);
  EXPECT_EQ(ctx.registry.counter(stats::Counter::kBatchedRounds), 1u);
  EXPECT_EQ(ctx.registry.counter(stats::Counter::kBatchFlushWindow), 0u);
}

}  // namespace
}  // namespace m2::mp
