// Message-precise unit tests of EPaxosReplica with a scripted context.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "epaxos/epaxos.hpp"
#include "test_util.hpp"

namespace m2::ep {
namespace {

using test::cmd;
using test::find_last;
using test::ScriptedContext;

constexpr std::uint64_t kRngSeed = 5;

core::ClusterConfig cfg5() {
  core::ClusterConfig cfg;
  cfg.n_nodes = 5;  // f=2, epaxos fast quorum = 3 (leader + 2 peers)
  return cfg;
}

TEST(EPaxosUnit, LeaderSendsPreAcceptToRingPeers) {
  ScriptedContext ctx{kRngSeed};
  EPaxosReplica leader(0, cfg5(), ctx);
  leader.propose(cmd(0, 1, {7}));
  // Fast quorum peers of node 0 at N=5 are nodes 1 and 2.
  std::vector<NodeId> targets;
  for (const auto& [to, p] : ctx.sent)
    if (p->kind() == net::kKindEPaxos + 1) targets.push_back(to);
  EXPECT_EQ(targets, (std::vector<NodeId>{1, 2}));
}

TEST(EPaxosUnit, FirstCommandHasNoDeps) {
  ScriptedContext ctx{kRngSeed};
  EPaxosReplica leader(0, cfg5(), ctx);
  leader.propose(cmd(0, 1, {7}));
  const auto* pa = static_cast<const PreAccept*>(
      find_last(ctx, net::kKindEPaxos + 1));
  ASSERT_NE(pa, nullptr);
  EXPECT_TRUE(pa->attrs.deps.empty());
  EXPECT_EQ(pa->attrs.seq, 0u);
}

TEST(EPaxosUnit, SecondConflictingCommandDependsOnFirst) {
  ScriptedContext ctx{kRngSeed};
  EPaxosReplica leader(0, cfg5(), ctx);
  leader.propose(cmd(0, 1, {7}));
  leader.propose(cmd(0, 2, {7}));
  const auto* pa = static_cast<const PreAccept*>(
      find_last(ctx, net::kKindEPaxos + 1));
  ASSERT_NE(pa, nullptr);
  ASSERT_EQ(pa->attrs.deps.size(), 1u);
  EXPECT_EQ(pa->attrs.deps[0], make_inst(0, 1));
  EXPECT_EQ(pa->attrs.seq, 1u);
}

TEST(EPaxosUnit, UnchangedRepliesCommitFast) {
  ScriptedContext ctx{kRngSeed};
  EPaxosReplica leader(0, cfg5(), ctx);
  const auto c = cmd(0, 1, {7});
  leader.propose(c);

  PreAcceptReply r1;
  r1.inst = make_inst(0, 1);
  r1.acceptor = 1;
  r1.changed = false;
  leader.on_message(1, r1);
  EXPECT_TRUE(ctx.committed_.empty()) << "needs fq-1 = 2 replies";

  PreAcceptReply r2 = r1;
  r2.acceptor = 2;
  leader.on_message(2, r2);
  ASSERT_EQ(ctx.committed_.size(), 1u);  // fast commit, two delays
  EXPECT_EQ(ctx.committed_[0].id, c.id);
  EXPECT_NE(find_last(ctx, net::kKindEPaxos + 5), nullptr);  // Commit bcast
  EXPECT_EQ(ctx.registry.counter(stats::Counter::kFastPathRounds), 1u);
  // Depless instance executes immediately.
  ASSERT_EQ(ctx.delivered.size(), 1u);
}

TEST(EPaxosUnit, ChangedReplyForcesSlowPath) {
  ScriptedContext ctx{kRngSeed};
  EPaxosReplica leader(0, cfg5(), ctx);
  const auto c = cmd(0, 1, {7});
  leader.propose(c);

  PreAcceptReply r1;
  r1.inst = make_inst(0, 1);
  r1.acceptor = 1;
  r1.changed = true;  // peer knew a conflicting instance
  r1.attrs.seq = 4;
  r1.attrs.deps = {make_inst(3, 9)};
  leader.on_message(1, r1);
  PreAcceptReply r2;
  r2.inst = make_inst(0, 1);
  r2.acceptor = 2;
  r2.changed = false;
  leader.on_message(2, r2);

  // Slow path: Paxos-Accept broadcast with the merged attributes.
  const auto* acc = static_cast<const AcceptMsg*>(
      find_last(ctx, net::kKindEPaxos + 3));
  ASSERT_NE(acc, nullptr);
  EXPECT_EQ(acc->attrs.seq, 4u);
  ASSERT_EQ(acc->attrs.deps.size(), 1u);
  EXPECT_TRUE(ctx.committed_.empty());

  AcceptReply ar1;
  ar1.inst = make_inst(0, 1);
  ar1.acceptor = 1;
  leader.on_message(1, ar1);
  AcceptReply ar2 = ar1;
  ar2.acceptor = 3;
  leader.on_message(3, ar2);
  ASSERT_EQ(ctx.committed_.size(), 1u);
  EXPECT_EQ(ctx.registry.counter(stats::Counter::kSlowCommits), 1u);
}

TEST(EPaxosUnit, AcceptorExtendsAttrsForKnownConflicts) {
  ScriptedContext ctx{kRngSeed};
  EPaxosReplica acceptor(1, cfg5(), ctx);
  // Acceptor learns of instance (3,5) touching object 7 via a commit.
  acceptor.on_message(3, CommitMsg(make_inst(3, 5), cmd(3, 5, {7}), {2, {}}));
  ctx.sent.clear();
  // A PreAccept for a conflicting command without that dep gets extended.
  acceptor.on_message(0, PreAccept(make_inst(0, 1), cmd(0, 1, {7}), {0, {}}));
  const auto* reply = static_cast<const PreAcceptReply*>(
      find_last(ctx, net::kKindEPaxos + 2));
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->changed);
  ASSERT_EQ(reply->attrs.deps.size(), 1u);
  EXPECT_EQ(reply->attrs.deps[0], make_inst(3, 5));
  EXPECT_EQ(reply->attrs.seq, 3u);  // dep seq 2 + 1
}

TEST(EPaxosUnit, ExecutionWaitsForUncommittedDependency) {
  ScriptedContext ctx{kRngSeed};
  EPaxosReplica node(4, cfg5(), ctx);
  const auto c1 = cmd(0, 1, {7});
  const auto c2 = cmd(1, 1, {7});
  // c2 committed first, depending on c1 (not yet committed here).
  node.on_message(1, CommitMsg(make_inst(1, 1), c2, {1, {make_inst(0, 1)}}));
  EXPECT_TRUE(ctx.delivered.empty());
  EXPECT_GT(ctx.registry.counter(stats::Counter::kExecBlocked), 0u);
  // c1's commit unblocks both, in dependency order.
  node.on_message(0, CommitMsg(make_inst(0, 1), c1, {0, {}}));
  ASSERT_EQ(ctx.delivered.size(), 2u);
  EXPECT_EQ(ctx.delivered[0].id, c1.id);
  EXPECT_EQ(ctx.delivered[1].id, c2.id);
}

}  // namespace
}  // namespace m2::ep
