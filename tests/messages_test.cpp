// Wire-size model tests: message sizes drive bandwidth, batching, and CPU
// costs in the simulator, and the paper's bandwidth argument (§VI-A) rests
// on dependency metadata making EPaxos/GenPaxos messages bigger. These
// tests pin the model.
#include <gtest/gtest.h>

#include "epaxos/epaxos.hpp"
#include "genpaxos/genpaxos.hpp"
#include "m2paxos/messages.hpp"
#include "multipaxos/multipaxos.hpp"
#include "test_util.hpp"

namespace m2 {
namespace {

using test::cmd;

TEST(M2Messages, AcceptGrowsPerSlot) {
  const auto c = cmd(0, 1, {1, 2, 3});
  m2p::SlotList slots;
  for (core::ObjectId l : c.objects) slots.push_back({l, 1, 0, c});
  m2p::Accept multi(1, slots);
  m2p::Accept single(2, {slots[0]});
  // The command travels once per message: each further slot adds its
  // header, a head reference and a one-byte empty batch tail.
  EXPECT_EQ(multi.wire_size() - single.wire_size(),
            2 * (m2p::SlotValue::kHeaderBytes + m2p::HeadIndex::kRefBytes + 1));
}

TEST(M2Messages, AcceptWithDistinctCommandsGrows) {
  const auto a = cmd(0, 1, {1});
  const auto b = cmd(1, 1, {2});
  m2p::Accept both(1, {{1, 1, 0, a}, {2, 1, 0, b}});
  m2p::Accept one(2, {{1, 1, 0, a}});
  EXPECT_GT(both.wire_size() - one.wire_size(),
            m2p::SlotValue::kHeaderBytes + 8);
}

TEST(M2Messages, NacksCarryHints) {
  m2p::AckAccept nack;
  const auto empty = nack.wire_size();
  nack.hints.push_back({1, 2, 0});
  nack.hints.push_back({2, 2, 0});
  // A hint encodes as object u64 + epoch u64 + owner u32 = 20 bytes.
  EXPECT_EQ(nack.wire_size(), empty + 40);
}

TEST(M2Messages, AckPrepareGrowsWithVotes) {
  m2p::AckPrepare ack;
  ack.votes.push_back({1, 1, 1, false, cmd(0, 1, {1})});
  m2p::AckPrepare ack2;
  ack2.votes.push_back({1, 1, 1, false, cmd(0, 1, {1})});
  ack2.votes.push_back({1, 2, 1, false, cmd(0, 2, {1})});
  EXPECT_GT(ack2.wire_size(), ack.wire_size());
}

TEST(M2Messages, FastPathMessagesAreSmall) {
  // The paper's point: no dependencies means a near-constant message size.
  const auto c = cmd(0, 1, {1});
  m2p::Accept accept(1, {{1, 1, 0, c}});
  EXPECT_LT(accept.wire_size(), 100u);
  m2p::AckAccept ack;
  EXPECT_LT(ack.wire_size(), 20u);
}

TEST(EpMessages, PreAcceptGrowsPerDependency) {
  const auto c = cmd(0, 1, {1});
  ep::Attrs none;
  ep::Attrs many;
  for (int i = 0; i < 30; ++i) many.deps.push_back(ep::make_inst(1, i + 1));
  ep::PreAccept small(ep::make_inst(0, 1), c, none);
  ep::PreAccept big(ep::make_inst(0, 2), c, many);
  EXPECT_EQ(big.wire_size() - small.wire_size(), 30 * 8);
}

TEST(EpMessages, CommitCarriesDependencies) {
  const auto c = cmd(0, 1, {1});
  ep::Attrs attrs;
  for (int i = 0; i < 10; ++i) attrs.deps.push_back(ep::make_inst(1, i + 1));
  ep::CommitMsg with_deps(ep::make_inst(0, 1), c, attrs);
  ep::CommitMsg without(ep::make_inst(0, 2), c, {});
  // Unlike an M2Paxos Decide, the commit's size scales with the conflict
  // history it must ship.
  EXPECT_EQ(with_deps.wire_size() - without.wire_size(), 10 * 8);
}

TEST(GpMessages, FastAckCarriesCstructSuffix) {
  gp::FastAck ack;
  ack.preds.push_back({1, core::CommandId::make(0, 1)});
  const auto base = ack.wire_size();
  ack.cstruct_bytes = 1 << 12;
  EXPECT_EQ(ack.wire_size() - base, 1u << 12);
}

TEST(MpMessages, PromiseGrowsWithVotes) {
  mp::Promise p;
  const auto empty = p.wire_size();
  p.votes.push_back(
      {1, 1, std::make_shared<const core::Command>(cmd(0, 1, {1})), {}});
  EXPECT_GT(p.wire_size(), empty + 16);
}

TEST(MpMessages, SteadyStateMessagesAreConstantSize) {
  const auto small_cmd = cmd(0, 1, {1});
  mp::Accept a(1, 1, small_cmd);
  mp::Accept b(1, 99999, small_cmd);
  EXPECT_EQ(a.wire_size(), b.wire_size());
  mp::Accepted acc;
  EXPECT_LT(acc.wire_size(), 32u);
}

TEST(AllMessages, KindsAreUniqueAcrossProtocols) {
  const auto c = cmd(0, 1, {1});
  std::vector<std::uint32_t> kinds;
  kinds.push_back(core::Heartbeat(0).kind());
  kinds.push_back(mp::ClientPropose(c).kind());
  kinds.push_back(mp::Prepare(1, 1).kind());
  kinds.push_back(mp::Promise().kind());
  kinds.push_back(mp::Accept(1, 1, c).kind());
  kinds.push_back(mp::Accepted().kind());
  kinds.push_back(mp::Commit(1, c).kind());
  kinds.push_back(gp::FastPropose(c).kind());
  kinds.push_back(gp::FastAck().kind());
  kinds.push_back(gp::CommitNotify(c).kind());
  kinds.push_back(gp::ResolveReq(c).kind());
  kinds.push_back(gp::SlowAccept(0, c).kind());
  kinds.push_back(gp::SlowAck().kind());
  kinds.push_back(gp::Sequence(1, c).kind());
  kinds.push_back(ep::PreAccept(1, c, {}).kind());
  kinds.push_back(ep::PreAcceptReply().kind());
  kinds.push_back(ep::AcceptMsg(1, c, {}).kind());
  kinds.push_back(ep::AcceptReply().kind());
  kinds.push_back(ep::CommitMsg(1, c, {}).kind());
  kinds.push_back(m2p::Propose(c).kind());
  kinds.push_back(m2p::Accept(1, {}).kind());
  kinds.push_back(m2p::AckAccept().kind());
  kinds.push_back(m2p::Decide().kind());
  kinds.push_back(m2p::Prepare(1, {}).kind());
  kinds.push_back(m2p::AckPrepare().kind());
  std::sort(kinds.begin(), kinds.end());
  EXPECT_EQ(std::adjacent_find(kinds.begin(), kinds.end()), kinds.end());
}

}  // namespace
}  // namespace m2
