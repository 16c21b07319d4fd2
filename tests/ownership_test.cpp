#include <gtest/gtest.h>

#include <memory>

#include "m2paxos/ownership.hpp"
#include "test_util.hpp"

namespace m2::m2p {
namespace {

using test::cmd;

/// Shared-handle variant of test::cmd for the decision APIs.
CommandPtr cptr(NodeId proposer, std::uint64_t seq,
                core::ObjectList objects) {
  return std::make_shared<const Command>(cmd(proposer, seq, std::move(objects)));
}

TEST(OwnershipTable, UnknownObjectHasNoOwner) {
  OwnershipTable t;
  EXPECT_EQ(t.find(7), nullptr);
  EXPECT_FALSE(t.owns_all(0, cmd(0, 1, {7})));
  EXPECT_EQ(t.unique_owner(cmd(0, 1, {7})), kNoNode);
}

TEST(OwnershipTable, DefaultOwnerAppliesLazily) {
  OwnershipTable t;
  t.set_default_owner(core::OwnerMap::modulo(3));
  EXPECT_TRUE(t.owns_all(1, cmd(1, 1, {1, 4, 7})));
  EXPECT_FALSE(t.owns_all(1, cmd(1, 2, {1, 2})));
  EXPECT_EQ(t.unique_owner(cmd(0, 3, {3, 6})), 0u);
  EXPECT_EQ(t.unique_owner(cmd(0, 4, {3, 4})), kNoNode);  // owners differ
}

TEST(OwnershipTable, OwnershipInvalidWhenPromiseAdvances) {
  OwnershipTable t;
  ObjectState& st = t.obj(5);
  st.owner = 2;
  st.owned_epoch = 3;
  st.promised = 3;
  EXPECT_TRUE(t.owns_all(2, cmd(2, 1, {5})));
  st.promised = 4;  // a thief prepared epoch 4
  EXPECT_FALSE(t.owns_all(2, cmd(2, 2, {5})));
  // unique_owner still reports node 2 until an accept changes it — that is
  // what routes forwarded commands while an acquisition is in flight.
  EXPECT_EQ(t.unique_owner(cmd(0, 1, {5})), 2u);
}

TEST(OwnershipTable, RouteAnswersAllQueriesInOnePass) {
  OwnershipTable t;
  t.set_default_owner(core::OwnerMap::modulo(3));
  const auto c = cmd(1, 1, {1, 4, 6});  // owners 1, 1, 0
  const auto r = t.route(1, c);
  EXPECT_FALSE(r.owns_all);             // object 6 belongs to node 0
  EXPECT_EQ(r.unique_owner, kNoNode);   // owners differ
  EXPECT_EQ(r.plurality_owner, 1u);     // node 1 holds 2 of 3
  ASSERT_EQ(r.undecided.size(), 3u);    // nothing decided yet
}

TEST(OwnershipTable, RouteDoesOneLookupPerObject) {
  // Pins the single-pass property: routing a k-object command costs exactly
  // k table lookups (the old owns_all + unique/plurality + undecided split
  // probed each object three times).
  OwnershipTable t;
  t.set_default_owner(core::OwnerMap::modulo(3));
  const auto c3 = cmd(1, 1, {1, 4, 7});
  const auto before3 = t.lookup_count();
  (void)t.route(1, c3);
  EXPECT_EQ(t.lookup_count() - before3, 3u);

  const auto c1 = cmd(1, 2, {2});
  const auto before1 = t.lookup_count();
  (void)t.route(1, c1);
  EXPECT_EQ(t.lookup_count() - before1, 1u);
}

TEST(OwnershipTable, PluralityTieBreaksToLowestNode) {
  OwnershipTable t;
  t.obj(10).owner = 2;
  t.obj(11).owner = 1;
  // One object each: tie between nodes 1 and 2 goes to node 1.
  EXPECT_EQ(t.plurality_owner(cmd(0, 1, {10, 11})), 1u);
}

TEST(OwnershipTable, FirstUndecidedSkipsDecidedPrefix) {
  OwnershipTable t;
  EXPECT_EQ(t.first_undecided(9), 1u);
  t.set_decided(t.obj(9), 1, cptr(0, 1, {9}));
  t.set_decided(t.obj(9), 2, cptr(0, 2, {9}));
  EXPECT_EQ(t.first_undecided(9), 3u);
}

TEST(OwnershipTable, FirstUndecidedFindsGap) {
  OwnershipTable t;
  t.set_decided(t.obj(9), 1, cptr(0, 1, {9}));
  t.set_decided(t.obj(9), 3, cptr(0, 3, {9}));  // hole at 2
  EXPECT_EQ(t.first_undecided(9), 2u);
}

TEST(OwnershipTable, FirstUndecidedStartsAtFrontier) {
  OwnershipTable t;
  ObjectState& st = t.obj(9);
  st.last_appended = 10;  // delivered prefix; slots below are pruned
  EXPECT_EQ(t.first_undecided(9), 11u);
}

TEST(OwnershipTable, SetDecidedIsIdempotent) {
  OwnershipTable t;
  EXPECT_TRUE(t.set_decided(t.obj(1), 1, cptr(0, 1, {1})));
  EXPECT_FALSE(t.set_decided(t.obj(1), 1, cptr(0, 1, {1})));
  EXPECT_TRUE(t.is_decided_on(cmd(0, 1, {1}), 1));
}

TEST(OwnershipTable, DecidedEverywhereNeedsAllObjects) {
  OwnershipTable t;
  const auto c = cptr(0, 1, {1, 2});
  t.set_decided(t.obj(1), 1, c);
  EXPECT_TRUE(t.is_decided_on(*c, 1));
  EXPECT_FALSE(t.is_decided_on(*c, 2));
  EXPECT_FALSE(t.is_decided_everywhere(*c));
  t.set_decided(t.obj(2), 5, c);  // positions may differ per object
  EXPECT_TRUE(t.is_decided_everywhere(*c));
}

TEST(SlotLog, TruncateBelowDropsPrefixAndKeepsDecisions) {
  SlotLog log;
  for (Instance in = 1; in <= 10; ++in)
    log.at_or_create(in) = Slot{
        0, std::make_shared<const Command>(cmd(0, in, {1})), nullptr, true};
  EXPECT_EQ(log.base(), 1u);
  EXPECT_EQ(log.end(), 11u);

  log.truncate_below(7);
  EXPECT_EQ(log.base(), 7u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.find(6), nullptr);  // truncated
  ASSERT_NE(log.find(7), nullptr);
  // Retained decisions are byte-for-byte stable across the truncation.
  EXPECT_TRUE(log.find(7)->decided);
  EXPECT_EQ(log.find(7)->cmd->id, cmd(0, 7, {1}).id);
  EXPECT_EQ(log.find(10)->cmd->id, cmd(0, 10, {1}).id);
}

TEST(SlotLog, TruncateEmptyLogJumpsBase) {
  SlotLog log;
  log.truncate_below(100);
  EXPECT_EQ(log.base(), 100u);
  EXPECT_TRUE(log.empty());
  // New slots materialize above the jumped base; gaps default-construct.
  log.at_or_create(105).accepted_epoch = 3;
  EXPECT_EQ(log.end(), 106u);
  ASSERT_NE(log.find(102), nullptr);
  EXPECT_FALSE(log.find(102)->decided);  // gap slot == map-absent
  EXPECT_EQ(log.find(102)->cmd, nullptr);
}

TEST(OwnershipTable, SetDecidedBelowHorizonIsIgnored) {
  OwnershipTable t;
  ObjectState& st = t.obj(1);
  st.log.truncate_below(50);
  st.last_appended = 49;
  EXPECT_FALSE(t.set_decided(st, 10, cptr(0, 1, {1})));  // below base: stale
  EXPECT_TRUE(t.set_decided(st, 50, cptr(0, 2, {1})));
}

// One value per slot: the vote and, once decided, the decision.
static_assert(sizeof(Slot) <= 48, "Slot holds one value, not two");

core::CommandBatchPtr batch_of(std::initializer_list<CommandPtr> members) {
  auto b = std::make_shared<core::CommandBatch>();
  for (const CommandPtr& m : members) b->cmds.push_back(m);
  return b;
}

TEST(OwnershipTable, SetDecidedKeepsTheMatchingAcceptedHandles) {
  OwnershipTable t;
  ObjectState& st = t.obj(1);
  const CommandPtr head = cptr(0, 1, {1});
  const auto batch = batch_of({head, cptr(0, 2, {1})});
  st.log.at_or_create(1) = Slot{3, head, batch, false};  // the vote
  // The Decide carries its own copies of the same slot value.
  const CommandPtr head_copy = std::make_shared<const Command>(*head);
  ASSERT_TRUE(t.set_decided(st, 1, head_copy,
                            batch_of({head_copy, cptr(0, 2, {1})})));
  const Slot& slot = *st.log.find(1);
  EXPECT_TRUE(slot.decided);
  EXPECT_EQ(slot.cmd, head);
  EXPECT_EQ(slot.batch, batch);
  EXPECT_EQ(slot.accepted_epoch, 3u);
}

TEST(OwnershipTable, SetDecidedReplacesADifferentAcceptedValue) {
  OwnershipTable t;
  ObjectState& st = t.obj(1);
  const CommandPtr head = cptr(0, 1, {1});
  st.log.at_or_create(1) = Slot{3, head, batch_of({head, cptr(0, 2, {1})}),
                                false};
  // Same head, different members: the decision is another value.
  const auto decided = batch_of({head, cptr(0, 3, {1})});
  ASSERT_TRUE(t.set_decided(st, 1, head, decided));
  EXPECT_EQ(st.log.find(1)->batch, decided);
  // Different head: replaced too.
  st.log.at_or_create(2) = Slot{3, cptr(0, 4, {1}), nullptr, false};
  const CommandPtr other = cptr(0, 5, {1});
  ASSERT_TRUE(t.set_decided(st, 2, other));
  EXPECT_EQ(st.log.find(2)->cmd, other);
  EXPECT_EQ(st.log.find(2)->batch, nullptr);
}

}  // namespace
}  // namespace m2::m2p
