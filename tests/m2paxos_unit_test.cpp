// Message-precise unit tests of M2PaxosReplica against a scripted Context:
// no network, no harness — every send is captured and asserted, every
// incoming message injected by hand. These pin the exact protocol steps of
// Algorithms 1-4 (epochs, slots, ack/nack rules, promise contents).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "m2paxos/m2paxos.hpp"
#include "test_util.hpp"

namespace m2::m2p {
namespace {

using test::cmd;
using test::find_last;
using test::ScriptedContext;

constexpr std::uint64_t kRngSeed = 7;

struct Fixture {
  Fixture() : replica(0, make_cfg(), ctx) {
    // Node n owns [n*1000, (n+1)*1000).
    replica.set_default_owner(core::OwnerMap::divide(1000));
  }
  static core::ClusterConfig make_cfg() {
    core::ClusterConfig cfg;
    cfg.n_nodes = 3;
    return cfg;
  }
  ScriptedContext ctx{kRngSeed};
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
  const test::Sent& s = f.ctx.sent.back();
  EXPECT_EQ(s.to, 1u);  // unicast: a broadcast has to == kNoNode
  EXPECT_EQ(s.payload->kind(), net::kKindM2Paxos + 1);  // Propose
}

TEST(M2PaxosUnit, ReArmedBatchWindowCountsTheFlushItCloses) {
  ScriptedContext ctx{kRngSeed};
  core::ClusterConfig cfg = Fixture::make_cfg();
  cfg.batching.enabled = true;
  cfg.batching.pipeline_depth = 1;
  const core::Time window = cfg.batching.batch_window;
  M2PaxosReplica replica(0, cfg, ctx);
  replica.set_default_owner(core::OwnerMap::divide(1000));
  const auto accepts = [&] {
    return std::count_if(ctx.sent.begin(), ctx.sent.end(), [](const auto& s) {
      return s.payload->kind() == net::kKindM2Paxos + 2;
    });
  };
  const auto window_flushes = [&] {
    return ctx.registry.counter(stats::Counter::kBatchFlushWindow);
  };

  replica.propose(cmd(0, 1, {7}));
  ctx.sim.run_until(window);  // closes the first round; the pipeline is full
  ASSERT_EQ(accepts(), 1);
  EXPECT_EQ(window_flushes(), 1u);
  const auto* first =
      static_cast<const Accept*>(find_last(ctx, net::kKindM2Paxos + 2));

  // The window expires with the pipeline full: the second command is held
  // back, the flush re-arms the window, and the expiry is not counted.
  replica.propose(cmd(0, 2, {8}));
  ctx.sim.run_until(2 * window);
  ASSERT_EQ(accepts(), 1);
  EXPECT_EQ(window_flushes(), 1u);

  // The first round decides: the pipeline has room, but a partial batch
  // waits.
  AckAccept ack;
  ack.req_id = first->req_id;
  ack.ack = true;
  for (NodeId from : {0u, 1u}) {
    ack.acceptor = from;
    replica.on_message(from, ack);
  }
  ASSERT_EQ(ctx.committed_.size(), 1u);
  ASSERT_EQ(accepts(), 1);

  // The re-armed window closes the held-back batch and counts it.
  ctx.sim.run_until(3 * window);
  EXPECT_EQ(accepts(), 2);
  EXPECT_EQ(window_flushes(), 2u);
}

// --- Crossing resolution (DESIGN.md §5a #6) -------------------------------

/// Runs the simulator past the crossing-check interval, so a check armed by
/// the last delivery attempt fires exactly once.
void fire_crossing_check(Fixture& f) {
  f.ctx.sim.run_until(f.ctx.sim.now() + kCrossingCheckInterval + 1);
}

std::vector<core::CommandId> delivered_ids(const ScriptedContext& ctx,
                                           std::size_t from = 0) {
  std::vector<core::CommandId> out;
  for (std::size_t i = from; i < ctx.delivered.size(); ++i)
    out.push_back(ctx.delivered[i].id);
  return out;
}

TEST(M2PaxosCrossing, TwoCommandCrossingDeliversInIdOrderWhenTheTimerFires) {
  Fixture f;
  const auto a = cmd(1, 1, {1, 2});
  const auto b = cmd(1, 2, {1, 2});
  // a before b on object 1, b before a on object 2: each waits on the other.
  f.replica.on_message(
      1, Decide({{1, 1, 0, a}, {1, 2, 0, b}, {2, 1, 0, b}, {2, 2, 0, a}}));
  EXPECT_TRUE(f.ctx.delivered.empty());
  fire_crossing_check(f);
  EXPECT_EQ(delivered_ids(f.ctx), (std::vector<core::CommandId>{a.id, b.id}));
  EXPECT_EQ(f.ctx.registry.counter(stats::Counter::kCrossingDelivered), 2u);
  EXPECT_TRUE(f.replica.stuck_objects().empty());
  EXPECT_EQ(f.replica.table().find(1)->last_appended, 2u);
  EXPECT_EQ(f.replica.table().find(2)->last_appended, 2u);
}

TEST(M2PaxosCrossing, UndecidedFrontierHoldsTheCrossingUntilItsDecide) {
  Fixture f;
  const auto a = cmd(1, 1, {1, 2, 3});
  const auto b = cmd(1, 2, {1, 2});
  const auto c = cmd(1, 3, {3});
  // a and b cross on objects 1 and 2, but a also waits behind object 3's
  // first slot, which is not decided here yet.
  f.replica.on_message(
      1, Decide({{1, 1, 0, a}, {1, 2, 0, b}, {2, 1, 0, b}, {2, 2, 0, a}}));
  f.replica.on_message(1, Decide({{3, 2, 0, a}}));
  fire_crossing_check(f);
  EXPECT_TRUE(f.ctx.delivered.empty());
  EXPECT_EQ(f.ctx.registry.counter(stats::Counter::kCrossingDelivered), 0u);

  f.replica.on_message(1, Decide({{3, 1, 0, c}}));
  EXPECT_EQ(delivered_ids(f.ctx), (std::vector<core::CommandId>{c.id}));
  fire_crossing_check(f);
  EXPECT_EQ(delivered_ids(f.ctx),
            (std::vector<core::CommandId>{c.id, a.id, b.id}));
  EXPECT_EQ(f.ctx.registry.counter(stats::Counter::kCrossingDelivered), 2u);
}

TEST(M2PaxosCrossing, IndependentCrossingsInOneCheckDeliverBySmallestId) {
  Fixture f;
  const auto a = cmd(1, 3, {1, 2});
  const auto b = cmd(1, 4, {1, 2});
  const auto c = cmd(1, 1, {3, 4});
  const auto d = cmd(1, 2, {3, 4});
  // The crossing with the larger ids is decided first.
  f.replica.on_message(
      1, Decide({{1, 1, 0, b}, {1, 2, 0, a}, {2, 1, 0, a}, {2, 2, 0, b}}));
  f.replica.on_message(
      1, Decide({{3, 1, 0, d}, {3, 2, 0, c}, {4, 1, 0, c}, {4, 2, 0, d}}));
  fire_crossing_check(f);
  EXPECT_EQ(delivered_ids(f.ctx),
            (std::vector<core::CommandId>{c.id, d.id, a.id, b.id}));
  EXPECT_EQ(f.ctx.registry.counter(stats::Counter::kCrossingChecks), 2u)
      << "one check delivers both crossings; a second finds nothing";
}

TEST(M2PaxosCrossing, CommandWaitingOnACycleIsDeliveredNormallyAfterIt) {
  Fixture f;
  const auto a = cmd(1, 1, {1, 2});
  const auto b = cmd(1, 2, {1, 2});
  const auto e = cmd(1, 3, {2, 5});
  f.replica.on_message(1, Decide({{2, 3, 0, e}, {5, 1, 0, e}}));
  f.replica.on_message(
      1, Decide({{1, 1, 0, a}, {1, 2, 0, b}, {2, 1, 0, b}, {2, 2, 0, a}}));
  EXPECT_TRUE(f.ctx.delivered.empty());
  fire_crossing_check(f);
  EXPECT_EQ(delivered_ids(f.ctx),
            (std::vector<core::CommandId>{a.id, b.id, e.id}));
  EXPECT_EQ(f.ctx.registry.counter(stats::Counter::kCrossingDelivered), 2u)
      << "e is not part of the cycle";
  EXPECT_TRUE(f.replica.stuck_objects().empty());
}

/// The decided part of a replica's table above its delivery frontiers, with
/// the delivered set: enough to replay the delivery rules by hand.
struct TableModel {
  std::map<ObjectId, Instance> frontier;  // last_appended
  std::map<std::pair<ObjectId, Instance>, core::CommandPtr> decided;
  std::set<core::CommandId> delivered;

  static TableModel of(const Fixture& f, const std::vector<ObjectId>& objs) {
    TableModel m;
    for (const auto& c : f.ctx.delivered) m.delivered.insert(c.id);
    for (const ObjectId l : objs) {
      m.frontier[l] = 0;
      const ObjectState* st = f.replica.table().find(l);
      if (st == nullptr) continue;
      m.frontier[l] = st->last_appended;
      for (Instance in = st->last_appended + 1; in < st->log.end(); ++in) {
        const Slot* s = st->log.find(in);
        if (s != nullptr && s->decided) m.decided[{l, in}] = s->cmd;
      }
    }
    return m;
  }
  const core::CommandPtr* head(ObjectId l) const {
    auto it = decided.find({l, frontier.at(l) + 1});
    return it == decided.end() ? nullptr : &it->second;
  }
  void deliver(const core::Command& c) {
    delivered.insert(c.id);
    for (const ObjectId l : c.objects) {
      const core::CommandPtr* h = head(l);
      if (h != nullptr && (*h)->id == c.id) ++frontier[l];
    }
  }
  /// Normal delivery (Alg. 3 l.12) to its fixed point; returns what it
  /// delivered.
  std::set<core::CommandId> drain() {
    std::set<core::CommandId> out;
    for (bool moved = true; moved;) {
      moved = false;
      for (auto& [l, f] : frontier) {
        const core::CommandPtr* h = head(l);
        if (h == nullptr) continue;
        const core::CommandPtr c = *h;
        bool ready = delivered.count(c->id) == 0;
        for (const ObjectId l2 : c->objects) {
          const core::CommandPtr* h2 = head(l2);
          ready = ready && h2 != nullptr && (*h2)->id == c->id;
        }
        if (delivered.count(c->id) > 0) {
          ++f;  // duplicate decision of a delivered command: skipped
        } else if (ready) {
          deliver(*c);
          out.insert(c->id);
        } else {
          continue;
        }
        moved = true;
      }
    }
    return out;
  }
};

/// The full-scan crossing rule the replica used before its search became
/// incremental, kept as the reference: candidates are the commands at a
/// seed object's decided frontier whose every object has a decided frontier
/// slot; candidates waiting on a non-candidate are pruned to a fixed point;
/// every sink SCC of >= 2 of the rest is delivered, members in id order.
/// The SCCs are returned by smallest id.
std::vector<std::vector<core::CommandPtr>> oracle_crossings(
    const TableModel& m, const std::vector<ObjectId>& seeds) {
  struct Candidate {
    core::CommandPtr cmd;
    std::vector<core::CommandId> waits_on;
  };
  std::map<core::CommandId, Candidate> cands;
  for (const ObjectId l : seeds) {
    const core::CommandPtr* h = m.head(l);
    if (h == nullptr || m.delivered.count((*h)->id) > 0 ||
        cands.count((*h)->id) > 0)
      continue;
    Candidate cand{*h, {}};
    bool complete = true;
    for (const ObjectId l2 : (*h)->objects) {
      const core::CommandPtr* h2 = m.head(l2);
      if (h2 == nullptr) {
        complete = false;
        break;
      }
      if ((*h2)->id != (*h)->id) cand.waits_on.push_back((*h2)->id);
    }
    if (complete) cands.emplace((*h)->id, std::move(cand));
  }
  auto candidate = [&](core::CommandId id) { return cands.count(id) > 0; };
  for (bool changed = true; changed;) {
    changed = false;
    for (auto it = cands.begin(); it != cands.end();) {
      const auto& w = it->second.waits_on;
      if (!std::all_of(w.begin(), w.end(), candidate)) {
        it = cands.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
  }
  std::map<core::CommandId, std::uint32_t> index, low;
  std::set<core::CommandId> on_stack;
  std::vector<core::CommandId> stack;
  std::vector<std::vector<core::CommandId>> sccs;
  std::function<void(core::CommandId)> connect = [&](core::CommandId v) {
    index[v] = low[v] = static_cast<std::uint32_t>(index.size());
    stack.push_back(v);
    on_stack.insert(v);
    for (const core::CommandId w : cands.at(v).waits_on) {
      if (index.count(w) == 0) {
        connect(w);
        low[v] = std::min(low[v], low[w]);
      } else if (on_stack.count(w) > 0) {
        low[v] = std::min(low[v], index[w]);
      }
    }
    if (low[v] != index[v]) return;
    std::vector<core::CommandId> scc;
    core::CommandId w;
    do {
      w = stack.back();
      stack.pop_back();
      on_stack.erase(w);
      scc.push_back(w);
    } while (w != v);
    sccs.push_back(std::move(scc));
  };
  for (const auto& [id, cand] : cands)
    if (index.count(id) == 0) connect(id);

  std::map<core::CommandId, std::size_t> scc_of;
  for (std::size_t i = 0; i < sccs.size(); ++i)
    for (const core::CommandId id : sccs[i]) scc_of[id] = i;
  std::vector<std::vector<core::CommandPtr>> out;
  for (std::size_t i = 0; i < sccs.size(); ++i) {
    if (sccs[i].size() < 2) continue;
    bool sink = true;
    for (const core::CommandId id : sccs[i])
      for (const core::CommandId w : cands.at(id).waits_on)
        sink = sink && scc_of.at(w) == i;
    if (!sink) continue;
    std::sort(sccs[i].begin(), sccs[i].end());
    std::vector<core::CommandPtr> members;
    for (const core::CommandId id : sccs[i])
      members.push_back(cands.at(id).cmd);
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    return x.front()->id < y.front()->id;
  });
  return out;
}

/// Fires one crossing check and asserts it delivers exactly what the
/// full-scan rule predicts from the table just before it: every round of
/// cycle breaking in order (SCCs by smallest id, members by id), and after
/// each round the set that normal delivery then unlocks.
void check_against_oracle(Fixture& f, const std::vector<ObjectId>& objs) {
  TableModel m = TableModel::of(f, objs);
  std::vector<ObjectId> seeds = f.replica.stuck_objects();
  std::sort(seeds.begin(), seeds.end());
  struct Round {
    std::vector<core::CommandId> crossed;  // cycle breaking, in order
    std::set<core::CommandId> unlocked;    // normal delivery after it
  };
  std::vector<Round> rounds;
  std::uint64_t expect_crossed = 0;
  for (;;) {
    const auto sccs = oracle_crossings(m, seeds);
    if (sccs.empty()) break;
    std::vector<core::CommandId> crossed;
    for (const auto& scc : sccs) {
      for (const core::CommandPtr& c : scc) {
        m.deliver(*c);
        crossed.push_back(c->id);
      }
    }
    expect_crossed += crossed.size();
    rounds.push_back(Round{std::move(crossed), m.drain()});
    seeds = objs;  // later rounds: every waiting frontier is stuck again
  }

  const std::size_t before = f.ctx.delivered.size();
  const std::uint64_t crossed_before =
      f.ctx.registry.counter(stats::Counter::kCrossingDelivered);
  fire_crossing_check(f);
  const std::vector<core::CommandId> got = delivered_ids(f.ctx, before);
  std::size_t pos = 0;
  for (const auto& [crossed, unlocked] : rounds) {
    ASSERT_LE(pos + crossed.size() + unlocked.size(), got.size());
    EXPECT_EQ(std::vector<core::CommandId>(got.begin() + pos,
                                           got.begin() + pos + crossed.size()),
              crossed);
    pos += crossed.size();
    EXPECT_EQ(std::set<core::CommandId>(got.begin() + pos,
                                        got.begin() + pos + unlocked.size()),
              unlocked);
    pos += unlocked.size();
  }
  EXPECT_EQ(pos, got.size()) << "delivered more than the oracle";
  EXPECT_EQ(f.ctx.registry.counter(stats::Counter::kCrossingDelivered) -
                crossed_before,
            expect_crossed);
}

TEST(M2PaxosCrossing, IncrementalSearchMatchesTheFullScanOnRandomTables) {
  std::uint64_t cycles_broken = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    Fixture f;
    const auto n_objects = 2 + rng.uniform(6);
    std::vector<ObjectId> objs;
    for (ObjectId l = 1; l <= n_objects; ++l) objs.push_back(l);
    // Random commands over 1-3 objects, decided on each object in an
    // independently shuffled order: chains, and several cycles at once.
    std::map<ObjectId, std::vector<core::CommandPtr>> per_object;
    const auto n_cmds = 2 + rng.uniform(13);
    for (std::uint64_t i = 1; i <= n_cmds; ++i) {
      std::vector<ObjectId> pick = objs;
      for (std::size_t j = pick.size(); j > 1; --j)
        std::swap(pick[j - 1], pick[rng.uniform(j)]);
      pick.resize(1 + rng.uniform(std::min<std::uint64_t>(3, n_objects)));
      std::sort(pick.begin(), pick.end());
      core::ObjectList ls;
      for (const ObjectId l : pick) ls.push_back(l);
      const auto c = std::make_shared<const Command>(
          cmd(static_cast<NodeId>(1 + rng.uniform(2)), i, ls));
      for (const ObjectId l : pick) per_object[l].push_back(c);
    }
    std::vector<SlotValue> decisions;
    for (auto& [l, log] : per_object) {
      for (std::size_t j = log.size(); j > 1; --j)
        std::swap(log[j - 1], log[rng.uniform(j)]);
      for (std::size_t j = 0; j < log.size(); ++j)
        decisions.emplace_back(l, j + 1, 0, log[j]);
    }
    // Decisions arrive in random order and chunks, so checks also run with
    // holes below decided slots.
    for (std::size_t j = decisions.size(); j > 1; --j)
      std::swap(decisions[j - 1], decisions[rng.uniform(j)]);
    for (std::size_t j = 0; j < decisions.size();) {
      SlotList chunk;
      for (auto k = 1 + rng.uniform(4); k > 0 && j < decisions.size(); --k)
        chunk.push_back(decisions[j++]);
      f.replica.on_message(1, Decide(std::move(chunk)));
      if (rng.chance(0.5)) check_against_oracle(f, objs);
    }
    check_against_oracle(f, objs);
    if (::testing::Test::HasFailure()) return;

    std::set<core::CommandId> delivered;
    for (const auto& c : f.ctx.delivered)
      EXPECT_TRUE(delivered.insert(c.id).second) << "delivered twice";
    EXPECT_EQ(delivered.size(), n_cmds) << "every command delivers";
    cycles_broken += f.ctx.registry.counter(stats::Counter::kCrossingDelivered);
  }
  EXPECT_GT(cycles_broken, 300u) << "the tables must exercise the search";
}

}  // namespace
}  // namespace m2::m2p
