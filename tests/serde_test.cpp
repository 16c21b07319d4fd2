// Wire-codec round-trip tests for every protocol message, plus
// malformed-input fuzzing: decode of any byte soup must return nullptr,
// never crash or over-allocate.
#include <gtest/gtest.h>

#include "core/failure_detector.hpp"
#include "epaxos/epaxos.hpp"
#include "genpaxos/genpaxos.hpp"
#include "m2paxos/messages.hpp"
#include "multipaxos/multipaxos.hpp"
#include "net/serde.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"

namespace m2::net {
namespace {

using test::cmd;

/// Round-trips `p` and returns the decoded payload, asserting success and
/// matching kind.
template <typename T>
std::shared_ptr<const T> round_trip(const T& p) {
  const auto bytes = encode_payload(p);
  const PayloadPtr decoded = decode_payload(bytes);
  EXPECT_NE(decoded, nullptr);
  if (decoded == nullptr) return nullptr;
  EXPECT_EQ(decoded->kind(), p.kind());
  return std::static_pointer_cast<const T>(decoded);
}

TEST(Serde, CommandRoundTripWithBody) {
  core::Command c = cmd(3, 77, {5, 9, 12}, 99);
  c.set_body({1, 2, 3, 4, 5});
  c.payload_bytes = 99;
  Writer w;
  write_command(w, c);
  Reader r(w.data());
  const auto back = read_command(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, c.id);
  EXPECT_EQ(back->objects, c.objects);
  EXPECT_EQ(back->payload_bytes, 99u);
  ASSERT_NE(back->body, nullptr);
  EXPECT_EQ(*back->body, *c.body);
}

TEST(Serde, NoopCommandRoundTrip) {
  core::Command noop(core::CommandId::make(1, (1ULL << 40) + 3), {7}, 0);
  noop.noop = true;
  Writer w;
  write_command(w, noop);
  Reader r(w.data());
  const auto back = read_command(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->noop);
  EXPECT_EQ(back->body, nullptr);
}

TEST(Serde, Heartbeat) {
  const auto back = round_trip(core::Heartbeat(17));
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->sender, 17u);
}

TEST(Serde, MultiPaxosMessages) {
  auto c = cmd(2, 5, {1, 2});
  EXPECT_EQ(round_trip(mp::ClientPropose(c))->cmd.id, c.id);
  {
    const auto back = round_trip(mp::Prepare(9, 4));
    EXPECT_EQ(back->ballot, 9u);
    EXPECT_EQ(back->from_slot, 4u);
  }
  {
    mp::Promise p;
    p.ballot = 3;
    p.acceptor = 1;
    p.ack = true;
    p.first_undelivered = 6;
    p.votes.push_back({7, 2, std::make_shared<const core::Command>(c), {}});
    const auto back = round_trip(p);
    EXPECT_EQ(back->first_undelivered, 6u);
    ASSERT_EQ(back->votes.size(), 1u);
    EXPECT_EQ(back->votes[0].slot, 7u);
    EXPECT_EQ(back->votes[0].cmd->id, c.id);
  }
  {
    const auto back = round_trip(mp::Accept(3, 8, c));
    EXPECT_EQ(back->slot, 8u);
    EXPECT_EQ(back->cmd->objects, c.objects);
  }
  {
    mp::Accepted a;
    a.ballot = 3;
    a.slot = 8;
    a.acceptor = 2;
    a.ack = true;
    EXPECT_TRUE(round_trip(a)->ack);
  }
  EXPECT_EQ(round_trip(mp::Commit(8, c))->slot, 8u);
}

TEST(Serde, GenPaxosMessages) {
  auto c = cmd(1, 9, {4});
  EXPECT_EQ(round_trip(gp::FastPropose(c))->cmd.id, c.id);
  {
    gp::FastAck a;
    a.cmd_id = c.id;
    a.acceptor = 2;
    a.cstruct_bytes = 640;
    a.preds.push_back({4, core::CommandId::make(0, 1)});
    const auto back = round_trip(a);
    EXPECT_EQ(back->cstruct_bytes, 640u);
    ASSERT_EQ(back->preds.size(), 1u);
    EXPECT_EQ(back->preds[0].object, 4u);
  }
  EXPECT_EQ(round_trip(gp::CommitNotify(c))->cmd.id, c.id);
  EXPECT_EQ(round_trip(gp::ResolveReq(c))->cmd.id, c.id);
  EXPECT_EQ(round_trip(gp::SlowAccept(5, c))->ballot, 5u);
  {
    gp::SlowAck a;
    a.ballot = 5;
    a.cmd_id = c.id;
    a.acceptor = 0;
    EXPECT_EQ(round_trip(a)->cmd_id, c.id);
  }
  EXPECT_EQ(round_trip(gp::Sequence(42, c))->index, 42u);
}

TEST(Serde, EPaxosMessages) {
  auto c = cmd(0, 3, {2, 6});
  ep::Attrs attrs;
  attrs.seq = 12;
  attrs.deps = {ep::make_inst(1, 4), ep::make_inst(2, 9)};
  {
    const auto back = round_trip(ep::PreAccept(ep::make_inst(0, 3), c, attrs));
    EXPECT_EQ(back->attrs.seq, 12u);
    EXPECT_EQ(back->attrs.deps, attrs.deps);
  }
  {
    ep::PreAcceptReply rep;
    rep.inst = ep::make_inst(0, 3);
    rep.acceptor = 1;
    rep.changed = true;
    rep.attrs = attrs;
    const auto back = round_trip(rep);
    EXPECT_TRUE(back->changed);
    EXPECT_EQ(back->attrs.deps, attrs.deps);
  }
  EXPECT_EQ(round_trip(ep::AcceptMsg(ep::make_inst(0, 3), c, attrs))->attrs.seq,
            12u);
  {
    ep::AcceptReply rep;
    rep.inst = ep::make_inst(0, 3);
    rep.acceptor = 4;
    EXPECT_EQ(round_trip(rep)->acceptor, 4u);
  }
  EXPECT_EQ(round_trip(ep::CommitMsg(ep::make_inst(0, 3), c, attrs))->cmd.id,
            c.id);
}

TEST(Serde, M2PaxosMessages) {
  auto c = cmd(2, 11, {3, 8});
  EXPECT_EQ(round_trip(m2p::Propose(c))->cmd.id, c.id);
  {
    m2p::SlotList slots = {{3, 1, 2, c}, {8, 4, 2, c}};
    const auto back = round_trip(m2p::Accept(99, slots));
    EXPECT_EQ(back->req_id, 99u);
    ASSERT_EQ(back->slots.size(), 2u);
    EXPECT_EQ(back->slots[1].instance, 4u);
    EXPECT_EQ(back->slots[1].cmd->id, c.id);
  }
  {
    m2p::AckAccept a;
    a.req_id = 99;
    a.acceptor = 1;
    a.ack = false;
    a.hints.push_back({3, 7, 2});
    const auto back = round_trip(a);
    EXPECT_FALSE(back->ack);
    ASSERT_EQ(back->hints.size(), 1u);
    EXPECT_EQ(back->hints[0].epoch, 7u);
  }
  {
    const auto back = round_trip(m2p::Decide({{3, 1, 2, c}}));
    ASSERT_EQ(back->slots.size(), 1u);
  }
  {
    const auto back =
        round_trip(m2p::Prepare(7, {{3, 2, 5}, {8, 1, 6}}));
    ASSERT_EQ(back->entries.size(), 2u);
    EXPECT_EQ(back->entries[1].epoch, 6u);
  }
  {
    m2p::AckPrepare a;
    a.req_id = 7;
    a.acceptor = 0;
    a.ack = true;
    a.votes.push_back({3, 2, 4, true, c});
    a.delivered_floors.emplace_back(3, 9);
    const auto back = round_trip(a);
    ASSERT_EQ(back->votes.size(), 1u);
    EXPECT_TRUE(back->votes[0].decided);
    ASSERT_EQ(back->delivered_floors.size(), 1u);
    EXPECT_EQ(back->delivered_floors[0].second, 9u);
  }
  {
    const auto back =
        round_trip(m2p::SyncRequest(m2p::SyncRequest::EntryList{{3, 5}}));
    ASSERT_EQ(back->entries.size(), 1u);
    EXPECT_EQ(back->entries[0].from_instance, 5u);
  }
  {
    const auto back = round_trip(m2p::SyncReply({{3, 5, 0, c}}));
    ASSERT_EQ(back->slots.size(), 1u);
  }
}

TEST(Serde, M2PaxosBatchTails) {
  // Multi-command slot values: the batch tail rides behind the head in
  // Accept/Decide/SyncReply slots and in AckPrepare votes, and the decoded
  // batch must satisfy the head invariant (cmd == batch->cmds.front()).
  const auto head = std::make_shared<const core::Command>(cmd(1, 1, {7}));
  const auto t1 = std::make_shared<const core::Command>(cmd(1, 2, {7}));
  const auto t2 = std::make_shared<const core::Command>(cmd(2, 9, {7}));
  auto batch = std::make_shared<core::CommandBatch>();
  batch->cmds.push_back(head);
  batch->cmds.push_back(t1);
  batch->cmds.push_back(t2);

  auto check_slots = [&](const auto& slots) {
    ASSERT_EQ(slots.size(), 2u);
    ASSERT_NE(slots[0].batch, nullptr);
    ASSERT_EQ(slots[0].batch->cmds.size(), 3u);
    EXPECT_EQ(slots[0].cmd->id, head->id);
    EXPECT_EQ(slots[0].batch->cmds[0]->id, head->id);
    EXPECT_EQ(slots[0].batch->cmds[1]->id, t1->id);
    EXPECT_EQ(slots[0].batch->cmds[2]->id, t2->id);
    EXPECT_EQ(slots[1].batch, nullptr) << "plain slot must stay plain";
  };

  m2p::SlotList slots;
  slots.emplace_back(7, 3, 2, head, batch);
  slots.emplace_back(8, 1, 2, head, nullptr);
  {
    const auto back = round_trip(m2p::Accept(99, slots));
    check_slots(back->slots);
  }
  {
    const auto back = round_trip(m2p::Decide(slots));
    check_slots(back->slots);
  }
  {
    const auto back = round_trip(m2p::SyncReply(slots));
    check_slots(back->slots);
  }
  {
    m2p::AckPrepare a;
    a.req_id = 7;
    a.acceptor = 0;
    a.ack = true;
    a.votes.push_back({7, 3, 4, true, *head});
    a.votes.back().batch = batch;
    const auto back = round_trip(a);
    ASSERT_EQ(back->votes.size(), 1u);
    ASSERT_NE(back->votes[0].batch, nullptr);
    ASSERT_EQ(back->votes[0].batch->cmds.size(), 3u);
    EXPECT_EQ(back->votes[0].batch->cmds[2]->id, t2->id);
    EXPECT_EQ(back->votes[0].cmd->id, back->votes[0].batch->cmds[0]->id);
  }
}

TEST(Serde, M2PaxosSharedHeadsDecodeToOneHandle) {
  // A multi-object command travels once per message: every later slot or
  // vote of the same command is a reference, and the decoder resolves all
  // of them to the one handle it decoded.
  const auto c = std::make_shared<const core::Command>(cmd(2, 11, {3, 8, 9}));
  const auto other = std::make_shared<const core::Command>(cmd(1, 4, {5}));
  m2p::SlotList slots;
  slots.emplace_back(3, 1, 2, c);
  slots.emplace_back(5, 7, 2, other);
  slots.emplace_back(8, 4, 2, c);
  // A by-value copy of the command shares the id, so it is a reference too.
  slots.emplace_back(9, 6, 2, *c);

  auto check_slots = [&](const m2p::SlotList& back) {
    ASSERT_EQ(back.size(), 4u);
    EXPECT_EQ(back[0].cmd->objects, c->objects);
    EXPECT_EQ(back[0].cmd.get(), back[2].cmd.get());
    EXPECT_EQ(back[0].cmd.get(), back[3].cmd.get());
    EXPECT_NE(back[0].cmd.get(), back[1].cmd.get());
    EXPECT_EQ(back[1].cmd->id, other->id);
    EXPECT_EQ(back[3].instance, 6u);
  };
  const std::size_t full_copies = 4 * m2p::SlotValue::kHeaderBytes +
                                  3 * c->wire_size() + other->wire_size() +
                                  4;  // empty batch tails
  {
    const m2p::Accept a(99, slots);
    EXPECT_EQ(a.wire_size(), encode_payload(a).size());
    EXPECT_EQ(a.wire_size(), 2 + 8 + 1 + full_copies -
                                 2 * (c->wire_size() -
                                      m2p::HeadIndex::kRefBytes));
    check_slots(round_trip(a)->slots);
  }
  check_slots(round_trip(m2p::Decide(slots))->slots);
  check_slots(round_trip(m2p::SyncReply(slots))->slots);
  {
    m2p::AckPrepare a;
    a.req_id = 7;
    a.acceptor = 0;
    a.ack = true;
    a.votes.push_back({3, 1, 4, true, c});
    a.votes.push_back({5, 7, 4, false, other});
    a.votes.push_back({8, 4, 4, true, c});
    EXPECT_EQ(a.wire_size(), encode_payload(a).size());
    const auto back = round_trip(a);
    ASSERT_EQ(back->votes.size(), 3u);
    EXPECT_EQ(back->votes[0].cmd.get(), back->votes[2].cmd.get());
    EXPECT_NE(back->votes[0].cmd.get(), back->votes[1].cmd.get());
    EXPECT_FALSE(back->votes[1].decided);
  }
}

TEST(Serde, M2PaxosLongVoteListSharesHeads) {
  // Past the inline scan limit the head index hashes; references must
  // still resolve to the first head with their id.
  m2p::AckPrepare a;
  a.req_id = 1;
  a.ack = true;
  std::vector<core::CommandPtr> cmds;
  for (std::uint64_t i = 0; i < 7; ++i)
    cmds.push_back(std::make_shared<const core::Command>(
        cmd(1, i + 1, {i, i + 100})));
  for (std::uint64_t i = 0; i < 300; ++i)
    a.votes.push_back({i % 50, i, 3, true, cmds[i % cmds.size()]});
  EXPECT_EQ(a.wire_size(), encode_payload(a).size());
  const auto back = round_trip(a);
  ASSERT_EQ(back->votes.size(), 300u);
  for (std::size_t i = 0; i < back->votes.size(); ++i) {
    EXPECT_EQ(back->votes[i].cmd.get(), back->votes[i % 7].cmd.get()) << i;
    EXPECT_EQ(back->votes[i].cmd->id, cmds[i % 7]->id) << i;
  }
}

/// A head back-reference as the encoder writes it: id, zero payload bytes,
/// and the reference flag.
void write_ref(Writer& w, core::CommandId id, std::uint32_t payload = 0) {
  w.u64(id.value);
  w.u32(payload);
  w.u8(1u << 2);
}

void write_slot_header(Writer& w, core::ObjectId object) {
  w.u64(object);
  w.u64(1);
  w.u64(2);
}

TEST(Serde, M2PaxosDanglingOrMisplacedReferenceRejected) {
  const auto c = cmd(2, 11, {3, 8});
  const auto accept_kind = m2p::Accept(0, {}).kind();
  {
    // The well-formed shape decodes: full head, then a reference.
    Writer w;
    w.varint(accept_kind);
    w.u64(99);
    w.varint(2);
    write_slot_header(w, 3);
    write_command(w, c);
    w.varint(0);
    write_slot_header(w, 8);
    write_ref(w, c.id);
    w.varint(0);
    EXPECT_NE(decode_payload(w.data()), nullptr);
  }
  {
    // A reference to an id no earlier head carries.
    Writer w;
    w.varint(accept_kind);
    w.u64(99);
    w.varint(1);
    write_slot_header(w, 3);
    write_ref(w, c.id);
    w.varint(0);
    EXPECT_EQ(decode_payload(w.data()), nullptr);
  }
  {
    // A reference may only point backwards.
    Writer w;
    w.varint(accept_kind);
    w.u64(99);
    w.varint(2);
    write_slot_header(w, 3);
    write_ref(w, c.id);
    w.varint(0);
    write_slot_header(w, 8);
    write_command(w, c);
    w.varint(0);
    EXPECT_EQ(decode_payload(w.data()), nullptr);
  }
  {
    // A reference with payload bytes is malformed.
    Writer w;
    w.varint(accept_kind);
    w.u64(99);
    w.varint(2);
    write_slot_header(w, 3);
    write_command(w, c);
    w.varint(0);
    write_slot_header(w, 8);
    write_ref(w, c.id, 16);
    w.varint(0);
    EXPECT_EQ(decode_payload(w.data()), nullptr);
  }
  {
    // A batch-tail member is never a reference, even to a known head.
    Writer w;
    w.varint(accept_kind);
    w.u64(99);
    w.varint(1);
    write_slot_header(w, 3);
    write_command(w, c);
    w.varint(1);
    write_ref(w, c.id);
    EXPECT_EQ(decode_payload(w.data()), nullptr);
  }
  {
    // Nor is a forwarded M²Paxos command.
    Writer w;
    w.varint(m2p::Propose(c).kind());
    write_ref(w, c.id);
    EXPECT_EQ(decode_payload(w.data()), nullptr);
  }
  {
    // Nor a Multi-Paxos command.
    Writer w;
    w.varint(mp::Accept(1, 1, c).kind());
    w.u64(3);
    w.u64(8);
    write_ref(w, c.id);
    w.varint(0);
    EXPECT_EQ(decode_payload(w.data()), nullptr);
  }
  {
    // Nor an EPaxos command.
    Writer w;
    w.varint(ep::PreAccept(1, c, {}).kind());
    w.u64(ep::make_inst(0, 3));
    write_ref(w, c.id);
    w.u64(12);
    w.varint(0);
    EXPECT_EQ(decode_payload(w.data()), nullptr);
  }
}

TEST(Serde, M2PaxosDistinctHeadsEncodingIsPinned) {
  // The batched fast path sends slots with distinct heads. Their encoding
  // is the full command per slot, byte for byte as before head references
  // existed: a message with no repeated head must never change.
  const auto h = std::make_shared<const core::Command>(cmd(1, 1, {7}, 4));
  const auto t = std::make_shared<const core::Command>(cmd(1, 2, {7}, 4));
  const auto g = std::make_shared<const core::Command>(cmd(2, 3, {9}, 4));
  auto batch = std::make_shared<core::CommandBatch>();
  batch->cmds.push_back(h);
  batch->cmds.push_back(t);
  m2p::SlotList slots;
  slots.emplace_back(7, 5, 3, h, batch);
  slots.emplace_back(9, 6, 3, g);
  const std::vector<std::uint8_t> pinned = {
      0x92, 0x03, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x07,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x20, 0x00, 0x00,
      0x04, 0x00, 0x00, 0x00, 0x00, 0x01, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(encode_payload(m2p::Accept(42, slots)), pinned);
}

TEST(Serde, MultiPaxosBatchTails) {
  const auto h = std::make_shared<const core::Command>(cmd(0, 1, {3}));
  const auto t1 = cmd(0, 2, {3});
  const auto t2 = cmd(1, 5, {3});
  auto batch = std::make_shared<core::CommandBatch>();
  batch->cmds.push_back(h);
  batch->cmds.push_back(std::make_shared<const core::Command>(t1));
  batch->cmds.push_back(std::make_shared<const core::Command>(t2));
  {
    const auto back = round_trip(mp::Accept(3, 8, h, batch));
    EXPECT_EQ(back->cmd->id, h->id);
    ASSERT_EQ(back->batch->cmds.size(), 3u);
    EXPECT_EQ(back->batch->cmds[0], back->cmd);
    EXPECT_EQ(back->batch->cmds[1]->id, t1.id);
    EXPECT_EQ(back->batch->cmds[2]->id, t2.id);
  }
  {
    const auto back = round_trip(mp::Commit(8, h, batch));
    ASSERT_EQ(back->batch->cmds.size(), 3u);
    EXPECT_EQ(back->batch->cmds[2]->id, t2.id);
  }
  {
    mp::Promise p;
    p.ballot = 3;
    p.acceptor = 1;
    p.ack = true;
    p.votes.push_back({7, 2, h, batch});
    const auto back = round_trip(p);
    ASSERT_EQ(back->votes.size(), 1u);
    ASSERT_EQ(back->votes[0].batch->cmds.size(), 3u);
    EXPECT_EQ(back->votes[0].batch->cmds[1]->id, t1.id);
  }
}

TEST(Serde, WireSizeIsExact) {
  // wire_size() is byte-for-byte what the encoder emits (the exhaustive
  // sweep in serde_exhaustive_test.cpp covers every kind; this spot-checks
  // the contract in the round-trip suite too).
  auto c = cmd(2, 11, {3, 8});
  const net::Payload* payloads[] = {
      new mp::Accept(3, 8, c),
      new m2p::Accept(99, {{3, 1, 2, c}}),
      new ep::PreAccept(ep::make_inst(0, 3), c,
                        {12, {ep::make_inst(1, 4)}}),
      new gp::Sequence(42, c),
  };
  for (const auto* p : payloads) {
    EXPECT_EQ(encode_payload(*p).size(), p->wire_size()) << p->name();
    delete p;
  }
}

TEST(Serde, MalformedInputNeverCrashes) {
  sim::Rng rng(1234);
  // Random byte soup.
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> junk(rng.uniform(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    decode_payload(junk);  // must not crash; result may be null or garbage-free
  }
  // Truncations of a valid message at every length.
  auto c = cmd(2, 11, {3, 8});
  const auto good = encode_payload(m2p::Accept(99, {{3, 1, 2, c}}));
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_EQ(decode_payload(good.data(), len), nullptr) << "len " << len;
  }
  // Bit flips.
  for (int i = 0; i < 500; ++i) {
    auto mutated = good;
    mutated[rng.uniform(mutated.size())] ^=
        static_cast<std::uint8_t>(1 << rng.uniform(8));
    decode_payload(mutated);  // any result is fine; no crash, no UB
  }
  // Same sweeps over a batched slot value (the batch-tail framing adds a
  // count + per-member commands that truncation/flipping must not trip on).
  const auto hp = std::make_shared<const core::Command>(cmd(2, 11, {3}));
  const auto tp = std::make_shared<const core::Command>(cmd(2, 12, {3}));
  auto batch = std::make_shared<core::CommandBatch>();
  batch->cmds.push_back(hp);
  batch->cmds.push_back(tp);
  m2p::SlotList bslots;
  bslots.emplace_back(3, 1, 2, hp, batch);
  const auto batched = encode_payload(m2p::Accept(99, bslots));
  for (std::size_t len = 0; len < batched.size(); ++len)
    EXPECT_EQ(decode_payload(batched.data(), len), nullptr) << "len " << len;
  for (int i = 0; i < 500; ++i) {
    auto mutated = batched;
    mutated[rng.uniform(mutated.size())] ^=
        static_cast<std::uint8_t>(1 << rng.uniform(8));
    decode_payload(mutated);
  }
}

TEST(Serde, TrailingBytesRejected) {
  // A message must span the whole input: one byte past a well-formed
  // Accept makes the input malformed. decode_next, which reads one message
  // of a multi-message frame, stops right after the Accept instead.
  auto bytes = encode_payload(m2p::Accept(42, {{3, 1, 2, cmd(2, 11, {3})}}));
  ASSERT_NE(decode_payload(bytes), nullptr);
  bytes.push_back(0);
  EXPECT_EQ(decode_payload(bytes), nullptr);
  Reader r(bytes);
  EXPECT_NE(decode_next(r), nullptr);
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(Serde, UnknownKindRejected) {
  Writer w;
  w.varint(777777);
  EXPECT_EQ(decode_payload(w.data()), nullptr);
}

}  // namespace
}  // namespace m2::net
