#include "net/serde.hpp"

#include "core/failure_detector.hpp"
#include "epaxos/epaxos.hpp"
#include "genpaxos/genpaxos.hpp"
#include "m2paxos/messages.hpp"
#include "multipaxos/multipaxos.hpp"
#include "net/arena.hpp"

namespace m2::net {

namespace {

/// Decoded messages are built on transport reader (or sender) threads and
/// released by the consuming node thread, so they come from the
/// thread-safe wire arena — never from a replica's single-threaded pool,
/// and, once the size classes have warmed up, never from the heap.
template <typename T, typename... Args>
PayloadPtr arena_payload(Args&&... args) {
  return arena_make_shared<const T>(std::forward<Args>(args)...);
}

/// Reads a list's element count, rejecting one the rest of the frame cannot
/// hold at `min_bytes` per element: a hostile count must fail before it
/// sizes any buffer, so a frame can only make the decoder allocate what its
/// own bytes back.
std::optional<std::uint64_t> read_count(Reader& r, std::size_t min_bytes) {
  const auto n = r.varint();
  if (!n || *n > r.remaining() / min_bytes) return std::nullopt;
  return n;
}

}  // namespace

// Command wire layout (Command::wire_size() mirrors it byte for byte):
//   u64 id | u32 payload_bytes | u8 flags | varint n_objects | u64*n
//   then either varint body_len + body bytes      (flags & kHasBody)
//   or payload_bytes of zero padding              (no attached body).
// The padding materializes the modeled opaque application payload on a
// real wire; decode restores body == nullptr for that case, so encode and
// decode are exact inverses.
//
// An M²Paxos slot or vote head may instead be a back-reference to an
// earlier head of the same message with the same command id
// (m2p::HeadIndex):
//   u64 id | u32 0 | u8 kCmdRef
// Every other command position rejects the reference flag.
namespace {
constexpr std::uint8_t kCmdNoop = 1u << 0;
constexpr std::uint8_t kCmdHasBody = 1u << 1;
constexpr std::uint8_t kCmdRef = 1u << 2;
/// Smallest full command: id, payload_bytes, flags, empty object list.
constexpr std::size_t kMinCommandBytes = 8 + 4 + 1 + 1;
static_assert(m2p::HeadIndex::kRefBytes == 8 + 4 + 1,
              "a reference is a command prefix with no objects or payload");
}  // namespace

void write_command(Writer& w, const core::Command& c) {
  w.u64(c.id.value);
  w.u32(c.payload_bytes);
  std::uint8_t flags = 0;
  if (c.noop) flags |= kCmdNoop;
  if (c.body != nullptr) flags |= kCmdHasBody;
  w.u8(flags);
  w.varint(c.objects.size());
  for (const core::ObjectId l : c.objects) w.u64(l);
  if (c.body != nullptr) {
    w.varint(c.body->size());
    w.bytes(c.body->data(), c.body->size());
  } else {
    w.pad(c.payload_bytes);
  }
}

std::optional<core::Command> read_command(Reader& r) {
  const auto id = r.u64();
  const auto payload_bytes = r.u32();
  const auto flags = r.u8();
  const auto n_objects = r.varint();
  if (!id || !payload_bytes || !flags || !n_objects ||
      *n_objects > r.remaining() / 8 ||
      (*flags & ~(kCmdNoop | kCmdHasBody)) != 0)
    return std::nullopt;
  core::ObjectList objects;
  objects.reserve(*n_objects);
  for (std::uint64_t i = 0; i < *n_objects; ++i) {
    const auto l = r.u64();
    if (!l) return std::nullopt;
    objects.push_back(*l);
  }
  core::Command c(core::CommandId{*id}, std::move(objects), *payload_bytes);
  c.noop = (*flags & kCmdNoop) != 0;
  c.payload_bytes = *payload_bytes;  // Command ctor may not preserve it
  if ((*flags & kCmdHasBody) != 0) {
    const auto body_len = r.varint();
    if (!body_len || *body_len > r.remaining()) return std::nullopt;
    std::vector<std::uint8_t> body(*body_len);
    for (auto& b : body) {
      const auto byte = r.u8();
      if (!byte) return std::nullopt;
      b = *byte;
    }
    const auto saved = c.payload_bytes;
    c.set_body(std::move(body));
    c.payload_bytes = saved;
  } else {
    if (!r.skip(*payload_bytes)) return std::nullopt;
  }
  return c;
}

// ---------------------------------------------------------------------
// Per-protocol encoders
// ---------------------------------------------------------------------

namespace {

// Batch tail riding behind a slot/vote head command: a varint member count
// (0 for plain single-command values) followed by the tail commands. The
// head is always the batch's first member, so head + tail reconstructs the
// whole CommandBatch on decode.
void write_batch_tail(Writer& w, const core::CommandBatchPtr& batch) {
  if (batch == nullptr || batch->cmds.size() <= 1) {
    w.varint(0);
    return;
  }
  w.varint(batch->cmds.size() - 1);
  for (std::size_t i = 1; i < batch->cmds.size(); ++i)
    write_command(w, *batch->cmds[i]);
}

bool read_batch_tail(Reader& r, const core::CommandPtr& head,
                     core::CommandBatchPtr& out) {
  const auto n = r.varint();
  if (!n || *n >= core::CommandBatch::kCapacity) return false;
  if (*n == 0) {
    out = nullptr;
    return true;
  }
  auto batch = arena_make_shared<core::CommandBatch>();
  batch->cmds.push_back(head);
  for (std::uint64_t i = 0; i < *n; ++i) {
    auto cmd = read_command(r);
    if (!cmd) return false;
    batch->cmds.push_back(
        arena_make_shared<const core::Command>(std::move(*cmd)));
  }
  out = std::move(batch);
  return true;
}

// Multi-Paxos batch tails: by-value command vectors behind an Accept,
// Commit, or Promise vote head (varint count, 0 for plain slots).
void write_tail(Writer& w, const std::vector<core::Command>& tail) {
  w.varint(tail.size());
  for (const auto& t : tail) write_command(w, t);
}

bool read_tail(Reader& r, std::vector<core::Command>& tail) {
  const auto n = read_count(r, kMinCommandBytes);
  if (!n) return false;
  tail.reserve(*n);
  for (std::uint64_t i = 0; i < *n; ++i) {
    auto cmd = read_command(r);
    if (!cmd) return false;
    tail.push_back(std::move(*cmd));
  }
  return true;
}

// M²Paxos slot and vote heads: the first head with a command id in a
// message is written in full, every later one as a reference to it.
void write_head(Writer& w, m2p::HeadIndex& heads, std::size_t pos,
                const core::Command& c) {
  if (heads.first(c.id.value, pos) == pos) {
    write_command(w, c);
    return;
  }
  w.u64(c.id.value);
  w.u32(0);
  w.u8(kCmdRef);
}

/// Reads the head of element `decoded.size()` of a slot or vote list. A
/// reference resolves to the handle of the earlier element it names, so
/// all of a command's slots share one decoded command. Null on malformed
/// input or a reference to an id not written earlier in the message.
template <typename List>
core::CommandPtr read_head(Reader& r, m2p::HeadIndex& heads,
                           const List& decoded) {
  const std::size_t pos = decoded.size();
  // A reference spells a command prefix: peek at its flags.
  Reader ref = r;
  const auto id = ref.u64();
  const auto payload_bytes = ref.u32();
  if (ref.u8() == kCmdRef) {
    if (*payload_bytes != 0) return nullptr;
    r = ref;
    const std::size_t first = heads.first(*id, pos);
    return first == pos ? nullptr : decoded[first].cmd;
  }
  auto cmd = read_command(r);
  if (!cmd) return nullptr;
  heads.first(cmd->id.value, pos);
  return arena_make_shared<const core::Command>(std::move(*cmd));
}

/// Slot list of an Accept, Decide or SyncReply.
void write_slots(Writer& w, const m2p::SlotList& slots) {
  w.varint(slots.size());
  m2p::HeadIndex heads(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const auto& s = slots[i];
    w.u64(s.object);
    w.u64(s.instance);
    w.u64(s.epoch);
    write_head(w, heads, i, *s.cmd);
    write_batch_tail(w, s.batch);
  }
}

void encode_body(Writer& w, const Payload& p) {
  switch (p.kind()) {
    // --- common -----------------------------------------------------
    case kKindCommon + 1:
      w.u32(static_cast<const core::Heartbeat&>(p).sender);
      break;

    // --- Multi-Paxos ---------------------------------------------------
    case kKindMultiPaxos + 1:
      write_command(w, static_cast<const mp::ClientPropose&>(p).cmd);
      break;
    case kKindMultiPaxos + 2: {
      const auto& m = static_cast<const mp::Prepare&>(p);
      w.u64(m.ballot);
      w.u64(m.from_slot);
      break;
    }
    case kKindMultiPaxos + 3: {
      const auto& m = static_cast<const mp::Promise&>(p);
      w.u64(m.ballot);
      w.u32(m.acceptor);
      w.u8(m.ack ? 1 : 0);
      w.u64(m.first_undelivered);
      w.varint(m.votes.size());
      for (const auto& v : m.votes) {
        w.u64(v.slot);
        w.u64(v.vballot);
        write_command(w, v.cmd);
        write_tail(w, v.tail);
      }
      break;
    }
    case kKindMultiPaxos + 4: {
      const auto& m = static_cast<const mp::Accept&>(p);
      w.u64(m.ballot);
      w.u64(m.slot);
      write_command(w, m.cmd);
      write_tail(w, m.tail);
      break;
    }
    case kKindMultiPaxos + 5: {
      const auto& m = static_cast<const mp::Accepted&>(p);
      w.u64(m.ballot);
      w.u64(m.slot);
      w.u32(m.acceptor);
      w.u8(m.ack ? 1 : 0);
      break;
    }
    case kKindMultiPaxos + 6: {
      const auto& m = static_cast<const mp::Commit&>(p);
      w.u64(m.slot);
      write_command(w, m.cmd);
      write_tail(w, m.tail);
      break;
    }

    // --- Generalized Paxos ---------------------------------------------
    case kKindGenPaxos + 1:
      write_command(w, static_cast<const gp::FastPropose&>(p).cmd);
      break;
    case kKindGenPaxos + 2: {
      const auto& m = static_cast<const gp::FastAck&>(p);
      w.u64(m.cmd_id.value);
      w.u32(m.acceptor);
      w.u32(m.cstruct_bytes);
      w.varint(m.preds.size());
      for (const auto& pred : m.preds) {
        w.u64(pred.object);
        w.u64(pred.pred.value);
      }
      // The c-struct suffix real Generalized Paxos acceptors ship with
      // every vote is modeled as a byte count; materialize it as padding
      // so the encoded frame weighs what the model claims.
      w.pad(m.cstruct_bytes);
      break;
    }
    case kKindGenPaxos + 3:
      write_command(w, static_cast<const gp::CommitNotify&>(p).cmd);
      break;
    case kKindGenPaxos + 4:
      write_command(w, static_cast<const gp::ResolveReq&>(p).cmd);
      break;
    case kKindGenPaxos + 5: {
      const auto& m = static_cast<const gp::SlowAccept&>(p);
      w.u64(m.ballot);
      write_command(w, m.cmd);
      break;
    }
    case kKindGenPaxos + 6: {
      const auto& m = static_cast<const gp::SlowAck&>(p);
      w.u64(m.ballot);
      w.u64(m.cmd_id.value);
      w.u32(m.acceptor);
      break;
    }
    case kKindGenPaxos + 7: {
      const auto& m = static_cast<const gp::Sequence&>(p);
      w.u64(m.index);
      write_command(w, m.cmd);
      break;
    }

    // --- EPaxos ---------------------------------------------------------
    case kKindEPaxos + 1: {
      const auto& m = static_cast<const ep::PreAccept&>(p);
      w.u64(m.inst);
      write_command(w, m.cmd);
      w.u64(m.attrs.seq);
      w.varint(m.attrs.deps.size());
      for (const ep::InstRef d : m.attrs.deps) w.u64(d);
      break;
    }
    case kKindEPaxos + 2: {
      const auto& m = static_cast<const ep::PreAcceptReply&>(p);
      w.u64(m.inst);
      w.u32(m.acceptor);
      w.u8(m.changed ? 1 : 0);
      w.u64(m.attrs.seq);
      w.varint(m.attrs.deps.size());
      for (const ep::InstRef d : m.attrs.deps) w.u64(d);
      break;
    }
    case kKindEPaxos + 3: {
      const auto& m = static_cast<const ep::AcceptMsg&>(p);
      w.u64(m.inst);
      write_command(w, m.cmd);
      w.u64(m.attrs.seq);
      w.varint(m.attrs.deps.size());
      for (const ep::InstRef d : m.attrs.deps) w.u64(d);
      break;
    }
    case kKindEPaxos + 4: {
      const auto& m = static_cast<const ep::AcceptReply&>(p);
      w.u64(m.inst);
      w.u32(m.acceptor);
      break;
    }
    case kKindEPaxos + 5: {
      const auto& m = static_cast<const ep::CommitMsg&>(p);
      w.u64(m.inst);
      write_command(w, m.cmd);
      w.u64(m.attrs.seq);
      w.varint(m.attrs.deps.size());
      for (const ep::InstRef d : m.attrs.deps) w.u64(d);
      break;
    }

    // --- M²Paxos ---------------------------------------------------------
    case kKindM2Paxos + 1:
      write_command(w, static_cast<const m2p::Propose&>(p).cmd);
      break;
    case kKindM2Paxos + 2: {
      const auto& m = static_cast<const m2p::Accept&>(p);
      w.u64(m.req_id);
      write_slots(w, m.slots);
      break;
    }
    case kKindM2Paxos + 3: {
      const auto& m = static_cast<const m2p::AckAccept&>(p);
      w.u64(m.req_id);
      w.u32(m.acceptor);
      w.u8(m.ack ? 1 : 0);
      w.varint(m.hints.size());
      for (const auto& h : m.hints) {
        w.u64(h.object);
        w.u64(h.epoch);
        w.u32(h.owner);
      }
      break;
    }
    case kKindM2Paxos + 4:
      write_slots(w, static_cast<const m2p::Decide&>(p).slots);
      break;
    case kKindM2Paxos + 5: {
      const auto& m = static_cast<const m2p::Prepare&>(p);
      w.u64(m.req_id);
      w.varint(m.entries.size());
      for (const auto& e : m.entries) {
        w.u64(e.object);
        w.u64(e.from_instance);
        w.u64(e.epoch);
      }
      break;
    }
    case kKindM2Paxos + 6: {
      const auto& m = static_cast<const m2p::AckPrepare&>(p);
      w.u64(m.req_id);
      w.u32(m.acceptor);
      w.u8(m.ack ? 1 : 0);
      w.varint(m.votes.size());
      m2p::HeadIndex heads(m.votes.size());
      for (std::size_t i = 0; i < m.votes.size(); ++i) {
        const auto& v = m.votes[i];
        w.u64(v.object);
        w.u64(v.instance);
        w.u64(v.accepted_epoch);
        w.u8(v.decided ? 1 : 0);
        write_head(w, heads, i, *v.cmd);
        write_batch_tail(w, v.batch);
      }
      w.varint(m.delivered_floors.size());
      for (const auto& [obj, floor] : m.delivered_floors) {
        w.u64(obj);
        w.u64(floor);
      }
      w.varint(m.hints.size());
      for (const auto& h : m.hints) {
        w.u64(h.object);
        w.u64(h.epoch);
        w.u32(h.owner);
      }
      break;
    }
    case kKindM2Paxos + 7: {
      const auto& m = static_cast<const m2p::SyncRequest&>(p);
      w.varint(m.entries.size());
      for (const auto& e : m.entries) {
        w.u64(e.object);
        w.u64(e.from_instance);
      }
      break;
    }
    case kKindM2Paxos + 8:
      write_slots(w, static_cast<const m2p::SyncReply&>(p).slots);
      break;

    default:
      break;  // unknown kinds encode as empty bodies
  }
}

// ---------------------------------------------------------------------
// Per-protocol decoders
// ---------------------------------------------------------------------

bool read_attrs(Reader& r, ep::Attrs& attrs) {
  const auto seq = r.u64();
  if (!seq) return false;
  const auto n = read_count(r, 8);
  if (!n) return false;
  attrs.seq = *seq;
  attrs.deps.reserve(*n);
  for (std::uint64_t i = 0; i < *n; ++i) {
    const auto d = r.u64();
    if (!d) return false;
    attrs.deps.push_back(*d);
  }
  return true;
}

/// Smallest slot: header, a head reference, an empty batch tail.
constexpr std::size_t kMinSlotBytes =
    m2p::SlotValue::kHeaderBytes + m2p::HeadIndex::kRefBytes + 1;

bool read_slots(Reader& r, m2p::SlotList& slots) {
  const auto n = read_count(r, kMinSlotBytes);
  if (!n) return false;
  slots.reserve(*n);
  m2p::HeadIndex heads(*n);
  for (std::uint64_t i = 0; i < *n; ++i) {
    const auto object = r.u64();
    const auto instance = r.u64();
    const auto epoch = r.u64();
    if (!object || !instance || !epoch) return false;
    auto head = read_head(r, heads, slots);
    if (head == nullptr) return false;
    core::CommandBatchPtr batch;
    if (!read_batch_tail(r, head, batch)) return false;
    slots.push_back(m2p::SlotValue{*object, *instance, *epoch,
                                   std::move(head), std::move(batch)});
  }
  return true;
}

bool read_hints(Reader& r, std::vector<m2p::ViewHint>& hints) {
  const auto n = read_count(r, 20);
  if (!n) return false;
  hints.reserve(*n);
  for (std::uint64_t i = 0; i < *n; ++i) {
    const auto object = r.u64();
    const auto epoch = r.u64();
    const auto owner = r.u32();
    if (!object || !epoch || !owner) return false;
    hints.push_back(m2p::ViewHint{*object, *epoch, *owner});
  }
  return true;
}

PayloadPtr decode_body(std::uint32_t kind, Reader& r) {
  switch (kind) {
    case kKindCommon + 1: {
      const auto sender = r.u32();
      if (!sender) return nullptr;
      return arena_payload<core::Heartbeat>(*sender);
    }

    // --- Multi-Paxos ---------------------------------------------------
    case kKindMultiPaxos + 1: {
      auto cmd = read_command(r);
      return cmd ? arena_payload<mp::ClientPropose>(std::move(*cmd)) : nullptr;
    }
    case kKindMultiPaxos + 2: {
      const auto ballot = r.u64();
      const auto from = r.u64();
      if (!ballot || !from) return nullptr;
      return arena_payload<mp::Prepare>(*ballot, *from);
    }
    case kKindMultiPaxos + 3: {
      auto m = arena_make_shared<mp::Promise>();
      const auto ballot = r.u64();
      const auto acceptor = r.u32();
      const auto ack = r.u8();
      const auto first_undelivered = r.u64();
      // Per vote: slot, ballot, a command and its tail count.
      const auto n = read_count(r, 16 + kMinCommandBytes + 1);
      if (!ballot || !acceptor || !ack || !first_undelivered || !n)
        return nullptr;
      m->ballot = *ballot;
      m->acceptor = *acceptor;
      m->ack = *ack != 0;
      m->first_undelivered = *first_undelivered;
      for (std::uint64_t i = 0; i < *n; ++i) {
        const auto slot = r.u64();
        const auto vballot = r.u64();
        if (!slot || !vballot) return nullptr;
        auto cmd = read_command(r);
        if (!cmd) return nullptr;
        std::vector<core::Command> tail;
        if (!read_tail(r, tail)) return nullptr;
        m->votes.push_back(mp::Promise::Vote{*slot, *vballot, std::move(*cmd),
                                             std::move(tail)});
      }
      return m;
    }
    case kKindMultiPaxos + 4: {
      const auto ballot = r.u64();
      const auto slot = r.u64();
      if (!ballot || !slot) return nullptr;
      auto cmd = read_command(r);
      if (!cmd) return nullptr;
      std::vector<core::Command> tail;
      if (!read_tail(r, tail)) return nullptr;
      return arena_payload<mp::Accept>(*ballot, *slot, std::move(*cmd),
                                      std::move(tail));
    }
    case kKindMultiPaxos + 5: {
      auto m = arena_make_shared<mp::Accepted>();
      const auto ballot = r.u64();
      const auto slot = r.u64();
      const auto acceptor = r.u32();
      const auto ack = r.u8();
      if (!ballot || !slot || !acceptor || !ack) return nullptr;
      m->ballot = *ballot;
      m->slot = *slot;
      m->acceptor = *acceptor;
      m->ack = *ack != 0;
      return m;
    }
    case kKindMultiPaxos + 6: {
      const auto slot = r.u64();
      if (!slot) return nullptr;
      auto cmd = read_command(r);
      if (!cmd) return nullptr;
      std::vector<core::Command> tail;
      if (!read_tail(r, tail)) return nullptr;
      return arena_payload<mp::Commit>(*slot, std::move(*cmd),
                                      std::move(tail));
    }

    // --- Generalized Paxos ---------------------------------------------
    case kKindGenPaxos + 1: {
      auto cmd = read_command(r);
      return cmd ? arena_payload<gp::FastPropose>(std::move(*cmd)) : nullptr;
    }
    case kKindGenPaxos + 2: {
      auto m = arena_make_shared<gp::FastAck>();
      const auto cmd_id = r.u64();
      const auto acceptor = r.u32();
      const auto cstruct = r.u32();
      const auto n = read_count(r, 16);
      if (!cmd_id || !acceptor || !cstruct || !n) return nullptr;
      m->cmd_id = core::CommandId{*cmd_id};
      m->acceptor = *acceptor;
      m->cstruct_bytes = *cstruct;
      for (std::uint64_t i = 0; i < *n; ++i) {
        const auto object = r.u64();
        const auto pred = r.u64();
        if (!object || !pred) return nullptr;
        m->preds.push_back(gp::FastAck::Pred{*object, core::CommandId{*pred}});
      }
      if (!r.skip(m->cstruct_bytes)) return nullptr;
      return m;
    }
    case kKindGenPaxos + 3: {
      auto cmd = read_command(r);
      return cmd ? arena_payload<gp::CommitNotify>(std::move(*cmd)) : nullptr;
    }
    case kKindGenPaxos + 4: {
      auto cmd = read_command(r);
      return cmd ? arena_payload<gp::ResolveReq>(std::move(*cmd)) : nullptr;
    }
    case kKindGenPaxos + 5: {
      const auto ballot = r.u64();
      if (!ballot) return nullptr;
      auto cmd = read_command(r);
      return cmd ? arena_payload<gp::SlowAccept>(*ballot, std::move(*cmd))
                 : nullptr;
    }
    case kKindGenPaxos + 6: {
      auto m = arena_make_shared<gp::SlowAck>();
      const auto ballot = r.u64();
      const auto cmd_id = r.u64();
      const auto acceptor = r.u32();
      if (!ballot || !cmd_id || !acceptor) return nullptr;
      m->ballot = *ballot;
      m->cmd_id = core::CommandId{*cmd_id};
      m->acceptor = *acceptor;
      return m;
    }
    case kKindGenPaxos + 7: {
      const auto index = r.u64();
      if (!index) return nullptr;
      auto cmd = read_command(r);
      return cmd ? arena_payload<gp::Sequence>(*index, std::move(*cmd))
                 : nullptr;
    }

    // --- EPaxos ---------------------------------------------------------
    case kKindEPaxos + 1: {
      const auto inst = r.u64();
      if (!inst) return nullptr;
      auto cmd = read_command(r);
      ep::Attrs attrs;
      if (!cmd || !read_attrs(r, attrs)) return nullptr;
      return arena_payload<ep::PreAccept>(*inst, std::move(*cmd),
                                         std::move(attrs));
    }
    case kKindEPaxos + 2: {
      auto m = arena_make_shared<ep::PreAcceptReply>();
      const auto inst = r.u64();
      const auto acceptor = r.u32();
      const auto changed = r.u8();
      if (!inst || !acceptor || !changed) return nullptr;
      m->inst = *inst;
      m->acceptor = *acceptor;
      m->changed = *changed != 0;
      if (!read_attrs(r, m->attrs)) return nullptr;
      return m;
    }
    case kKindEPaxos + 3: {
      const auto inst = r.u64();
      if (!inst) return nullptr;
      auto cmd = read_command(r);
      ep::Attrs attrs;
      if (!cmd || !read_attrs(r, attrs)) return nullptr;
      return arena_payload<ep::AcceptMsg>(*inst, std::move(*cmd),
                                         std::move(attrs));
    }
    case kKindEPaxos + 4: {
      auto m = arena_make_shared<ep::AcceptReply>();
      const auto inst = r.u64();
      const auto acceptor = r.u32();
      if (!inst || !acceptor) return nullptr;
      m->inst = *inst;
      m->acceptor = *acceptor;
      return m;
    }
    case kKindEPaxos + 5: {
      const auto inst = r.u64();
      if (!inst) return nullptr;
      auto cmd = read_command(r);
      ep::Attrs attrs;
      if (!cmd || !read_attrs(r, attrs)) return nullptr;
      return arena_payload<ep::CommitMsg>(*inst, std::move(*cmd),
                                         std::move(attrs));
    }

    // --- M²Paxos ---------------------------------------------------------
    case kKindM2Paxos + 1: {
      auto cmd = read_command(r);
      return cmd ? arena_payload<m2p::Propose>(std::move(*cmd)) : nullptr;
    }
    case kKindM2Paxos + 2: {
      const auto req = r.u64();
      m2p::SlotList slots;
      if (!req || !read_slots(r, slots)) return nullptr;
      return arena_payload<m2p::Accept>(*req, std::move(slots));
    }
    case kKindM2Paxos + 3: {
      auto m = arena_make_shared<m2p::AckAccept>();
      const auto req = r.u64();
      const auto acceptor = r.u32();
      const auto ack = r.u8();
      if (!req || !acceptor || !ack) return nullptr;
      m->req_id = *req;
      m->acceptor = *acceptor;
      m->ack = *ack != 0;
      if (!read_hints(r, m->hints)) return nullptr;
      return m;
    }
    case kKindM2Paxos + 4: {
      m2p::SlotList slots;
      if (!read_slots(r, slots)) return nullptr;
      return arena_payload<m2p::Decide>(std::move(slots));
    }
    case kKindM2Paxos + 5: {
      const auto req = r.u64();
      const auto n = read_count(r, 24);
      if (!req || !n) return nullptr;
      std::vector<m2p::Prepare::Entry> entries;
      for (std::uint64_t i = 0; i < *n; ++i) {
        const auto object = r.u64();
        const auto from = r.u64();
        const auto epoch = r.u64();
        if (!object || !from || !epoch) return nullptr;
        entries.push_back(m2p::Prepare::Entry{*object, *from, *epoch});
      }
      return arena_payload<m2p::Prepare>(*req, std::move(entries));
    }
    case kKindM2Paxos + 6: {
      auto m = arena_make_shared<m2p::AckPrepare>();
      const auto req = r.u64();
      const auto acceptor = r.u32();
      const auto ack = r.u8();
      // Smallest vote: header, a head reference, an empty batch tail.
      const auto n = read_count(r, m2p::AckPrepare::Vote::kHeaderBytes +
                                       m2p::HeadIndex::kRefBytes + 1);
      if (!req || !acceptor || !ack || !n) return nullptr;
      m->req_id = *req;
      m->acceptor = *acceptor;
      m->ack = *ack != 0;
      m2p::HeadIndex heads(*n);
      for (std::uint64_t i = 0; i < *n; ++i) {
        const auto object = r.u64();
        const auto instance = r.u64();
        const auto epoch = r.u64();
        const auto decided = r.u8();
        if (!object || !instance || !epoch || !decided) return nullptr;
        auto head = read_head(r, heads, m->votes);
        if (head == nullptr) return nullptr;
        core::CommandBatchPtr batch;
        if (!read_batch_tail(r, head, batch)) return nullptr;
        m->votes.push_back(m2p::AckPrepare::Vote{*object, *instance, *epoch,
                                                 *decided != 0,
                                                 std::move(head)});
        m->votes.back().batch = std::move(batch);
      }
      const auto nf = read_count(r, 16);
      if (!nf) return nullptr;
      for (std::uint64_t i = 0; i < *nf; ++i) {
        const auto object = r.u64();
        const auto floor = r.u64();
        if (!object || !floor) return nullptr;
        m->delivered_floors.emplace_back(*object, *floor);
      }
      if (!read_hints(r, m->hints)) return nullptr;
      return m;
    }
    case kKindM2Paxos + 7: {
      const auto n = read_count(r, 16);
      if (!n) return nullptr;
      m2p::SyncRequest::EntryList entries;
      for (std::uint64_t i = 0; i < *n; ++i) {
        const auto object = r.u64();
        const auto from = r.u64();
        if (!object || !from) return nullptr;
        entries.push_back(m2p::SyncRequest::Entry{*object, *from});
      }
      return arena_payload<m2p::SyncRequest>(std::move(entries));
    }
    case kKindM2Paxos + 8: {
      m2p::SlotList slots;
      if (!read_slots(r, slots)) return nullptr;
      return arena_payload<m2p::SyncReply>(std::move(slots));
    }

    default:
      return nullptr;
  }
}

}  // namespace

std::vector<std::uint8_t> encode_payload(const Payload& payload) {
  std::vector<std::uint8_t> out;
  encode_payload_into(payload, out);
  return out;
}

void encode_payload_into(const Payload& payload,
                         std::vector<std::uint8_t>& out) {
  out.clear();
  Writer w(&out);
  w.varint(payload.kind());
  encode_body(w, payload);
}

PayloadPtr decode_payload(const std::uint8_t* data, std::size_t n) {
  Reader r(data, n);
  const auto kind = r.varint();
  if (!kind || *kind > UINT32_MAX) return nullptr;
  return decode_body(static_cast<std::uint32_t>(*kind), r);
}

}  // namespace m2::net
