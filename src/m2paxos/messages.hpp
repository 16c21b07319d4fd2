#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/command.hpp"
#include "net/payload.hpp"
#include "net/wire.hpp"

namespace m2::m2p {

using core::Command;
using core::CommandBatchPtr;
using core::CommandPtr;
using core::Epoch;
using core::Instance;
using core::ObjectId;

/// One (object, position) cell targeted by an Accept/Decide, together with
/// the epoch it is proposed in and the command to place there. The command
/// is a shared immutable handle: Accept, acceptor slots, Decide, and the
/// slot log all reference the same allocation.
struct SlotValue {
  ObjectId object = 0;
  Instance instance = 0;
  Epoch epoch = 0;
  CommandPtr cmd;
  /// Multi-command slot value: when set, the slot decides the whole batch
  /// (cmd is its head, cmd == batch->cmds.front()) and delivery unrolls
  /// the members in batch order. Null for plain single-command slots.
  CommandBatchPtr batch;

  SlotValue() = default;
  SlotValue(ObjectId o, Instance in, Epoch e, CommandPtr c)
      : object(o), instance(in), epoch(e), cmd(std::move(c)) {}
  SlotValue(ObjectId o, Instance in, Epoch e, CommandPtr c, CommandBatchPtr b)
      : object(o),
        instance(in),
        epoch(e),
        cmd(std::move(c)),
        batch(std::move(b)) {}
  /// Wraps a by-value command into a fresh shared handle (decode paths and
  /// tests; protocol hot paths pass CommandPtr through).
  SlotValue(ObjectId o, Instance in, Epoch e, Command c)
      : object(o),
        instance(in),
        epoch(e),
        cmd(std::make_shared<const Command>(std::move(c))) {}

  static constexpr std::size_t kHeaderBytes = 24;  // object+instance+epoch

  /// On the wire only inside a HeadList: the head may be a reference.
  static auto fields(auto& m, auto& v) {
    return v(m.object, m.instance, m.epoch, net::batched(m.cmd, m.batch));
  }
};

/// Head back-references on the wire. Within one Accept, Decide or
/// SyncReply slot list, or one AckPrepare vote list, the first head with a
/// given command id is written in full and every later head with that id
/// as a kRefBytes reference to it (HeadList below), so a multi-object
/// command travels once per message, as in the paper's Algorithm 2. The
/// encoder, the decoder and wire_size() all run HeadList's one codec over
/// this index. Lists of up to kInline heads are scanned on the stack; longer
/// ones (AckPrepare votes while delivery stalls) hash into a per-thread
/// table, so no use allocates in steady state or is quadratic in the list
/// length.
class HeadIndex {
 public:
  /// A reference spells u64 id | u32 0 | u8 reference flag.
  static constexpr std::size_t kRefBytes = 13;

  /// `n_heads` bounds the number of first() calls.
  explicit HeadIndex(std::size_t n_heads) {
    if (n_heads > kInline) use_table(n_heads);
  }
  HeadIndex(const HeadIndex&) = delete;
  HeadIndex& operator=(const HeadIndex&) = delete;

  /// Position of the first head with `id` seen so far; records `pos` as
  /// that position, and returns it, when `id` is new.
  std::size_t first(std::uint64_t id, std::size_t pos) {
    if (table_ != nullptr) return first_hashed(id, pos);
    for (std::size_t i = 0; i < n_inline_; ++i)
      if (inline_[i].id == id) return inline_[i].pos;
    assert(n_inline_ < kInline);
    inline_[n_inline_++] = Entry{id, pos};
    return pos;
  }

 private:
  void use_table(std::size_t n_heads);
  std::size_t first_hashed(std::uint64_t id, std::size_t pos);

  static constexpr std::size_t kInline = 16;
  struct Entry {
    std::uint64_t id;
    std::size_t pos;
  };
  std::array<Entry, kInline> inline_;  // read only below n_inline_
  std::size_t n_inline_ = 0;
  Entry* table_ = nullptr;  // open-addressing table for long lists
  std::size_t mask_ = 0;
};

/// Slot list of an Accept/Decide: inline capacity 8 — fast-path rounds
/// carry one slot per object of one command, and a batched flush packs up
/// to 8 per-object slots into one round without spilling.
using SlotList = core::SmallVec<SlotValue, 8>;

/// A slot or vote list on the wire: a varint count, then each element's
/// fields, with every head after the first of its command id written as a
/// reference:
///   u64 id | u32 0 | u8 kRef
/// A reference resolves to the handle of the earlier element it names, so
/// all of a command's slots share one decoded command.
template <typename List>
struct HeadList {
  List& list;
};

template <typename List>
HeadList<List> head_list(List& list) {
  return {list};
}

}  // namespace m2::m2p

namespace m2::net {

template <typename List>
struct Codec<m2p::HeadList<List>> {
  using Elem = std::remove_const_t<typename List::value_type>;
  using CommandCodec = Codec<core::Command>;
  static_assert(m2p::HeadIndex::kRefBytes == 8 + 4 + 1,
                "a reference is a command prefix with no objects or payload");
  static constexpr std::size_t kMinBytes = 1;

  /// Element visitor that writes or counts a Batched head per the index.
  template <typename Out>
  struct HeadEncoder {
    Out& out;
    m2p::HeadIndex& heads;
    std::size_t pos;
    template <typename... F>
    void operator()(const F&... f) const { (put(f), ...); }
    template <typename F>
    void put(const F& f) const { Codec<F>::put(out, f); }
    template <typename H, typename B>
    void put(const Batched<H, B>& v) const {
      if (heads.first(v.head->id.value, pos) == pos) {
        CommandCodec::put(out, *v.head);
      } else {
        out.u64(v.head->id.value);
        out.u32(0);
        out.u8(CommandCodec::kRef);
      }
      put_tail(out, v.batch);
    }
  };

  /// Element visitor that resolves a Batched head against the elements
  /// decoded so far.
  struct HeadDecoder {
    Reader& r;
    m2p::HeadIndex& heads;
    const List& decoded;
    std::size_t pos;
    template <typename... F>
    bool operator()(F&&... f) const { return (get(f) && ...); }
    template <typename F>
    bool get(F& f) const { return Codec<F>::get(r, f); }
    template <typename H, typename B>
    bool get(Batched<H, B>& v) const {
      // A reference spells a command prefix: peek at its flags. A
      // truncated prefix is no reference; the full read below rejects it.
      Reader ref = r;
      const auto id = ref.u64();
      const auto payload_bytes = ref.u32();
      const auto flags = ref.u8();
      if (id && payload_bytes && flags == CommandCodec::kRef) {
        if (*payload_bytes != 0) return false;
        r = ref;
        const std::size_t first = heads.first(*id, pos);
        if (first == pos) return false;  // names no earlier head
        v.head = decoded[first].cmd;
      } else {
        if (!get_command_ptr(r, v.head)) return false;
        heads.first(v.head->id.value, pos);
      }
      return get_tail(r, v.head, v.batch);
    }
  };

  template <typename Out>
  static void put(Out& o, const m2p::HeadList<List>& l) {
    o.varint(l.list.size());
    m2p::HeadIndex heads(l.list.size());
    for (std::size_t i = 0; i < l.list.size(); ++i) {
      const HeadEncoder<Out> e{o, heads, i};
      Elem::fields(l.list[i], e);
    }
  }

  static bool get(Reader& r, m2p::HeadList<List> l) {
    const auto n = read_count(r, Codec<Elem>::kMinBytes);
    if (!n) return false;
    l.list.reserve(*n);
    m2p::HeadIndex heads(*n);
    for (std::size_t i = 0; i < *n; ++i) {
      const HeadDecoder d{r, heads, l.list, i};
      if (!Elem::fields(l.list.emplace_back(), d)) return false;
    }
    return true;
  }
};

}  // namespace m2::net

namespace m2::m2p {

/// Forwarding of a command to the node owning all its objects (§IV-B).
struct Propose final : net::Message<Propose, net::kKindM2Paxos + 1> {
  static constexpr const char* kName = "M2.Propose";
  Propose() = default;
  explicit Propose(Command c) : cmd(std::move(c)) {}
  Command cmd;

  static auto fields(auto& m, auto& v) { return v(m.cmd); }
};

/// Phase-2a over a set of slots. `req_id` correlates replies with the
/// outstanding accept round at the proposer.
struct Accept final : net::Message<Accept, net::kKindM2Paxos + 2, true> {
  static constexpr const char* kName = "M2.Accept";
  Accept() = default;
  Accept(std::uint64_t rid, SlotList s) : req_id(rid), slots(std::move(s)) {}
  std::uint64_t req_id = 0;
  SlotList slots;

  static auto fields(auto& m, auto& v) {
    return v(m.req_id, head_list(m.slots));
  }
};

/// Per-object view hint piggybacked on NACKs so a stale proposer converges
/// to the current epoch/owner without waiting for the next Accept.
struct ViewHint {
  ObjectId object = 0;
  Epoch epoch = 0;
  NodeId owner = kNoNode;

  static auto fields(auto& m, auto& v) {
    return v(m.object, m.epoch, m.owner);
  }
};

/// Phase-2b reply. ACKs go to the proposer only (learning optimization over
/// the pseudocode's ack-to-all; the proposer then broadcasts Decide).
struct AckAccept final : net::Message<AckAccept, net::kKindM2Paxos + 3> {
  static constexpr const char* kName = "M2.AckAccept";
  std::uint64_t req_id = 0;
  NodeId acceptor = kNoNode;
  bool ack = false;
  std::vector<ViewHint> hints;  // populated on NACK

  static auto fields(auto& m, auto& v) {
    return v(m.req_id, m.acceptor, m.ack, m.hints);
  }
};

/// Learn message: the decided command per slot, broadcast by the proposer
/// once a classic quorum of ACKs arrived.
struct Decide final : net::Message<Decide, net::kKindM2Paxos + 4, true> {
  static constexpr const char* kName = "M2.Decide";
  Decide() = default;
  explicit Decide(SlotList s) : slots(std::move(s)) {}
  SlotList slots;

  static auto fields(auto& m, auto& v) { return v(head_list(m.slots)); }
};

/// Phase-1a of the ownership acquisition (§IV-C): for each object, claim
/// every instance >= `from_instance` at `epoch` (suffix-covering promise,
/// exactly a Multi-Paxos prepare per object incarnation).
struct Prepare final : net::Message<Prepare, net::kKindM2Paxos + 5> {
  static constexpr const char* kName = "M2.Prepare";
  struct Entry {
    ObjectId object = 0;
    Instance from_instance = 1;
    Epoch epoch = 0;

    static auto fields(auto& m, auto& v) {
      return v(m.object, m.from_instance, m.epoch);
    }
  };
  Prepare() = default;
  Prepare(std::uint64_t rid, std::vector<Entry> e)
      : req_id(rid), entries(std::move(e)) {}
  std::uint64_t req_id = 0;
  std::vector<Entry> entries;

  static auto fields(auto& m, auto& v) { return v(m.req_id, m.entries); }
};

/// Phase-1b reply: for every covered instance the acceptor has voted in (or
/// knows decided), the vote and its epoch — the `decs` of Algorithm 4.
struct AckPrepare final
    : net::Message<AckPrepare, net::kKindM2Paxos + 6, true> {
  static constexpr const char* kName = "M2.AckPrepare";
  struct Vote {
    ObjectId object = 0;
    Instance instance = 0;
    Epoch accepted_epoch = 0;
    bool decided = false;
    CommandPtr cmd;
    /// Batched votes carry the whole slot value: a recovery that re-accepts
    /// the head without its tail would lose the tail members for good.
    CommandBatchPtr batch;

    Vote() = default;
    Vote(ObjectId o, Instance in, Epoch e, bool dec, CommandPtr c)
        : object(o),
          instance(in),
          accepted_epoch(e),
          decided(dec),
          cmd(std::move(c)) {}
    Vote(ObjectId o, Instance in, Epoch e, bool dec, Command c)
        : object(o),
          instance(in),
          accepted_epoch(e),
          decided(dec),
          cmd(std::make_shared<const Command>(std::move(c))) {}

    /// On the wire only inside a HeadList: the head may be a reference.
    static auto fields(auto& m, auto& v) {
      return v(m.object, m.instance, m.accepted_epoch, m.decided,
               net::batched(m.cmd, m.batch));
    }
  };
  std::uint64_t req_id = 0;
  NodeId acceptor = kNoNode;
  bool ack = false;
  std::vector<Vote> votes;
  /// Per prepared object, this acceptor's delivered frontier. Instances at
  /// or below a frontier are decided (and may have been garbage-collected
  /// here), so the acquirer must never place values there — without this,
  /// a lagging acquirer could no-op-fill a slot whose decided command was
  /// already evicted from every retention window it can see.
  std::vector<std::pair<ObjectId, Instance>> delivered_floors;
  std::vector<ViewHint> hints;  // populated on NACK

  /// wire_size() is cached: call it once the reply is built.
  static auto fields(auto& m, auto& v) {
    return v(m.req_id, m.acceptor, m.ack, head_list(m.votes),
             m.delivered_floors, m.hints);
  }
};

/// Anti-entropy: ask a peer for decided slots this node is missing
/// (extension beyond the paper; see DESIGN.md §5a). Sent when a delivery
/// frontier has been stuck on an undecided slot for a sync period.
struct SyncRequest final : net::Message<SyncRequest, net::kKindM2Paxos + 7> {
  static constexpr const char* kName = "M2.SyncRequest";
  struct Entry {
    ObjectId object = 0;
    Instance from_instance = 1;

    static auto fields(auto& m, auto& v) {
      return v(m.object, m.from_instance);
    }
  };
  /// Anti-entropy probe width: a replica asks for at most this many
  /// objects per SyncRequest. The inline capacity covers it, so probes
  /// built on the steady-state sync path never heap-allocate.
  static constexpr std::size_t kMaxEntries = 16;
  using EntryList = core::SmallVec<Entry, kMaxEntries>;
  SyncRequest() = default;
  explicit SyncRequest(EntryList e) : entries(std::move(e)) {}
  EntryList entries;

  static auto fields(auto& m, auto& v) { return v(m.entries); }
};

/// Reply: the peer's retained decided slots at or above the requested
/// positions (served from its retention window).
struct SyncReply final : net::Message<SyncReply, net::kKindM2Paxos + 8, true> {
  static constexpr const char* kName = "M2.SyncReply";
  SyncReply() = default;
  explicit SyncReply(SlotList s) : slots(std::move(s)) {}
  SlotList slots;

  static auto fields(auto& m, auto& v) { return v(head_list(m.slots)); }
};

}  // namespace m2::m2p
