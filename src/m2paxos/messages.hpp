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
};

/// Head back-references on the wire. Within one Accept, Decide or
/// SyncReply slot list, or one AckPrepare vote list, the first head with a
/// given command id is written in full and every later head with that id
/// as a kRefBytes reference to it (net/serde.cpp), so a multi-object
/// command travels once per message, as in the paper's Algorithm 2. The
/// encoder, the decoder and wire_size() all ask this index, so they apply
/// one rule. Lists of up to kInline heads are scanned on the stack; longer
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

/// Forwarding of a command to the node owning all its objects (§IV-B).
struct Propose final : net::Payload {
  explicit Propose(Command c) : cmd(std::move(c)) {}
  Command cmd;

  std::uint32_t kind() const override { return net::kKindM2Paxos + 1; }
  std::size_t wire_size() const override {
    return net::varint_len(kind()) + cmd.wire_size();
  }
  const char* name() const override { return "M2.Propose"; }
};

/// Phase-2a over a set of slots. `req_id` correlates replies with the
/// outstanding accept round at the proposer.
struct Accept final : net::Payload {
  Accept(std::uint64_t rid, SlotList s) : req_id(rid), slots(std::move(s)) {}
  std::uint64_t req_id;
  SlotList slots;

  std::uint32_t kind() const override { return net::kKindM2Paxos + 2; }
  std::size_t wire_size() const override;  // cached; payloads are immutable
  const char* name() const override { return "M2.Accept"; }

 private:
  mutable std::size_t cached_size_ = SIZE_MAX;
};

/// Per-object view hint piggybacked on NACKs so a stale proposer converges
/// to the current epoch/owner without waiting for the next Accept.
struct ViewHint {
  ObjectId object = 0;
  Epoch epoch = 0;
  NodeId owner = kNoNode;
};

/// Phase-2b reply. ACKs go to the proposer only (learning optimization over
/// the pseudocode's ack-to-all; the proposer then broadcasts Decide).
struct AckAccept final : net::Payload {
  std::uint64_t req_id = 0;
  NodeId acceptor = kNoNode;
  bool ack = false;
  std::vector<ViewHint> hints;  // populated on NACK

  std::uint32_t kind() const override { return net::kKindM2Paxos + 3; }
  std::size_t wire_size() const override {
    return net::varint_len(kind()) + 8 + 4 + 1 +
           net::varint_len(hints.size()) + 20 * hints.size();
  }
  const char* name() const override { return "M2.AckAccept"; }
};

/// Learn message: the decided command per slot, broadcast by the proposer
/// once a classic quorum of ACKs arrived.
struct Decide final : net::Payload {
  explicit Decide(SlotList s) : slots(std::move(s)) {}
  SlotList slots;

  std::uint32_t kind() const override { return net::kKindM2Paxos + 4; }
  std::size_t wire_size() const override;  // cached; payloads are immutable
  const char* name() const override { return "M2.Decide"; }

 private:
  mutable std::size_t cached_size_ = SIZE_MAX;
};

/// Phase-1a of the ownership acquisition (§IV-C): for each object, claim
/// every instance >= `from_instance` at `epoch` (suffix-covering promise,
/// exactly a Multi-Paxos prepare per object incarnation).
struct Prepare final : net::Payload {
  struct Entry {
    ObjectId object = 0;
    Instance from_instance = 1;
    Epoch epoch = 0;
  };
  Prepare(std::uint64_t rid, std::vector<Entry> e)
      : req_id(rid), entries(std::move(e)) {}
  std::uint64_t req_id;
  std::vector<Entry> entries;

  std::uint32_t kind() const override { return net::kKindM2Paxos + 5; }
  std::size_t wire_size() const override {
    return net::varint_len(kind()) + 8 + net::varint_len(entries.size()) +
           24 * entries.size();
  }
  const char* name() const override { return "M2.Prepare"; }
};

/// Phase-1b reply: for every covered instance the acceptor has voted in (or
/// knows decided), the vote and its epoch — the `decs` of Algorithm 4.
struct AckPrepare final : net::Payload {
  struct Vote {
    ObjectId object = 0;
    Instance instance = 0;
    Epoch accepted_epoch = 0;
    bool decided = false;
    CommandPtr cmd;
    /// Batched votes carry the whole slot value: a recovery that re-accepts
    /// the head without its tail would lose the tail members for good.
    CommandBatchPtr batch;

    /// object + instance + epoch u64s, decided u8
    static constexpr std::size_t kHeaderBytes = 25;

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

  std::uint32_t kind() const override { return net::kKindM2Paxos + 6; }
  std::size_t wire_size() const override;  // cached; call once built
  const char* name() const override { return "M2.AckPrepare"; }

 private:
  mutable std::size_t cached_size_ = SIZE_MAX;
};

/// Anti-entropy: ask a peer for decided slots this node is missing
/// (extension beyond the paper; see DESIGN.md §5a). Sent when a delivery
/// frontier has been stuck on an undecided slot for a sync period.
struct SyncRequest final : net::Payload {
  struct Entry {
    ObjectId object = 0;
    Instance from_instance = 1;
  };
  /// Inline capacity covers the default sync_batch (16), so probes built
  /// on the steady-state sync path never heap-allocate.
  using EntryList = core::SmallVec<Entry, 16>;
  explicit SyncRequest(EntryList e) : entries(std::move(e)) {}
  EntryList entries;

  std::uint32_t kind() const override { return net::kKindM2Paxos + 7; }
  std::size_t wire_size() const override {
    return net::varint_len(kind()) + net::varint_len(entries.size()) +
           16 * entries.size();
  }
  const char* name() const override { return "M2.SyncRequest"; }
};

/// Reply: the peer's retained decided slots at or above the requested
/// positions (served from its retention window).
struct SyncReply final : net::Payload {
  explicit SyncReply(SlotList s) : slots(std::move(s)) {}
  SlotList slots;

  std::uint32_t kind() const override { return net::kKindM2Paxos + 8; }
  std::size_t wire_size() const override;  // cached; payloads are immutable
  const char* name() const override { return "M2.SyncReply"; }

 private:
  mutable std::size_t cached_size_ = SIZE_MAX;
};

}  // namespace m2::m2p
