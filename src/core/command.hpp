#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/small_vec.hpp"
#include "net/payload.hpp"

namespace m2::core {

/// Object identifiers — the set LS of the paper. Commands declare the
/// objects they access; two commands conflict iff their object sets
/// intersect (the paper's over-approximated interference set, §I).
using ObjectId = std::uint64_t;

/// Per-object consensus position ("instance" in). 1-based: position 0 means
/// "nothing decided yet".
using Instance = std::uint64_t;

/// Epoch / ballot number for one object's Multi-Paxos incarnation.
using Epoch = std::uint64_t;

/// Globally unique command identifier: proposer id in the top 20 bits,
/// per-proposer sequence number below.
struct CommandId {
  std::uint64_t value = 0;

  static CommandId make(NodeId proposer, std::uint64_t seq) {
    return CommandId{(static_cast<std::uint64_t>(proposer) << 44) | seq};
  }
  NodeId proposer() const { return static_cast<NodeId>(value >> 44); }
  std::uint64_t seq() const { return value & ((1ULL << 44) - 1); }
  bool valid() const { return value != 0; }

  friend bool operator==(CommandId a, CommandId b) { return a.value == b.value; }
  friend bool operator!=(CommandId a, CommandId b) { return a.value != b.value; }
  friend bool operator<(CommandId a, CommandId b) { return a.value < b.value; }
};

/// Object list of a command. Inline capacity 4: simple commands touch 1-2
/// objects and TPC-C transactions a handful, so the list almost never
/// allocates and command copies stay a flat memcpy-sized move.
using ObjectList = SmallVec<ObjectId, 4>;

/// A command submitted to the consensus layer.
///
/// As in the paper (§III), the semantics of a command is abstracted to the
/// set of objects it accesses plus an opaque payload; the consensus layer
/// never interprets the payload.
struct Command {
  CommandId id;
  ObjectList objects;              // c.LS, kept sorted and unique
  std::uint32_t payload_bytes = 16;  // paper: 16-byte payload
  /// No-op commands are produced by recovery to fill undecided holes; they
  /// are delivered (to advance frontiers) but invisible to the application.
  bool noop = false;

  /// Optional application payload (serialized operation). Shared because a
  /// command is copied along the replication path; the consensus layer
  /// never inspects it. When set, payload_bytes tracks its size.
  std::shared_ptr<const std::vector<std::uint8_t>> body;

  /// Attaches a serialized operation and updates the wire-size model.
  void set_body(std::vector<std::uint8_t> bytes) {
    payload_bytes = static_cast<std::uint32_t>(bytes.size());
    body = std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
  }

  Command() = default;
  Command(CommandId cid, ObjectList ls, std::uint32_t payload = 16);

  NodeId proposer() const { return id.proposer(); }

  /// True iff the two commands access at least one common object.
  bool conflicts_with(const Command& other) const;

  /// Exact serialized size: net::serde's command codec, counted (the
  /// payload is opaque to consensus, but without an attached body it still
  /// travels as payload_bytes of padding).
  std::size_t wire_size() const;

  std::string to_string() const;
};

/// Shared immutable command handle: one allocation carries a command along
/// the whole replication path (Accept -> acceptor slots -> Decide -> slot
/// log) instead of a deep copy per hop. Commands are never mutated after
/// proposal, so sharing is safe.
using CommandPtr = std::shared_ptr<const Command>;

/// Ordered multi-command batch decided as ONE consensus slot value: the
/// proposer-side accumulators (M²Paxos owners, the Multi-Paxos leader)
/// pack up to kCapacity commands into a single accept round, amortizing
/// quorum bookkeeping, slot-log writes, and frontier scans across the
/// batch. Members are delivered in batch order on every replica.
///
/// Inline capacity covers Config::Batching::kMaxBatchCommands exactly: a
/// batch must never spill its SmallVec (spills go through raw operator
/// new, which would break the zero-steady-state-allocation discipline;
/// the batch block itself is pooled via pool_make_shared).
struct CommandBatch {
  static constexpr std::size_t kCapacity = 32;
  SmallVec<CommandPtr, kCapacity> cmds;
};

/// Shared immutable batch handle; null wherever a slot holds a plain
/// single-command value. Invariant: a SlotValue carrying a batch has
/// cmd == batch->cmds.front().
using CommandBatchPtr = std::shared_ptr<const CommandBatch>;

}  // namespace m2::core

template <>
struct std::hash<m2::core::CommandId> {
  std::size_t operator()(m2::core::CommandId id) const noexcept {
    // splitmix-style mix: ids are sequential per proposer.
    std::uint64_t z = id.value + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};
