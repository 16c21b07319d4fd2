#pragma once

#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/command.hpp"
#include "core/owner_map.hpp"
#include "net/payload.hpp"

namespace m2::m2p {

using core::Command;
using core::CommandPtr;
using core::Epoch;
using core::Instance;
using core::ObjectId;

/// Acceptor/learner state of one consensus instance ⟨l, in⟩: one value,
/// the vote until the slot is decided and the decision afterwards (a
/// decided vote always wins SELECT; DESIGN.md §5a). Commands are shared
/// immutable handles — the allocation an Accept or Decide carried.
struct Slot {
  Epoch accepted_epoch = 0;  // Rdec[l][in]
  CommandPtr cmd;            // Vdec[l][in]; Decided[l][in] once `decided`
  /// Batched slot values: the full batch behind the head `cmd` (null for
  /// single-command slots), so recovery votes and anti-entropy replies
  /// reproduce the whole slot value and delivery can unroll the members.
  core::CommandBatchPtr batch;
  bool decided = false;
};

/// Contiguous per-object slot log indexed by instance: a power-of-two ring
/// over [base, end). Replaces the old std::map<Instance, Slot> — lookups
/// are an index computation, appends amortized O(1), and frontier GC
/// (truncate_below) pops delivered slots off the bottom without touching
/// the rest. Instances between materialized slots hold default (empty)
/// Slot values, which all readers treat exactly like the map's absent
/// entries.
class SlotLog {
 public:
  /// Smallest retained instance. Slots below are truncated: decided,
  /// delivered, and more than the GC margin behind the frontier.
  Instance base() const { return base_; }
  /// One past the highest materialized instance.
  Instance end() const { return base_ + size_; }
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The slot at `in`, or nullptr when `in` is outside [base, end).
  Slot* find(Instance in) {
    if (in < base_ || in >= end()) return nullptr;
    return &ring_[index_of(in)];
  }
  const Slot* find(Instance in) const {
    if (in < base_ || in >= end()) return nullptr;
    return &ring_[index_of(in)];
  }

  /// The slot at `in`, materializing it (and any empty gap below it) if it
  /// is above the top. `in` must not be below base — truncated instances
  /// are gone for good; callers guard with find()/base().
  Slot& at_or_create(Instance in) {
    assert(in >= base_ && "slot below the GC horizon");
    if (in >= end()) {
      const std::size_t need = static_cast<std::size_t>(in - base_) + 1;
      if (need > ring_.size()) grow(need);
      size_ = need;
    }
    return ring_[index_of(in)];
  }

  /// Drops every slot below `keep_from` (frontier GC).
  void truncate_below(Instance keep_from) {
    while (base_ < keep_from && size_ > 0) {
      ring_[head_] = Slot{};  // release the command handles
      head_ = (head_ + 1) & (ring_.size() - 1);
      ++base_;
      --size_;
    }
    if (size_ == 0 && base_ < keep_from) base_ = keep_from;
  }

 private:
  std::size_t index_of(Instance in) const {
    return (head_ + static_cast<std::size_t>(in - base_)) &
           (ring_.size() - 1);
  }
  void grow(std::size_t need) {
    std::size_t cap = ring_.empty() ? 8 : ring_.size();
    while (cap < need) cap *= 2;
    std::vector<Slot> next(cap);
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    ring_ = std::move(next);
    head_ = 0;
  }

  std::vector<Slot> ring_;  // power-of-two capacity
  std::size_t head_ = 0;    // ring index of the slot at base_
  Instance base_ = 1;       // instances are 1-based
  std::size_t size_ = 0;
};

/// Full per-object state: one Multi-Paxos incarnation.
struct ObjectState {
  /// The object this state belongs to (set when the table creates the
  /// entry). Lets hot paths queue ObjectState pointers — entries are
  /// node-stable in the table — without a reverse hash lookup.
  ObjectId id = 0;

  /// Highest epoch this node promised/observed for the object. A promise
  /// covers the whole instance suffix from `promised_from` (Multi-Paxos
  /// style), which is what makes pipelined fast-path accepts safe.
  Epoch promised = 0;
  Instance promised_from = 1;

  /// Current owner as known locally (the paper's Owners[l]); kNoNode until
  /// the first accept/decide is observed.
  NodeId owner = kNoNode;

  /// Queued as a root of the next crossing check: its frontier moved to a
  /// decided command that waits on other objects (keeps each object on
  /// M2PaxosReplica's root list at most once).
  bool crossing_root = false;

  /// Epoch at which this node acquired ownership; only meaningful when
  /// owner == self. Ownership is valid only while promised == owned_epoch:
  /// a higher promise means another node ran a Prepare and this node must
  /// not issue further accepts at that epoch (it never prepared it).
  Epoch owned_epoch = 0;

  /// Owner-side cursor: next instance this node would assign, valid while
  /// this node is the owner. Reset on ownership acquisition.
  Instance next_slot = 1;

  /// Delivery frontier: highest instance whose command was appended to the
  /// local C-struct (the paper's LastDecided[l]).
  Instance last_appended = 0;

  /// First instance above the frontier not yet known decided — the O(1)
  /// first_undecided cursor. Monotone (decisions never retract), so it is
  /// only ever advanced; mutable because advancing it during a const scan
  /// is a pure cache update.
  mutable Instance undecided_hint = 1;

  SlotLog log;
};

/// Ownership/acceptor table of one M²Paxos node: the state of every object
/// this node has heard about, with the operations the four phases need.
class OwnershipTable {
 public:
  /// Routing decision for one command, computed in a single pass over its
  /// object list (one table lookup per object).
  struct Route {
    /// IsOwner(self, c.LS): self owns every object at a current epoch.
    bool owns_all = false;
    /// GetOwners(c.LS): the identical owner of all objects, else kNoNode.
    NodeId unique_owner = kNoNode;
    /// Owner holding the most objects (ties: lowest node id); kNoNode when
    /// no object has a known owner.
    NodeId plurality_owner = kNoNode;
    /// Objects on which the command is not (yet) decided.
    core::ObjectList undecided;
  };

  /// Installs the static partition map consulted when an object is first
  /// seen: new ObjectState entries start owned by `map.owner(l)` at epoch
  /// 0. Must be installed identically on every node (it models an agreed
  /// initial ownership assignment, the paper's steady-state setting).
  void set_default_owner(core::OwnerMap map) { default_owner_ = map; }

  /// State of object `l`, created (with the default owner) if unseen.
  ObjectState& obj(ObjectId l);
  const ObjectState* find(ObjectId l) const;

  /// One-pass ownership/decision routing for `c` (see Route). Creates
  /// table entries for unseen objects, like the individual queries did.
  Route route(NodeId self, const Command& c);

  /// IsOwner(self, c.LS) — see Route::owns_all.
  bool owns_all(NodeId self, const Command& c) {
    return route(self, c).owns_all;
  }
  /// GetOwners(c.LS) — see Route::unique_owner.
  NodeId unique_owner(const Command& c) {
    return route(kNoNode, c).unique_owner;
  }
  /// See Route::plurality_owner.
  NodeId plurality_owner(const Command& c) {
    return route(kNoNode, c).plurality_owner;
  }

  /// True iff `c` is decided at some instance of object `l`. Scans only
  /// the undelivered suffix: an un-delivered command can only be decided
  /// above the delivery frontier (delivery/skip is what advances it).
  bool is_decided_on(const Command& c, ObjectId l) const;

  /// True iff `c` is decided on all objects it accesses.
  bool is_decided_everywhere(const Command& c) const;

  /// The one writer of decisions: records (c, batch) as decided at `in`;
  /// true if new. Decisions below the GC horizon are stale duplicates and
  /// ignored. A matching accepted value keeps its handles (one command
  /// block per slot). A conflicting decision is asserted against, unless
  /// `rebind` (the broken test_unsafe_epochs build) overwrites it.
  static bool set_decided(ObjectState& st, Instance in, const CommandPtr& c,
                          const core::CommandBatchPtr& batch = nullptr,
                          bool rebind = false);

  /// First instance of `l` with no decided command, starting the scan at
  /// the delivery frontier (instances <= last_appended are all decided).
  /// Amortized O(1) via the per-object undecided cursor.
  Instance first_undecided(ObjectId l) const;

  std::size_t n_objects_known() const { return objects_.size(); }

  /// Table lookups performed so far (one per objects_ hash probe) —
  /// observability for the routing micro tests.
  std::uint64_t lookup_count() const { return lookups_; }

 private:
  static bool decided_in_state(const ObjectState& st, const Command& c);

  std::unordered_map<ObjectId, ObjectState> objects_;
  core::OwnerMap default_owner_;
  mutable std::uint64_t lookups_ = 0;
};

}  // namespace m2::m2p
