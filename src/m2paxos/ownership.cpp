#include "m2paxos/ownership.hpp"

#include <algorithm>

namespace m2::m2p {
namespace {

/// True iff `s` holds the slot value (c, batch): the same head and the
/// same batch members in order.
bool same_value(const Slot& s, const CommandPtr& c,
                const core::CommandBatchPtr& batch) {
  if (s.cmd == nullptr || s.cmd->id != c->id) return false;
  if (s.batch == nullptr || batch == nullptr) return s.batch == batch;
  return std::equal(
      s.batch->cmds.begin(), s.batch->cmds.end(), batch->cmds.begin(),
      batch->cmds.end(),
      [](const CommandPtr& a, const CommandPtr& b) { return a->id == b->id; });
}

}  // namespace

ObjectState& OwnershipTable::obj(ObjectId l) {
  ++lookups_;
  auto [it, inserted] = objects_.try_emplace(l);
  if (inserted) {
    it->second.id = l;
    if (default_owner_.valid()) it->second.owner = default_owner_.owner(l);
  }
  return it->second;
}

const ObjectState* OwnershipTable::find(ObjectId l) const {
  ++lookups_;
  auto it = objects_.find(l);
  return it == objects_.end() ? nullptr : &it->second;
}

OwnershipTable::Route OwnershipTable::route(NodeId self, const Command& c) {
  Route r;
  // Owner frequency count; object lists are tiny, a flat array is cheapest.
  core::SmallVec<std::pair<NodeId, int>, 8> counts;
  bool owns_all = self != kNoNode;
  bool unique = true;
  for (ObjectId l : c.objects) {
    const ObjectState& st = obj(l);  // the single lookup for this object

    if (st.owner != self || st.promised != st.owned_epoch) owns_all = false;

    if (st.owner == kNoNode) {
      unique = false;
    } else if (r.unique_owner == kNoNode) {
      r.unique_owner = st.owner;
    } else if (r.unique_owner != st.owner) {
      unique = false;
    }

    if (st.owner != kNoNode) {
      bool found = false;
      for (auto& [node, count] : counts) {
        if (node == st.owner) {
          ++count;
          found = true;
          break;
        }
      }
      if (!found) counts.emplace_back(st.owner, 1);
    }

    if (!decided_in_state(st, c)) r.undecided.push_back(l);
  }
  r.owns_all = owns_all;
  if (!unique) r.unique_owner = kNoNode;

  NodeId best = kNoNode;
  int best_count = 0;
  for (const auto& [node, count] : counts) {
    if (count > best_count || (count == best_count && node < best)) {
      best = node;
      best_count = count;
    }
  }
  r.plurality_owner = best;
  return r;
}

bool OwnershipTable::decided_in_state(const ObjectState& st,
                                      const Command& c) {
  // An un-delivered command can only be decided above the delivery
  // frontier: advancing the frontier past a slot requires delivering (or
  // having delivered) the command decided there. So the scan covers just
  // the undelivered suffix — pipeline-depth short — instead of the whole
  // retained log.
  const Instance from = std::max(st.log.base(), st.last_appended + 1);
  for (Instance in = from; in < st.log.end(); ++in) {
    const Slot* s = st.log.find(in);
    if (s == nullptr || !s->decided) continue;
    if (s->cmd->id == c.id) return true;
    if (s->batch != nullptr) {
      for (const CommandPtr& m : s->batch->cmds)
        if (m->id == c.id) return true;
    }
  }
  return false;
}

bool OwnershipTable::is_decided_on(const Command& c, ObjectId l) const {
  const ObjectState* st = find(l);
  return st != nullptr && decided_in_state(*st, c);
}

bool OwnershipTable::is_decided_everywhere(const Command& c) const {
  for (ObjectId l : c.objects)
    if (!is_decided_on(c, l)) return false;
  return true;
}

bool OwnershipTable::set_decided(ObjectState& st, Instance in,
                                 const CommandPtr& c,
                                 const core::CommandBatchPtr& batch,
                                 bool rebind) {
  if (in < st.log.base()) return false;  // truncated: decided and delivered
  Slot& slot = st.log.at_or_create(in);
  if (slot.decided) {
    const bool same_head = slot.cmd->id == c->id;
    assert((same_head || rebind) && "two commands decided in one slot");
    if (same_head || !rebind) return false;
  }
  slot.decided = true;
  if (!same_value(slot, c, batch)) {  // else keep the accepted handles
    slot.cmd = c;
    slot.batch = batch;
  }
  return true;
}

Instance OwnershipTable::first_undecided(ObjectId l) const {
  const ObjectState* st = find(l);
  if (st == nullptr) return 1;
  Instance in = std::max(st->undecided_hint, st->last_appended + 1);
  for (;;) {
    const Slot* s = st->log.find(in);
    if (s == nullptr || !s->decided) break;
    ++in;
  }
  // Cache: everything in (last_appended, in) is decided, and decisions
  // never retract, so later scans may start here.
  st->undecided_hint = in;
  return in;
}

}  // namespace m2::m2p
