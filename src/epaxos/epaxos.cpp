#include "epaxos/epaxos.hpp"

#include <algorithm>
#include <cassert>

namespace m2::ep {

EPaxosReplica::EPaxosReplica(NodeId id, const core::ClusterConfig& cfg,
                             core::Context& ctx)
    : core::Replica(id, cfg, ctx),
      pruned_below_(static_cast<std::size_t>(cfg.n_nodes), 1) {}

void EPaxosReplica::prune_executed() {
  for (NodeId r = 0; r < static_cast<NodeId>(cfg_.n_nodes); ++r) {
    for (;;) {
      auto it = instances_.find(make_inst(r, pruned_below_[r]));
      if (it == instances_.end() || it->second.status != Status::kExecuted)
        break;
      instances_.erase(it);
      ++pruned_below_[r];
    }
  }
}

void EPaxosReplica::on_crash() { crashed_ = true; }
void EPaxosReplica::on_recover() { crashed_ = false; }

core::RxCost EPaxosReplica::rx_cost(const net::Payload& payload) const {
  const core::Time parallel = core::rx_cost(payload.wire_size());
  // Interference-table updates and dependency-graph execution touch state
  // shared by all worker threads; EPaxos pays a serialization point per
  // message plus work proportional to the dependency list (paper §VI-A:
  // "meta-data are shared between local threads, thus introducing
  // contention that can lead to poor CPU utilization").
  const std::uint32_t k = payload.kind();
  core::Time serial = 0;
  std::size_t deps = 0;
  switch (k) {
    case net::kKindEPaxos + 1:  // interference-table update
      deps = static_cast<const PreAccept&>(payload).attrs.deps.size();
      serial = core::kSerialFixed;
      break;
    case net::kKindEPaxos + 2:  // leader-side attribute merge
      deps = static_cast<const PreAcceptReply&>(payload).attrs.deps.size();
      serial = core::kSerialFixed / 2;
      break;
    case net::kKindEPaxos + 5:  // dependency-graph execution
      deps = static_cast<const CommitMsg&>(payload).attrs.deps.size();
      serial = core::kSerialFixed;
      break;
    default:
      break;
  }
  serial += static_cast<core::Time>(60 * deps);
  return core::RxCost{serial, parallel};
}

std::vector<NodeId> EPaxosReplica::fast_quorum_peers() const {
  // Fast quorum = this leader plus the next fq-1 replicas on the ring.
  const int fq = cfg_.epaxos_fast_quorum();
  std::vector<NodeId> peers;
  for (int i = 1; i < fq; ++i)
    peers.push_back(static_cast<NodeId>((id_ + i) % cfg_.n_nodes));
  return peers;
}

std::vector<InstRef>& EPaxosReplica::interf_row(ObjectId l) {
  auto [it, inserted] = latest_interf_.try_emplace(l);
  if (inserted) it->second.assign(static_cast<std::size_t>(cfg_.n_nodes), 0);
  return it->second;
}

void EPaxosReplica::note_access(ObjectId l, InstRef r) {
  InstRef& cell = interf_row(l)[inst_replica(r)];
  // A replica's own instances are totally ordered by slot, so keeping the
  // max is lossless within one cell.
  cell = std::max(cell, r);
}

Attrs EPaxosReplica::compute_attrs(const Command& c, InstRef r) {
  Attrs attrs;
  for (ObjectId l : c.objects) {
    for (const InstRef d : interf_row(l)) {
      if (d == 0 || d == r) continue;
      if (std::find(attrs.deps.begin(), attrs.deps.end(), d) !=
          attrs.deps.end())
        continue;
      attrs.deps.push_back(d);
      const auto dit = instances_.find(d);
      if (dit != instances_.end())
        attrs.seq = std::max(attrs.seq, dit->second.attrs.seq + 1);
    }
    note_access(l, r);
  }
  std::sort(attrs.deps.begin(), attrs.deps.end());
  return attrs;
}

bool EPaxosReplica::extend_attrs(const Command& c, InstRef r, Attrs& attrs) {
  bool changed = false;
  for (ObjectId l : c.objects) {
    for (const InstRef d : interf_row(l)) {
      if (d == 0 || d == r) continue;
      if (std::find(attrs.deps.begin(), attrs.deps.end(), d) ==
          attrs.deps.end()) {
        attrs.deps.push_back(d);
        changed = true;
      }
      const auto dit = instances_.find(d);
      if (dit != instances_.end() && dit->second.attrs.seq + 1 > attrs.seq) {
        attrs.seq = dit->second.attrs.seq + 1;
        changed = true;
      }
    }
    note_access(l, r);
  }
  if (changed) std::sort(attrs.deps.begin(), attrs.deps.end());
  return changed;
}

// --------------------------------------------------------------------
// Command leader
// --------------------------------------------------------------------

void EPaxosReplica::propose(const Command& c) {
  if (crashed_) return;
  const InstRef r = make_inst(id_, next_slot_++);
  InstState& st = inst(r);
  st.cmd = c;
  st.attrs = compute_attrs(c, r);
  st.status = Status::kPreAccepted;
  st.merged = st.attrs;
  st.proposed_at = ctx_.now();

  const auto peers = fast_quorum_peers();
  if (peers.empty()) {
    // Single-node cluster: commit immediately.
    commit(r, st.cmd, st.attrs);
    return;
  }
  auto msg = net::make_payload<PreAccept>(r, c, st.attrs);
  m_inc(stats::Counter::kDepBytesSent,
        8 * st.attrs.deps.size() * peers.size());
  for (NodeId p : peers) ctx_.send(p, msg);
}

void EPaxosReplica::handle_preaccept(NodeId from, const PreAccept& msg) {
  InstState& st = inst(msg.inst);
  if (st.status >= Status::kAccepted) return;  // stale
  st.cmd = msg.cmd;
  st.attrs = msg.attrs;
  const bool changed = extend_attrs(msg.cmd, msg.inst, st.attrs);
  st.status = Status::kPreAccepted;

  auto reply = std::make_shared<PreAcceptReply>();
  reply->inst = msg.inst;
  reply->acceptor = id_;
  reply->changed = changed;
  reply->attrs = st.attrs;
  m_inc(stats::Counter::kDepBytesSent, 8 * st.attrs.deps.size());
  ctx_.send(from, std::move(reply));
}

void EPaxosReplica::handle_preaccept_reply(const PreAcceptReply& msg) {
  auto it = instances_.find(msg.inst);
  if (it == instances_.end()) return;
  InstState& st = it->second;
  if (st.status != Status::kPreAccepted) return;  // already past this phase

  if (std::find(st.preaccept_repliers.begin(), st.preaccept_repliers.end(),
                msg.acceptor) != st.preaccept_repliers.end())
    return;  // duplicate delivery
  st.preaccept_repliers.push_back(msg.acceptor);
  if (msg.changed) st.all_unchanged = false;
  // Merge attributes for the potential slow path.
  st.merged.seq = std::max(st.merged.seq, msg.attrs.seq);
  for (InstRef d : msg.attrs.deps)
    if (std::find(st.merged.deps.begin(), st.merged.deps.end(), d) ==
        st.merged.deps.end())
      st.merged.deps.push_back(d);

  const int needed = cfg_.epaxos_fast_quorum() - 1;  // replies beside self
  if (static_cast<int>(st.preaccept_repliers.size()) < needed) return;

  if (st.all_unchanged) {
    // Fast path: commit after two communication delays. Copy the command
    // and attributes out first: commit() may execute the instance and
    // prune it from instances_, invalidating st.
    const core::Command cmd = st.cmd;
    const Attrs attrs = st.attrs;
    m_inc(stats::Counter::kFastPathRounds);
    commit(msg.inst, cmd, attrs);
    ctx_.broadcast(net::make_payload<CommitMsg>(msg.inst, cmd, attrs), false);
  } else {
    // Slow path: Paxos-Accept with the merged attributes.
    std::sort(st.merged.deps.begin(), st.merged.deps.end());
    st.status = Status::kAccepted;
    st.attrs = st.merged;
    st.path = stats::Path::kSlow;
    st.accept_repliers.clear();
    m_inc(stats::Counter::kDepBytesSent,
          8 * st.attrs.deps.size() * static_cast<std::size_t>(cfg_.n_nodes - 1));
    ctx_.broadcast(net::make_payload<AcceptMsg>(msg.inst, st.cmd, st.attrs),
                   false);
  }
}

void EPaxosReplica::handle_accept(NodeId from, const AcceptMsg& msg) {
  InstState& st = inst(msg.inst);
  if (st.status >= Status::kCommitted) return;
  st.cmd = msg.cmd;
  st.attrs = msg.attrs;
  st.status = Status::kAccepted;
  // Keep the interference table current (no attribute changes here: the
  // slow-path attributes are final per the Paxos-Accept rule).
  for (ObjectId l : msg.cmd.objects) note_access(l, msg.inst);

  auto reply = std::make_shared<AcceptReply>();
  reply->inst = msg.inst;
  reply->acceptor = id_;
  ctx_.send(from, std::move(reply));
}

void EPaxosReplica::handle_accept_reply(const AcceptReply& msg) {
  auto it = instances_.find(msg.inst);
  if (it == instances_.end()) return;
  InstState& st = it->second;
  if (st.status != Status::kAccepted) return;
  if (std::find(st.accept_repliers.begin(), st.accept_repliers.end(),
                msg.acceptor) != st.accept_repliers.end())
    return;  // duplicate delivery
  st.accept_repliers.push_back(msg.acceptor);
  if (static_cast<int>(st.accept_repliers.size()) < cfg_.classic_quorum() - 1)
    return;

  // Copy out before commit(): it may execute and prune this instance,
  // invalidating st (same hazard as the fast path above).
  const core::Command cmd = st.cmd;
  const Attrs attrs = st.attrs;
  m_inc(stats::Counter::kSlowCommits);
  commit(msg.inst, cmd, attrs);
  ctx_.broadcast(net::make_payload<CommitMsg>(msg.inst, cmd, attrs), false);
}

// --------------------------------------------------------------------
// Commit + execution
// --------------------------------------------------------------------

void EPaxosReplica::handle_commit(const CommitMsg& msg) {
  commit(msg.inst, msg.cmd, msg.attrs);
}

void EPaxosReplica::commit(InstRef r, const Command& cmd, Attrs attrs) {
  InstState& st = inst(r);
  if (st.status >= Status::kCommitted) return;
  st.cmd = cmd;
  st.attrs = std::move(attrs);
  st.status = Status::kCommitted;
  // Instance space is per command leader: slot key is ⟨leader, instance⟩.
  m_inc(stats::Counter::kDecidedSlots);
  m_record(stats::Histo::kSlotLogDepth,
           static_cast<std::int64_t>(instances_.size()));
  ctx_.decided(inst_replica(r), inst_slot(r), cmd);
  // Commit latency is measured at the command leader (EPaxos semantics).
  if (inst_replica(r) == id_ && !cmd.noop) {
    m_span_commit(st.path, st.proposed_at);
    ctx_.committed(cmd);
  }
  for (ObjectId l : cmd.objects) note_access(l, r);
  try_execute(r);

  // Wake instances whose execution was blocked on this commit.
  auto wit = exec_waiters_.find(r);
  if (wit != exec_waiters_.end()) {
    const std::vector<InstRef> waiters = std::move(wit->second);
    exec_waiters_.erase(wit);
    for (InstRef w : waiters) try_execute(w);
  }
}

void EPaxosReplica::try_execute(InstRef r) {
  static const std::vector<InstRef> kEmpty;
  ExecGraph g;
  g.deps_of = [this](InstRef x) -> const std::vector<InstRef>& {
    auto it = instances_.find(x);
    return it == instances_.end() ? kEmpty : it->second.attrs.deps;
  };
  g.is_committed = [this](InstRef x) {
    if (is_pruned(x)) return true;
    auto it = instances_.find(x);
    return it != instances_.end() && it->second.status >= Status::kCommitted;
  };
  g.is_executed = [this](InstRef x) {
    if (is_pruned(x)) return true;  // GC only removes executed instances
    auto it = instances_.find(x);
    return it != instances_.end() && it->second.status == Status::kExecuted;
  };
  g.seq_of = [this](InstRef x) {
    auto it = instances_.find(x);
    return it == instances_.end() ? std::uint64_t{0} : it->second.attrs.seq;
  };

  ExecResult plan = plan_execution(g, r);
  if (plan.blocked) {
    m_inc(stats::Counter::kExecBlocked);
    auto& waiters = exec_waiters_[plan.blocked_on];
    if (std::find(waiters.begin(), waiters.end(), r) == waiters.end())
      waiters.push_back(r);
    return;
  }
  for (InstRef x : plan.to_execute) {
    InstState& st = inst(x);
    if (st.status == Status::kExecuted) continue;
    st.status = Status::kExecuted;
    ++delivered_count_;
    m_inc(stats::Counter::kDelivered);
    m_span_deliver(st.path, st.proposed_at);
    ctx_.deliver(st.cmd);
  }
  if (!plan.to_execute.empty() && (delivered_count_ & 0x3ff) == 0)
    prune_executed();
}

// --------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------

void EPaxosReplica::on_message(NodeId from, const net::Payload& payload) {
  if (crashed_) return;
  switch (payload.kind()) {
    case net::kKindEPaxos + 1:
      handle_preaccept(from, static_cast<const PreAccept&>(payload));
      break;
    case net::kKindEPaxos + 2:
      handle_preaccept_reply(static_cast<const PreAcceptReply&>(payload));
      break;
    case net::kKindEPaxos + 3:
      handle_accept(from, static_cast<const AcceptMsg&>(payload));
      break;
    case net::kKindEPaxos + 4:
      handle_accept_reply(static_cast<const AcceptReply&>(payload));
      break;
    case net::kKindEPaxos + 5:
      handle_commit(static_cast<const CommitMsg&>(payload));
      break;
    default:
      break;
  }
}

}  // namespace m2::ep
