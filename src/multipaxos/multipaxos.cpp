#include "multipaxos/multipaxos.hpp"

#include "sim/rng.hpp"

#include <algorithm>
#include <cassert>

namespace m2::mp {

namespace {

/// Smallest ballot > `above` that is led by `node` (ballot mod N == node).
Ballot next_ballot_for(NodeId node, Ballot above, int n_nodes) {
  const Ballot n = static_cast<Ballot>(n_nodes);
  Ballot b = (above / n + 1) * n + node;
  while (b <= above) b += n;
  return b;
}

/// Calls `f` on each member of a slot value in batch order: every member
/// of the batch when there is one (its head first), else the head alone.
template <typename F>
void for_each_member(const CommandPtr& head, const CommandBatchPtr& batch,
                     F&& f) {
  if (batch == nullptr) {
    f(*head);
    return;
  }
  for (const CommandPtr& c : batch->cmds) f(*c);
}

/// Whether `id` is a member of the slot value.
bool slot_holds(const CommandPtr& head, const CommandBatchPtr& batch,
                CommandId id) {
  bool held = false;
  for_each_member(head, batch, [&](const Command& c) { held |= c.id == id; });
  return held;
}

}  // namespace

MultiPaxosReplica::MultiPaxosReplica(NodeId id, const core::ClusterConfig& cfg,
                                     core::Context& ctx)
    : core::Replica(id, cfg, ctx), bcfg_(cfg.batching.normalized()),
      fd_(id, cfg, ctx) {
  fd_.set_on_leader_change([this](NodeId new_leader) {
    if (crashed_) return;
    if (new_leader == id_ && leader_ != id_) {
      start_leader_change();
    } else if (new_leader != leader_ && fd_.is_suspected(leader_)) {
      leader_ = new_leader;
    }
  });
}

void MultiPaxosReplica::start(bool enable_failure_detector) {
  fd_enabled_ = enable_failure_detector;
  if (fd_enabled_) fd_.start();
}

void MultiPaxosReplica::on_crash() {
  crashed_ = true;
  fd_.stop();
  for (auto& [id, pc] : pending_) ctx_.cancel_timer(pc.timer);
  pending_.clear();
  preparing_ = false;
  batch_buf_.clear();
  batch_queued_.clear();
  batch_bytes_ = 0;
  batch_inflight_ = 0;
  my_batched_slots_.clear();
  ctx_.cancel_timer(batch_timer_);
  batch_timer_ = core::kInvalidTimer;
}

void MultiPaxosReplica::on_recover() {
  crashed_ = false;
  // Acceptor/learner state (promised_, slots_, delivered log) is durable.
  // Only restart the detector if it was running before the crash: a lone
  // restarted detector in an otherwise detector-less cluster hears no
  // heartbeats, suspects everyone, and self-elects.
  if (fd_enabled_) fd_.start();
}

core::RxCost MultiPaxosReplica::rx_cost(const net::Payload& payload) const {
  const core::Time parallel = core::rx_cost(payload.wire_size());
  // The leader's ordering step (assigning log slots to proposals) is a
  // single thread. Phase-2 ack counting is per-slot and parallelizes, but
  // every message of every command still lands on the one leader — which
  // is the "single leader saturating its computational resources" of the
  // paper (§VI-A, Fig. 1 and Fig. 4).
  if (leader_ == id_ && payload.kind() == net::kKindMultiPaxos + 1) {
    return core::RxCost{core::kSerialFixed, parallel};
  }
  return core::RxCost{0, parallel};
}

// --------------------------------------------------------------------
// Proposer
// --------------------------------------------------------------------

void MultiPaxosReplica::propose(const Command& c) {
  if (crashed_) return;
  if (delivered_ids_.count(c.id) > 0) return;
  auto [it, inserted] = pending_.try_emplace(c.id);
  if (!inserted) return;
  it->second.cmd = c;
  it->second.proposed_at = ctx_.now();
  arm_retry(c);
  handle_propose(c);
}

void MultiPaxosReplica::arm_retry(const Command& c) {
  auto it = pending_.find(c.id);
  if (it == pending_.end()) return;
  ctx_.cancel_timer(it->second.timer);
  const CommandId id = c.id;
  // Exponential backoff with jitter: retransmissions on a congested leader
  // must not amplify the congestion.
  const int shift = std::min(it->second.attempts, 3);
  const core::Time base = cfg_.forward_timeout << shift;
  const core::Time delay =
      base / 2 + static_cast<core::Time>(
                     ctx_.rng().uniform(static_cast<std::uint64_t>(base)));
  it->second.timer = ctx_.set_timer(delay, [this, id] {
    auto pit = pending_.find(id);
    if (pit == pending_.end()) return;
    m_inc(stats::Counter::kRetries);
    ++pit->second.attempts;
    if (fd_.is_suspected(leader_)) leader_ = fd_.leader();
    arm_retry(pit->second.cmd);
    handle_propose(pit->second.cmd);
  });
}

void MultiPaxosReplica::handle_propose(const Command& c) {
  // Note: already-delivered commands still go through lead(), which
  // replays their Commit — the retry means the proposer's copy was lost.
  if (leader_ == id_ && !preparing_) {
    lead(c);
  } else if (leader_ != id_) {
    m_inc(stats::Counter::kForwarded);
    if (auto pit = pending_.find(c.id); pit != pending_.end())
      pit->second.path = stats::Path::kForwarded;
    ctx_.send(leader_, net::make_payload<ClientPropose>(c));
  }
  // If we are mid-prepare, the proposer-side retry timer re-submits later.
}

// --------------------------------------------------------------------
// Leader
// --------------------------------------------------------------------

void MultiPaxosReplica::lead(const Command& c) {
  // Dedup and retransmission: a re-proposed command that already occupies a
  // slot is re-driven (lost Accepts/Commits are retransmitted) rather than
  // assigned a second slot.
  if (delivered_ids_.count(c.id) > 0) {
    // Already delivered here; the proposer retried, so its Commit must
    // have been lost — replay it (the whole slot value for batched slots).
    auto rit = recent_commits_.find(c.id);
    if (rit != recent_commits_.end()) {
      m_inc(stats::Counter::kRetransmissions);
      ctx_.broadcast(
          net::make_payload<Commit>(rit->second.slot, rit->second.head,
                                    rit->second.batch),
          false);
    }
    return;
  }
  auto ait = assigned_.find(c.id);
  if (ait != assigned_.end()) {
    auto sit = slots_.find(ait->second);
    if (sit != slots_.end()) {
      const SlotState& st = sit->second;
      if (st.committed && slot_holds(st.cmd, st.batch, c.id)) {
        m_inc(stats::Counter::kRetransmissions);
        ctx_.broadcast(
            net::make_payload<Commit>(sit->first, st.cmd, st.batch), false);
        return;
      }
      if (st.cmd && st.accepted_ballot == ballot_ &&
          slot_holds(st.cmd, st.batch, c.id)) {
        m_inc(stats::Counter::kRetransmissions);
        ctx_.broadcast(net::make_payload<Accept>(ballot_, sit->first, st.cmd,
                                                 st.batch),
                       true);
        return;
      }
    }
    assigned_.erase(ait);  // stale (delivered/pruned or lost to a new ballot)
    if (delivered_ids_.count(c.id) > 0) return;
  }
  if (bcfg_.enabled && !c.noop) {
    enqueue_batch(c);
    return;
  }
  const std::uint64_t slot = next_slot_++;
  assigned_.emplace(c.id, slot);
  m_inc(stats::Counter::kSlotsLed);
  ctx_.broadcast(net::make_payload<Accept>(ballot_, slot, c), true);
}

void MultiPaxosReplica::enqueue_batch(const Command& c) {
  if (batch_queued_.count(c.id) > 0) return;  // retry while still queued
  batch_queued_.insert(c.id);
  batch_buf_.push_back(c);
  batch_bytes_ += c.wire_size();
  if (batch_buf_.size() >= bcfg_.batch_max_commands ||
      batch_bytes_ >= bcfg_.batch_max_bytes) {
    m_inc(batch_buf_.size() >= bcfg_.batch_max_commands
              ? stats::Counter::kBatchFlushFull
              : stats::Counter::kBatchFlushBytes);
    flush_batch(/*force=*/true);
  } else {
    arm_batch_window();
  }
}

void MultiPaxosReplica::arm_batch_window() {
  if (batch_timer_ != core::kInvalidTimer) return;
  batch_timer_ = ctx_.set_timer(bcfg_.batch_window, [this] {
    batch_timer_ = core::kInvalidTimer;
    // Not counted when the expiry sends nothing: the pipeline is full, or
    // a full-batch flush already emptied the buffer this window was armed
    // for.
    if (flush_batch(/*force=*/true)) m_inc(stats::Counter::kBatchFlushWindow);
  });
}

bool MultiPaxosReplica::flush_batch(bool force) {
  if (leader_ != id_ || preparing_) {
    // Leadership moved with commands still queued: drop them — every
    // member's proposer retry re-forwards it to the current leader.
    for (const auto& c : batch_buf_) batch_queued_.erase(c.id);
    batch_buf_.clear();
    batch_bytes_ = 0;
    return false;
  }
  bool sent = false;
  while (!batch_buf_.empty() && batch_inflight_ < bcfg_.pipeline_depth &&
         (force || batch_buf_.size() >= bcfg_.batch_max_commands ||
          batch_bytes_ >= bcfg_.batch_max_bytes)) {
    const std::size_t take =
        std::min(batch_buf_.size(), bcfg_.batch_max_commands);
    const std::uint64_t slot = next_slot_++;
    auto batch = std::make_shared<core::CommandBatch>();
    for (std::size_t i = 0; i < take; ++i) {
      Command& c = batch_buf_.front();
      batch_queued_.erase(c.id);
      assigned_.emplace(c.id, slot);
      batch_bytes_ -= c.wire_size();
      batch->cmds.push_back(std::make_shared<const Command>(std::move(c)));
      batch_buf_.pop_front();
    }
    CommandPtr head = batch->cmds.front();
    m_inc(stats::Counter::kSlotsLed);
    m_inc(stats::Counter::kBatchedRounds);
    m_inc(stats::Counter::kBatchedCommands, take);
    m_record(stats::Histo::kBatchOccupancy, static_cast<std::int64_t>(take));
    my_batched_slots_.insert(slot);
    ++batch_inflight_;
    // A one-command flush is a plain slot value, as on the wire.
    ctx_.broadcast(
        net::make_payload<Accept>(ballot_, slot, std::move(head),
                                  take > 1 ? std::move(batch) : nullptr),
        true);
    sent = true;
  }
  // Pipeline full (or partial batch held back): the window timer closes
  // the remainder; commits re-enter here as in-flight slots settle.
  if (!batch_buf_.empty()) arm_batch_window();
  return sent;
}

void MultiPaxosReplica::handle_accepted(const Accepted& msg) {
  if (leader_ != id_ || msg.ballot != ballot_ || !msg.ack) return;
  SlotState& st = slots_[msg.slot];
  if (st.committed) return;
  if (std::find(st.ackers.begin(), st.ackers.end(), msg.acceptor) !=
      st.ackers.end())
    return;  // duplicate ack from a retransmission
  st.ackers.push_back(msg.acceptor);
  if (static_cast<int>(st.ackers.size()) < cfg_.classic_quorum()) return;
  if (!st.cmd) return;  // quorum acks but our own accept not processed yet
  CommandPtr cmd = st.cmd;
  CommandBatchPtr batch = st.batch;
  commit_slot(msg.slot, cmd, batch);
  ctx_.broadcast(
      net::make_payload<Commit>(msg.slot, std::move(cmd), std::move(batch)),
      false);
}

// --------------------------------------------------------------------
// Acceptor
// --------------------------------------------------------------------

void MultiPaxosReplica::handle_accept(NodeId from, const Accept& msg) {
  auto reply = std::make_shared<Accepted>();
  reply->ballot = msg.ballot;
  reply->slot = msg.slot;
  reply->acceptor = id_;
  if (msg.ballot >= promised_) {
    promised_ = msg.ballot;
    leader_ = static_cast<NodeId>(msg.ballot % cfg_.n_nodes);
    SlotState& st = slots_[msg.slot];
    if (!st.committed && msg.ballot >= st.accepted_ballot) {
      st.accepted_ballot = msg.ballot;
      st.cmd = msg.cmd;
      st.batch = msg.batch;
    }
    reply->ack = true;
  } else {
    reply->ack = false;
  }
  ctx_.send(from, std::move(reply));
}

void MultiPaxosReplica::handle_prepare(NodeId from, const Prepare& msg) {
  auto reply = std::make_shared<Promise>();
  reply->ballot = msg.ballot;
  reply->acceptor = id_;
  reply->first_undelivered = last_delivered_ + 1;
  if (msg.ballot > promised_) {
    promised_ = msg.ballot;
    leader_ = static_cast<NodeId>(msg.ballot % cfg_.n_nodes);
    reply->ack = true;
    for (auto it = slots_.lower_bound(msg.from_slot); it != slots_.end(); ++it) {
      const SlotState& st = it->second;
      if (!st.cmd) continue;
      // Committed votes carry UINT64_MAX: they win every SELECT.
      reply->votes.push_back(Promise::Vote{
          it->first, st.committed ? UINT64_MAX : st.accepted_ballot, st.cmd,
          st.batch});
    }
  } else {
    reply->ack = false;
  }
  ctx_.send(from, std::move(reply));
}

// --------------------------------------------------------------------
// Leader change
// --------------------------------------------------------------------

void MultiPaxosReplica::start_leader_change() {
  ballot_ = next_ballot_for(id_, std::max(promised_, ballot_), cfg_.n_nodes);
  preparing_ = true;
  flush_batch(/*force=*/true);  // preparing: drops any queued accumulator
  promise_safe_start_ = last_delivered_ + 1;
  promise_ackers_.clear();
  promise_votes_.clear();
  ctx_.broadcast(net::make_payload<Prepare>(ballot_, last_delivered_ + 1), true);
}

void MultiPaxosReplica::handle_promise(const Promise& msg) {
  if (!preparing_ || msg.ballot != ballot_) return;
  if (!msg.ack) {
    // Lost the race to a higher ballot; retry if Ω still nominates us.
    preparing_ = false;
    ctx_.set_timer(core::kRetryBackoffMax, [this] {
      if (!crashed_ && fd_.leader() == id_ && leader_ != id_)
        start_leader_change();
    });
    return;
  }
  if (std::find(promise_ackers_.begin(), promise_ackers_.end(),
                msg.acceptor) != promise_ackers_.end())
    return;  // duplicate delivery
  promise_ackers_.push_back(msg.acceptor);
  promise_safe_start_ = std::max(promise_safe_start_, msg.first_undelivered);
  promise_votes_.insert(promise_votes_.end(), msg.votes.begin(),
                        msg.votes.end());
  if (static_cast<int>(promise_ackers_.size()) >= cfg_.classic_quorum())
    become_leader();
}

void MultiPaxosReplica::become_leader() {
  preparing_ = false;
  leader_ = id_;
  m_inc(stats::Counter::kLeaderChanges);

  // Highest-ballot vote per slot (committed votes carry UINT64_MAX).
  std::map<std::uint64_t, const Promise::Vote*> best;
  std::uint64_t max_slot = last_delivered_;
  for (const auto& v : promise_votes_) {
    max_slot = std::max(max_slot, v.slot);
    auto [it, inserted] = best.try_emplace(v.slot, &v);
    if (!inserted && v.vballot > it->second->vballot) it->second = &v;
  }

  // Slots below the quorum's maximum delivery frontier are committed, and
  // the acceptors that delivered them have pruned their records — so the
  // promise votes for those slots are incomplete and possibly stale losers.
  // Proposing there (a stale vote or a no-op filler) would rebind a decided
  // slot. Adopt any committed votes we did see and leave the rest alone; a
  // leader that lags its own log simply stalls local delivery behind the
  // gap (there is no catch-up transfer), which is safe.
  const std::uint64_t safe_start =
      std::max(promise_safe_start_, last_delivered_ + 1);
  for (const auto& [slot, vote] : best) {
    if (slot < safe_start && vote->vballot == UINT64_MAX)
      commit_slot(slot, vote->cmd, vote->batch);
  }

  // Re-propose surviving votes (whole slot values — a batched vote's tail
  // rides along); fill holes with no-ops so delivery cannot stall behind
  // slots whose value was lost with the old leader.
  for (std::uint64_t slot = safe_start; slot <= max_slot; ++slot) {
    auto it = best.find(slot);
    CommandPtr cmd;
    CommandBatchPtr batch;
    if (it != best.end()) {
      cmd = it->second->cmd;
      batch = it->second->batch;
    } else {
      Command noop(CommandId::make(id_, (1ULL << 40) + slot), {}, 0);
      noop.noop = true;
      cmd = std::make_shared<const Command>(std::move(noop));
      m_inc(stats::Counter::kNoopsFilled);
    }
    ctx_.broadcast(net::make_payload<Accept>(ballot_, slot, std::move(cmd),
                                             std::move(batch)),
                   true);
  }
  next_slot_ = std::max(max_slot + 1, safe_start);
  promise_votes_.clear();

  // Re-submit our own pending proposals under the new ballot.
  for (const auto& [cid, pc] : pending_) lead(pc.cmd);
}

// --------------------------------------------------------------------
// Learner
// --------------------------------------------------------------------

void MultiPaxosReplica::handle_commit(const Commit& msg) {
  commit_slot(msg.slot, msg.cmd, msg.batch);
}

void MultiPaxosReplica::commit_slot(std::uint64_t slot, CommandPtr cmd,
                                    CommandBatchPtr batch) {
  SlotState& st = slots_[slot];
  if (st.committed) {
    assert(st.cmd->id == cmd->id && "two commands committed in one slot");
    return;
  }
  st.cmd = cmd;
  st.batch = batch;
  st.committed = true;
  // Single log: slot key is ⟨object 0, log index⟩; a batched slot decides
  // once with its head (the tail rides inside the slot value).
  m_inc(stats::Counter::kDecidedSlots);
  m_record(stats::Histo::kSlotLogDepth,
           static_cast<std::int64_t>(slots_.size()));
  ctx_.decided(0, slot, *cmd);
  for_each_member(cmd, batch,
                  [this](const Command& c) { assigned_.erase(c.id); });
  if (leader_ == id_) {
    const RecentCommit rec{slot, cmd, batch};
    for_each_member(cmd, batch,
                    [&](const Command& c) { recent_commits_[c.id] = rec; });
    // Bound the replay window alongside the delivered-id window.
    if (recent_commits_.size() > cfg_.delivered_id_window)
      recent_commits_.clear();
  }
  auto report = [this](const Command& c) {
    auto pit = pending_.find(c.id);
    if (pit != pending_.end() && !pit->second.commit_reported) {
      pit->second.commit_reported = true;
      m_span_commit(pit->second.path, pit->second.proposed_at);
      ctx_.committed(c);
    }
  };
  for_each_member(cmd, batch, report);
  if (my_batched_slots_.erase(slot) > 0) {
    --batch_inflight_;
    if (!batch_buf_.empty()) m_inc(stats::Counter::kBatchFlushPipeline);
    flush_batch(/*force=*/false);  // a pipeline slot freed up
  }
  try_deliver();
}

void MultiPaxosReplica::try_deliver() {
  for (;;) {
    auto it = slots_.find(last_delivered_ + 1);
    if (it == slots_.end() || !it->second.committed) return;
    const CommandPtr head = std::move(it->second.cmd);
    const CommandBatchPtr batch = std::move(it->second.batch);
    ++last_delivered_;
    slots_.erase(it);  // slots below the delivery frontier are never re-read

    // Unroll the slot value in batch order; per-member dedup guards
    // duplicates via retries.
    auto deliver_one = [this](const Command& c) {
      if (delivered_ids_.count(c.id) > 0) return;
      delivered_ids_.insert(c.id);
      delivered_fifo_.push_back(c.id);
      while (delivered_fifo_.size() > cfg_.delivered_id_window) {
        delivered_ids_.erase(delivered_fifo_.front());
        delivered_fifo_.pop_front();
      }
      if (!c.noop) {
        m_inc(stats::Counter::kDelivered);
        auto pit = pending_.find(c.id);
        if (pit != pending_.end()) {
          m_span_deliver(pit->second.path, pit->second.proposed_at);
          ctx_.cancel_timer(pit->second.timer);
          pending_.erase(pit);
        }
        ctx_.deliver(c);
      }
    };
    for_each_member(head, batch, deliver_one);
  }
}

// --------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------

void MultiPaxosReplica::on_message(NodeId from, const net::Payload& payload) {
  if (crashed_) return;
  switch (payload.kind()) {
    case net::kKindCommon + 1:
      fd_.on_heartbeat(static_cast<const core::Heartbeat&>(payload).sender);
      break;
    case net::kKindMultiPaxos + 1:
      handle_propose(static_cast<const ClientPropose&>(payload).cmd);
      break;
    case net::kKindMultiPaxos + 2:
      handle_prepare(from, static_cast<const Prepare&>(payload));
      break;
    case net::kKindMultiPaxos + 3:
      handle_promise(static_cast<const Promise&>(payload));
      break;
    case net::kKindMultiPaxos + 4:
      handle_accept(from, static_cast<const Accept&>(payload));
      break;
    case net::kKindMultiPaxos + 5:
      handle_accepted(static_cast<const Accepted&>(payload));
      break;
    case net::kKindMultiPaxos + 6:
      handle_commit(static_cast<const Commit&>(payload));
      break;
    default:
      break;
  }
}

}  // namespace m2::mp
