#include "genpaxos/genpaxos.hpp"

#include "sim/rng.hpp"

#include <algorithm>

namespace m2::gp {

GenPaxosReplica::GenPaxosReplica(NodeId id, const core::ClusterConfig& cfg,
                                 core::Context& ctx)
    : core::Replica(id, cfg, ctx) {}

void GenPaxosReplica::on_crash() {
  crashed_ = true;
  for (auto& [id, pc] : pending_) ctx_.cancel_timer(pc.timer);
  pending_.clear();
}

void GenPaxosReplica::on_recover() { crashed_ = false; }

core::RxCost GenPaxosReplica::rx_cost(const net::Payload& payload) const {
  const core::Time parallel = core::rx_cost(payload.wire_size());
  // The leader sequences every command and resolves every collision on a
  // single thread — the single-leader bottleneck the paper attributes to
  // Generalized Paxos.
  const std::uint32_t k = payload.kind();
  if (id_ == leader_ &&
      (k == net::kKindGenPaxos + 3 || k == net::kKindGenPaxos + 4)) {
    return core::RxCost{core::kSerialFixed, parallel};
  }
  return core::RxCost{0, parallel};
}

// --------------------------------------------------------------------
// Proposer
// --------------------------------------------------------------------

void GenPaxosReplica::propose(const Command& c) {
  if (crashed_) return;
  if (delivered_ids_.count(c.id) > 0) return;
  auto [it, inserted] = pending_.try_emplace(c.id, PendingCommand{});
  if (!inserted) return;
  it->second.cmd = c;
  it->second.proposed_at = ctx_.now();
  arm_retry(c.id);
  ctx_.broadcast(net::make_payload<FastPropose>(c), true);
}

void GenPaxosReplica::arm_retry(CommandId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  ctx_.cancel_timer(it->second.timer);
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
    // Retry through the leader: after a timeout assume collision (or a
    // lost message; the leader replays the Sequence if already done).
    pit->second.handed_to_leader = true;
    pit->second.path = stats::Path::kSlow;
    ctx_.send(leader_, net::make_payload<ResolveReq>(pit->second.cmd));
    arm_retry(id);
  });
}

void GenPaxosReplica::handle_fast_ack(const FastAck& msg) {
  auto it = pending_.find(msg.cmd_id);
  if (it == pending_.end()) return;
  PendingCommand& pc = it->second;
  if (pc.handed_to_leader) return;
  if (std::find(pc.ackers.begin(), pc.ackers.end(), msg.acceptor) !=
      pc.ackers.end())
    return;  // duplicate delivery

  if (pc.ackers.empty()) {
    pc.first_preds = msg.preds;
  } else if (!pc.mismatch) {
    // Votes must agree object-by-object (both lists are in the command's
    // sorted object order).
    if (msg.preds.size() != pc.first_preds.size()) {
      pc.mismatch = true;
    } else {
      for (std::size_t i = 0; i < msg.preds.size(); ++i) {
        if (msg.preds[i].pred != pc.first_preds[i].pred) {
          pc.mismatch = true;
          break;
        }
      }
    }
  }
  pc.ackers.push_back(msg.acceptor);
  if (static_cast<int>(pc.ackers.size()) < cfg_.fast_quorum()) return;

  if (pc.mismatch) {
    m_inc(stats::Counter::kCollisions);
    pc.handed_to_leader = true;
    pc.path = stats::Path::kSlow;
    ctx_.send(leader_, net::make_payload<ResolveReq>(pc.cmd));
  } else {
    m_inc(stats::Counter::kFastPathRounds);
    pc.handed_to_leader = true;
    if (!pc.commit_reported) {
      pc.commit_reported = true;
      m_span_commit(pc.path, pc.proposed_at);
      ctx_.committed(pc.cmd);  // two communication delays
    }
    ctx_.send(leader_, net::make_payload<CommitNotify>(pc.cmd));
  }
}

// --------------------------------------------------------------------
// Acceptor
// --------------------------------------------------------------------

void GenPaxosReplica::handle_fast_propose(NodeId from, const FastPropose& msg) {
  auto reply = std::make_shared<FastAck>();
  reply->cmd_id = msg.cmd.id;
  reply->acceptor = id_;
  reply->preds.reserve(msg.cmd.objects.size());
  for (ObjectId l : msg.cmd.objects) {
    auto [it, inserted] = last_seen_.try_emplace(l, CommandId{});
    reply->preds.push_back(FastAck::Pred{l, it->second});
    it->second = msg.cmd.id;
  }
  ++fast_proposes_seen_;
  // Real Generalized Paxos acceptors attach their c-struct suffix to every
  // vote; model its size as 16 bytes per unsequenced command.
  reply->cstruct_bytes =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(unsequenced() * 16, 1 << 16));
  ctx_.send(from, std::move(reply));
}

void GenPaxosReplica::handle_slow_accept(NodeId from, const SlowAccept& msg) {
  // Classic round: update the c-struct tail so later fast votes order after
  // this command, and ack to the leader.
  for (ObjectId l : msg.cmd.objects) last_seen_[l] = msg.cmd.id;
  auto reply = std::make_shared<SlowAck>();
  reply->ballot = msg.ballot;
  reply->cmd_id = msg.cmd.id;
  reply->acceptor = id_;
  ctx_.send(from, std::move(reply));
}

// --------------------------------------------------------------------
// Leader (sequencer + collision resolution)
// --------------------------------------------------------------------

void GenPaxosReplica::handle_commit_notify(const CommitNotify& msg) {
  if (id_ != leader_) return;
  leader_sequence(msg.cmd);
}

void GenPaxosReplica::handle_resolve(const ResolveReq& msg) {
  if (id_ != leader_) return;
  if (sequenced_ids_.count(msg.cmd.id) > 0) {
    // Already sequenced: replay the Sequence for retries caused by a lost
    // learn message.
    auto it = recent_sequences_.find(msg.cmd.id);
    if (it != recent_sequences_.end())
      ctx_.broadcast(
          net::make_payload<Sequence>(it->second.first, it->second.second),
          false);
    return;
  }
  auto [it, inserted] =
      slow_rounds_.try_emplace(msg.cmd.id, SlowRound{msg.cmd, {}});
  if (!inserted) return;  // resolution already in progress
  ctx_.broadcast(net::make_payload<SlowAccept>(0, msg.cmd), true);
}

void GenPaxosReplica::handle_slow_ack(const SlowAck& msg) {
  if (id_ != leader_) return;
  auto it = slow_rounds_.find(msg.cmd_id);
  if (it == slow_rounds_.end()) return;
  auto& ackers = it->second.ackers;
  if (std::find(ackers.begin(), ackers.end(), msg.acceptor) != ackers.end())
    return;  // duplicate delivery
  ackers.push_back(msg.acceptor);
  if (static_cast<int>(ackers.size()) < cfg_.classic_quorum()) return;
  const Command cmd = it->second.cmd;
  slow_rounds_.erase(it);
  leader_sequence(cmd);
}

void GenPaxosReplica::leader_sequence(const Command& cmd) {
  if (sequenced_ids_.count(cmd.id) > 0) return;  // duplicate notify/retry
  sequenced_ids_.insert(cmd.id);
  sequenced_fifo_.push_back(cmd.id);
  while (sequenced_fifo_.size() > cfg_.delivered_id_window) {
    sequenced_ids_.erase(sequenced_fifo_.front());
    recent_sequences_.erase(sequenced_fifo_.front());
    sequenced_fifo_.pop_front();
  }
  m_inc(stats::Counter::kSequenced);
  const std::uint64_t index = next_index_++;
  recent_sequences_.emplace(cmd.id, std::make_pair(index, cmd));
  seq_log_.emplace(index, cmd);
  // Single sequencer log: slot key is ⟨object 0, sequence index⟩.
  m_inc(stats::Counter::kDecidedSlots);
  m_record(stats::Histo::kSlotLogDepth,
           static_cast<std::int64_t>(seq_log_.size()));
  ctx_.decided(0, index, cmd);
  try_deliver();
  ctx_.broadcast(net::make_payload<Sequence>(index, cmd), false);
}

// --------------------------------------------------------------------
// Learner
// --------------------------------------------------------------------

void GenPaxosReplica::handle_sequence(const Sequence& msg) {
  const auto [it, inserted] = seq_log_.emplace(msg.index, msg.cmd);
  if (inserted) {
    m_inc(stats::Counter::kDecidedSlots);
    m_record(stats::Histo::kSlotLogDepth,
             static_cast<std::int64_t>(seq_log_.size()));
    ctx_.decided(0, msg.index, msg.cmd);
  }
  try_deliver();
}

void GenPaxosReplica::try_deliver() {
  for (;;) {
    auto it = seq_log_.find(last_delivered_ + 1);
    if (it == seq_log_.end()) return;
    const Command c = std::move(it->second);
    seq_log_.erase(it);
    ++last_delivered_;
    ++delivered_total_;
    if (delivered_ids_.count(c.id) > 0) continue;
    delivered_ids_.insert(c.id);
    delivered_fifo_.push_back(c.id);
    while (delivered_fifo_.size() > cfg_.delivered_id_window) {
      delivered_ids_.erase(delivered_fifo_.front());
      delivered_fifo_.pop_front();
    }
    m_inc(stats::Counter::kDelivered);
    auto pit = pending_.find(c.id);
    if (pit != pending_.end()) {
      if (!pit->second.commit_reported) {
        m_span_commit(pit->second.path, pit->second.proposed_at);
        ctx_.committed(c);
      }
      m_span_deliver(pit->second.path, pit->second.proposed_at);
      ctx_.cancel_timer(pit->second.timer);
      pending_.erase(pit);
    }
    ctx_.deliver(c);
  }
}

// --------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------

void GenPaxosReplica::on_message(NodeId from, const net::Payload& payload) {
  if (crashed_) return;
  switch (payload.kind()) {
    case net::kKindGenPaxos + 1:
      handle_fast_propose(from, static_cast<const FastPropose&>(payload));
      break;
    case net::kKindGenPaxos + 2:
      handle_fast_ack(static_cast<const FastAck&>(payload));
      break;
    case net::kKindGenPaxos + 3:
      handle_commit_notify(static_cast<const CommitNotify&>(payload));
      break;
    case net::kKindGenPaxos + 4:
      handle_resolve(static_cast<const ResolveReq&>(payload));
      break;
    case net::kKindGenPaxos + 5:
      handle_slow_accept(from, static_cast<const SlowAccept&>(payload));
      break;
    case net::kKindGenPaxos + 6:
      handle_slow_ack(static_cast<const SlowAck&>(payload));
      break;
    case net::kKindGenPaxos + 7:
      handle_sequence(static_cast<const Sequence&>(payload));
      break;
    default:
      break;
  }
}

}  // namespace m2::gp
