#include "m2paxos/m2paxos.hpp"

#include "sim/rng.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>

namespace m2::m2p {

namespace {

// The batching knobs clamp to the batch container's inline capacity —
// a batch must never spill its SmallVec (raw-heap spill would break the
// zero-steady-state-allocation discipline).
static_assert(core::ClusterConfig::Batching::kMaxBatchCommands <=
                  core::CommandBatch::kCapacity,
              "batch knob cap exceeds the batch container capacity");

/// Slots a batched accept round may carry: the SlotList inline capacity
/// (one multi-command slot per object touched by the flush).
constexpr std::size_t kMaxSlotsPerBatchRound = 8;

/// §IV-C acquisition fallback ("bounding the communication delays"): after
/// this many failed coordinations a command is routed through the
/// designated conflict leader (node 0), which serializes contended
/// ownership acquisitions.
constexpr int kAcquisitionFallbackAfter = 8;

/// Base of the randomized exponential backoff between ownership-acquisition
/// retries; growth is capped at core::kRetryBackoffMax.
constexpr core::Time kRetryBackoffMin = 200 * core::kMicrosecond;

}  // namespace

void HeadIndex::use_table(std::size_t n_heads) {
  // One table per thread, reused across messages: it grows to the longest
  // list seen and then never allocates again. Encoding, decoding and
  // wire_size() never nest, so no two live indexes share it.
  thread_local std::vector<Entry> table;
  std::size_t size = 2 * kInline;
  while (size < 2 * n_heads) size *= 2;
  table.assign(size, Entry{0, SIZE_MAX});
  table_ = table.data();
  mask_ = size - 1;
}

std::size_t HeadIndex::first_hashed(std::uint64_t id, std::size_t pos) {
  // At most n_heads inserts into >= 2 * n_heads entries: a probe always
  // ends at the id or at an empty entry.
  for (std::size_t i = ((id * 0x9E3779B97F4A7C15ULL) >> 32) & mask_;;
       i = (i + 1) & mask_) {
    Entry& e = table_[i];
    if (e.pos == SIZE_MAX) {
      e = Entry{id, pos};
      return pos;
    }
    if (e.id == id) return e.pos;
  }
}

M2PaxosReplica::M2PaxosReplica(NodeId id, const core::ClusterConfig& cfg,
                               core::Context& ctx)
    : core::Replica(id, cfg, ctx),
      bcfg_(cfg.batching.normalized()),
      pending_(64, core::PoolAlloc<char>(pool_)),
      accepts_(64, core::PoolAlloc<char>(pool_)),
      prepares_(16, core::PoolAlloc<char>(pool_)),
      delivered_ids_(cfg.delivered_id_window),
      dirty_objects_(core::PoolAlloc<char>(pool_)),
      stuck_objects_(16, core::PoolAlloc<char>(pool_)),
      repair_cooldown_(16, core::PoolAlloc<char>(pool_)),
      batch_queue_(core::PoolAlloc<char>(pool_)) {}

// ---------------------------------------------------------------------
// Anti-entropy (extension, DESIGN.md §5a)
// ---------------------------------------------------------------------

void M2PaxosReplica::start_sync_timer() {
  // Demand-driven: armed only while some frontier is stuck, so an idle
  // replica schedules nothing (and simulations can drain).
  if (sync_timer_ != core::kInvalidTimer) return;
  if (cfg_.sync_period <= 0 || cfg_.n_nodes < 2 || crashed_) return;
  if (stuck_objects_.empty()) return;
  // Jittered so replicas do not probe in lockstep.
  const core::Time delay =
      cfg_.sync_period / 2 +
      static_cast<core::Time>(ctx_.rng().uniform(
          static_cast<std::uint64_t>(cfg_.sync_period)));
  sync_timer_ = ctx_.set_timer(delay, [this] { sync_tick(); });
}

void M2PaxosReplica::sync_tick() {
  sync_timer_ = core::kInvalidTimer;
  if (crashed_) return;
  if (!stuck_objects_.empty()) {
    NodeId peer = static_cast<NodeId>(
        ctx_.rng().uniform(static_cast<std::uint64_t>(cfg_.n_nodes - 1)));
    if (peer >= id_) ++peer;
    send_sync_probe(peer);
    start_sync_timer();
  }
}

bool M2PaxosReplica::send_sync_probe(NodeId peer) {
  // Probe a peer for the frontier slots we are missing. Only objects
  // whose frontier slot is undecided need help — a decided frontier is
  // waiting on other objects, which have their own entries.
  SyncRequest::EntryList entries;
  for (const ObjectId l : stuck_objects_) {
    ObjectState& st = table_.obj(l);
    const Slot* s = st.log.find(st.last_appended + 1);
    if (s != nullptr && s->decided) continue;
    entries.push_back(SyncRequest::Entry{l, st.last_appended + 1});
    if (entries.size() >= SyncRequest::kMaxEntries) break;
  }
  if (entries.empty()) return false;
  m_inc(stats::Counter::kSyncProbes);
  ctx_.send(peer, pooled<SyncRequest>(std::move(entries)));
  return true;
}

void M2PaxosReplica::handle_sync_request(NodeId from, const SyncRequest& msg) {
  // Replies are bounded to the SlotList inline capacity: the payload block
  // stays pool-sized and allocation-free, and a laggard far behind simply
  // re-probes each sync period for the next chunk.
  constexpr std::size_t kMaxSyncReplySlots = 8;
  SlotList slots;
  for (const auto& e : msg.entries) {
    if (slots.size() >= kMaxSyncReplySlots) break;
    const ObjectState* st = table_.find(e.object);
    if (st == nullptr) continue;
    // Instances below the log base were truncated by frontier GC; the
    // retained window [base, end) is this node's answerable summary — a
    // peer further behind sees the decisions it can get and learns the
    // rest from other peers or the floors piggybacked on promises.
    for (Instance in = std::max(e.from_instance, st->log.base());
         in < st->log.end() && slots.size() < kMaxSyncReplySlots; ++in) {
      const Slot* s = st->log.find(in);
      if (s == nullptr || !s->decided) continue;
      slots.emplace_back(e.object, in, Epoch{0}, s->cmd, s->batch);
    }
  }
  if (!slots.empty())
    ctx_.send(from, pooled<SyncReply>(std::move(slots)));
}

void M2PaxosReplica::handle_sync_reply(NodeId from, const SyncReply& msg) {
  bool learned = false;
  for (const auto& s : msg.slots) {
    ObjectState& st = table_.obj(s.object);
    const Slot* have = st.log.find(s.instance);
    if (s.instance > st.last_appended &&
        (have == nullptr || !have->decided)) {
      m_inc(stats::Counter::kSyncSlotsLearned);
      learned = true;
      decide_slot(s.object, s.instance, s.cmd, s.batch);
    }
  }
  try_deliver();
  // Replies are capped at a pool-friendly slot count, so a deep laggard
  // needs many round trips. Chain them: as long as a reply taught us
  // something and a frontier is still stuck, re-probe the same peer right
  // away — catch-up is then bound by round trips, not sync periods. A
  // reply with nothing new breaks the chain (no progress ping-pong) and
  // the jittered timer takes over again.
  if (learned && !stuck_objects_.empty()) send_sync_probe(from);
}

void M2PaxosReplica::preassign_owner(ObjectId l, NodeId owner) {
  ObjectState& st = table_.obj(l);
  st.owner = owner;
  st.promised = 0;
  st.owned_epoch = 0;
  st.next_slot = 1;
}

core::RxCost M2PaxosReplica::rx_cost(const net::Payload& payload) const {
  // The distinguishing property of M²Paxos (paper §VI-A, Fig. 4): no
  // shared dependency metadata, so message handling is fully parallel
  // across cores. No serialization point.
  return core::RxCost{0, core::rx_cost(payload.wire_size())};
}

void M2PaxosReplica::on_crash() {
  crashed_ = true;
  for (auto& [id, pc] : pending_) ctx_.cancel_timer(pc.watchdog);
  pending_.clear();
  for (auto& [req, round] : accepts_) ctx_.cancel_timer(round.timer);
  accepts_.clear();
  prepares_.clear();
  repair_cooldown_.clear();
  batch_queue_.clear();
  batch_queued_bytes_ = 0;
  batch_inflight_ = 0;
  ctx_.cancel_timer(batch_timer_);
  batch_timer_ = core::kInvalidTimer;
  ctx_.cancel_timer(sync_timer_);
  sync_timer_ = core::kInvalidTimer;
  ctx_.cancel_timer(crossing_timer_);
  crossing_timer_ = core::kInvalidTimer;
}

void M2PaxosReplica::on_recover() {
  crashed_ = false;
  start_sync_timer();  // no-op unless a frontier is stuck
}

core::ObjectList M2PaxosReplica::undecided_objects(
    const core::Command& c) const {
  core::ObjectList out;
  for (ObjectId l : c.objects)
    if (!table_.is_decided_on(c, l)) out.push_back(l);
  return out;
}

void M2PaxosReplica::prewarm_commands(std::size_t n) {
  // Every pooled bin — payload control blocks, container nodes, batch
  // values — drifts to rare new simultaneous-live maxima, and each new
  // maximum costs one heap block. Pre-extend all bins with slack so a new
  // maximum lands on a freelist instead.
  for (std::size_t bytes = 16; bytes <= 1024; bytes += 16)
    pool_->reserve(bytes, n / 8 + 16);
  // Hash-map bucket arrays are not pooled (they exceed the pool's bin
  // range); pre-size the per-command map past any mid-window population
  // maximum so it never rehashes inside a counted window.
  pending_.reserve(2 * n);
  // Allocate-then-release: every block lands on the command bin's
  // freelist. The scratch vector itself is heap-allocated, which is why
  // this runs before — never inside — an allocation-counted window.
  std::vector<core::CommandPtr> blocks;
  blocks.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    blocks.push_back(pooled<core::Command>());
}

void M2PaxosReplica::advance_frontier(ObjectState& st) {
  ++st.last_appended;
  st.next_slot = std::max(st.next_slot, st.last_appended + 1);
  if (!stuck_objects_.empty()) stuck_objects_.erase(st.id);
  // Frontier GC: slots this far behind the delivery frontier are dead to
  // the protocol (position selection starts at last_appended+1, duplicate
  // proposals are filtered through delivered_ids_) and outside the window
  // anti-entropy serves — truncate them so log memory stays bounded.
  const Instance frontier = st.last_appended + 1;
  const Instance keep_from =
      frontier > cfg_.gc_margin ? frontier - cfg_.gc_margin : 1;
  if (keep_from <= st.log.base()) return;
  const std::size_t before = st.log.size();
  st.log.truncate_below(keep_from);
  m_inc(stats::Counter::kGcTruncatedSlots, before - st.log.size());
  m_record(stats::Histo::kSlotLogDepth,
           static_cast<std::int64_t>(st.log.size()));
}

// ---------------------------------------------------------------------
// Coordination phase (Algorithm 1)
// ---------------------------------------------------------------------

void M2PaxosReplica::propose(const core::Command& c) {
  if (crashed_) return;
  if (delivered_ids_.contains(c.id)) return;
  auto [it, inserted] = pending_.try_emplace(c.id);
  if (!inserted) return;  // already coordinating this command
  // The one deep copy on the path: from here the command travels as a
  // shared immutable handle through Accept/slots/Decide on every replica.
  it->second.cmd = pooled<core::Command>(c);
  it->second.proposed_at = ctx_.now();
  coordinate(c.id);
}

void M2PaxosReplica::coordinate(core::CommandId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  PendingCommand& pc = it->second;
  if (pc.in_flight) return;

  // One pass over c.LS resolves ownership and the undecided set
  // (Algorithm 1's IsOwner/GetOwners plus the `ins` selection).
  const OwnershipTable::Route rt = table_.route(id_, *pc.cmd);

  // ins = {<l, next position> : l in c.LS, c not decided on l}
  const core::ObjectList& objects = rt.undecided;
  if (objects.empty()) {
    // Decided on every object; normally delivery cleans the entry up.
    try_deliver();
    auto again = pending_.find(id);
    if (again == pending_.end()) return;
    // Still undelivered: the delivery frontier of some accessed object is
    // blocked. If it is blocked on a hole (an undecided slot abandoned by
    // a failed round), repair it with an acquisition, which forces
    // surviving votes and fills true holes with no-ops. Keep the watchdog
    // alive either way so delivery is always driven to completion.
    PendingCommand& again_pc = again->second;
    arm_watchdog(again_pc);
    if (!again_pc.in_flight) {
      core::ObjectList blocked;
      collect_blocked(*again_pc.cmd, blocked);
      auto self = pending_.find(id);  // collect_blocked may deliver
      if (self == pending_.end()) return;
      // Deduplicate repair rounds per object: dozens of blocked commands
      // share one wait-for closure, and concurrent forced acquisitions on
      // the same objects stale each other's epochs forever. One round per
      // cooldown window is enough — a single success unblocks the cascade.
      // The jitter staggers replicas that would otherwise retry in
      // lockstep (the backoffs elsewhere are also randomized per node).
      const core::Time now = ctx_.now();
      blocked.erase(
          std::remove_if(
              blocked.begin(), blocked.end(),
              [&](ObjectId l) {
                auto [slot, fresh] = repair_cooldown_.try_emplace(l, 0);
                if (!fresh && now < slot->second) return true;
                slot->second =
                    now + cfg_.forward_timeout +
                    static_cast<core::Time>(ctx_.rng().uniform(
                        static_cast<std::uint64_t>(cfg_.forward_timeout)));
                return false;
              }),
          blocked.end());
      if (!blocked.empty()) {
        m_inc(stats::Counter::kRepairRounds);
        self->second.path = stats::Path::kSlow;
        start_acquisition(self->second, blocked, /*force_prepare_all=*/true);
      }
    }
    return;
  }

  arm_watchdog(pc);

  if (rt.owns_all) {
    // Batching qualifies exactly the clean single-object fast path: first
    // attempt, no prior slot assignment to retransmit. Retries and
    // multi-object commands keep their own rounds — their failure handling
    // (per-object retransmission, forced recovery) stays unchanged.
    if (bcfg_.enabled && pc.attempts == 0 && pc.assigned_slots.empty() &&
        pc.cmd->objects.size() == 1 && !pc.cmd->noop) {
      enqueue_batch(pc);
      return;
    }
    m_inc(stats::Counter::kFastPathRounds);
    start_fast_accept(pc, objects);
    return;
  }

  // §IV-C fallback: a command that keeps losing ownership races is routed
  // through the designated conflict leader, which serializes contended
  // acquisitions (contending commands queue behind each other there
  // instead of NACKing each other's prepares forever).
  if (pc.attempts >= kAcquisitionFallbackAfter && id_ != 0) {
    m_inc(stats::Counter::kFallbacks);
    pc.path = stats::Path::kSlow;
    ctx_.send(0, pooled<Propose>(*pc.cmd));
    return;
  }

  // Forward to the node owning the most of c's objects (the unique owner
  // when there is one — Algorithm 1 lines 11-15; otherwise the plurality
  // holder, which then acquires only the objects it lacks instead of a
  // minority holder stealing a hot object from its home). The watchdog
  // re-coordinates if the target fails to decide; after several timeouts
  // the target is presumed crashed and this node takes over by acquiring
  // ownership itself (the paper's embedded recovery).
  const NodeId owner = rt.plurality_owner;
  if (owner != kNoNode && owner != id_ && pc.attempts < 3) {
    m_inc(stats::Counter::kForwarded);
    pc.path = stats::Path::kForwarded;
    ctx_.send(owner, pooled<Propose>(*pc.cmd));
    return;
  }

  pc.path = stats::Path::kSlow;
  start_acquisition(pc, objects);
}

void M2PaxosReplica::collect_blocked(const core::Command& root,
                                     core::ObjectList& blocked) {
  // Walk the local wait-for closure of `root`: delivery is blocked on each
  // accessed object either by a missing/undecided frontier decision (the
  // ground cause — a repair round or sync probe can resolve it there) or by
  // a different command sitting at that frontier, in which case whatever
  // *that* command waits on blocks `root` too. Only the direct objects are
  // visible to the caller's watchdog, so the chain must be chased here —
  // e.g. root waits on c at one of its own objects while c waits on an
  // object whose frontier decision this node never received.
  std::unordered_set<ObjectId> seen_objects;
  std::unordered_set<std::uint64_t> seen_cmds{root.id.value};
  std::deque<ObjectId> queue(root.objects.begin(), root.objects.end());
  bool requeued = false;
  while (!queue.empty()) {
    const ObjectId l = queue.front();
    queue.pop_front();
    if (!seen_objects.insert(l).second) continue;
    ObjectState& st = table_.obj(l);
    const Slot* s = st.log.find(st.last_appended + 1);
    if (s == nullptr || !s->decided) {
      blocked.push_back(l);
      continue;
    }
    const core::Command& c = *s->cmd;
    if (delivered_ids_.contains(c.id)) {
      // A duplicate decision of an already-delivered command parked at the
      // frontier; re-scan the object so try_deliver's skip path advances.
      dirty_objects_.push_back(&st);
      requeued = true;
      continue;
    }
    if (seen_cmds.insert(c.id.value).second)
      for (ObjectId l2 : c.objects) queue.push_back(l2);
  }
  if (requeued) try_deliver();
}

void M2PaxosReplica::arm_watchdog(PendingCommand& pc) {
  ctx_.cancel_timer(pc.watchdog);
  const core::CommandId id = pc.cmd->id;
  // Backed-off watchdog: re-coordinations of a congested command must not
  // multiply its load.
  const core::Time delay = cfg_.forward_timeout
                          << std::min(pc.attempts, 3);
  pc.watchdog = ctx_.set_timer(delay, [this, id] {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    m_inc(stats::Counter::kTimeouts);
    ++it->second.attempts;
    it->second.in_flight = false;  // abandon whatever round was stuck
    coordinate(id);
  });
}

void M2PaxosReplica::start_fast_accept(PendingCommand& pc,
                                       const core::ObjectList& objects) {
  SlotList slots;
  slots.reserve(objects.size());
  for (ObjectId l : objects) {
    ObjectState& st = table_.obj(l);
    // Retransmission: if a previous round already assigned this object a
    // slot at the still-current epoch, reuse it. Assigning a fresh slot
    // would leave the old one as a permanent hole in the delivery frontier.
    const SlotValue* prior = nullptr;
    for (const auto& s : pc.assigned_slots) {
      if (s.object == l && s.epoch == st.owned_epoch &&
          s.instance > st.last_appended) {
        prior = &s;
        break;
      }
    }
    if (prior != nullptr) {
      m_inc(stats::Counter::kRetransmissions);
      slots.push_back(*prior);
      continue;
    }
    const Instance in = std::max(st.next_slot, st.last_appended + 1);
    st.next_slot = in + 1;
    // owns_all guarantees promised == owned_epoch here, so this accept is
    // issued at an epoch this node actually prepared (or was preassigned).
    slots.emplace_back(l, in, st.owned_epoch, pc.cmd);
  }
  pc.in_flight = true;
  pc.assigned_slots = slots;
  send_accept(pc.cmd->id, std::move(slots));
}

// ---------------------------------------------------------------------
// Batching (Config::Batching; off by default)
// ---------------------------------------------------------------------

void M2PaxosReplica::enqueue_batch(PendingCommand& pc) {
  pc.in_flight = true;  // the accumulator owns the command until flushed
  batch_queue_.push_back(pc.cmd->id);
  batch_queued_bytes_ += pc.cmd->wire_size();
  if (batch_queue_.size() >= bcfg_.batch_max_commands ||
      batch_queued_bytes_ >= bcfg_.batch_max_bytes) {
    m_inc(batch_queue_.size() >= bcfg_.batch_max_commands
              ? stats::Counter::kBatchFlushFull
              : stats::Counter::kBatchFlushBytes);
    flush_batches(/*force=*/true);  // a full batch closes immediately
  } else {
    // Adaptive window: a partial batch waits at most batch_window after
    // its first command before closing (bounds the latency cost).
    arm_batch_window();
  }
}

void M2PaxosReplica::arm_batch_window() {
  if (batch_timer_ != core::kInvalidTimer) return;
  batch_timer_ = ctx_.set_timer(bcfg_.batch_window, [this] {
    batch_timer_ = core::kInvalidTimer;
    m_inc(stats::Counter::kBatchFlushWindow);
    flush_batches(/*force=*/true);
  });
}

void M2PaxosReplica::flush_batches(bool force) {
  while (batch_inflight_ < bcfg_.pipeline_depth && !batch_queue_.empty() &&
         (force || batch_queue_.size() >= bcfg_.batch_max_commands ||
          batch_queued_bytes_ >= bcfg_.batch_max_bytes)) {
    if (!send_batched_round()) break;
  }
  if (batch_queue_.empty()) {
    batch_queued_bytes_ = 0;
    ctx_.cancel_timer(batch_timer_);
    batch_timer_ = core::kInvalidTimer;
  } else {
    // Leftovers (pipeline full, or a round closed early on a cap): re-arm
    // the window so they are never stranded waiting for the next enqueue.
    arm_batch_window();
  }
}

bool M2PaxosReplica::send_batched_round() {
  // One open multi-command slot per object, built by draining the FIFO
  // until a cap closes the round (slot count, per-slot batch size, or
  // round bytes) — the head-of-line command that hit the cap starts the
  // next round, preserving per-object queue order.
  struct OpenSlot {
    ObjectId object;
    Instance instance;
    Epoch epoch;
    std::shared_ptr<core::CommandBatch> batch;
  };
  core::SmallVec<OpenSlot, kMaxSlotsPerBatchRound> open;
  core::SmallVec<core::CommandId, 8> diverted;
  std::size_t round_bytes = 0;

  while (!batch_queue_.empty()) {
    const core::CommandId id = batch_queue_.front();
    auto pit = pending_.find(id);
    if (pit == pending_.end()) {  // already decided/delivered elsewhere
      batch_queue_.pop_front();
      continue;
    }
    PendingCommand& pc = pit->second;
    if (!pc.in_flight || pc.attempts > 0 || !pc.assigned_slots.empty()) {
      // A watchdog rerouted the command while it sat queued; its own
      // round (or the next coordinate) owns it now.
      batch_queue_.pop_front();
      continue;
    }
    const ObjectId l = pc.cmd->objects.front();

    OpenSlot* slot = nullptr;
    for (auto& o : open) {
      if (o.object == l) {
        slot = &o;
        break;
      }
    }
    const std::size_t bytes = pc.cmd->wire_size();
    if (slot == nullptr) {
      ObjectState& st = table_.obj(l);
      if (st.owner != id_ || st.promised != st.owned_epoch) {
        // Ownership lost while queued: reroute through coordination.
        pc.in_flight = false;
        diverted.push_back(id);
        batch_queue_.pop_front();
        continue;
      }
      if (open.size() == kMaxSlotsPerBatchRound) break;
      if (!open.empty() && round_bytes + bytes > bcfg_.batch_max_bytes) break;
      const Instance in = std::max(st.next_slot, st.last_appended + 1);
      st.next_slot = in + 1;
      open.push_back(OpenSlot{l, in, st.owned_epoch,
                              core::pool_make_shared<core::CommandBatch>(
                                  pool_)});
      slot = &open.back();
    } else {
      if (slot->batch->cmds.size() >= bcfg_.batch_max_commands) break;
      if (round_bytes + bytes > bcfg_.batch_max_bytes) break;
    }
    slot->batch->cmds.push_back(pc.cmd);
    round_bytes += bytes;
    batch_queued_bytes_ -= std::min(batch_queued_bytes_, bytes);
    batch_queue_.pop_front();
  }

  const bool sent = !open.empty();
  if (sent) {
    SlotList slots;
    slots.reserve(open.size());
    for (auto& o : open) {
      m_inc(stats::Counter::kBatchedCommands, o.batch->cmds.size());
      m_record(stats::Histo::kBatchOccupancy,
               static_cast<std::int64_t>(o.batch->cmds.size()));
      const core::CommandPtr head = o.batch->cmds.front();
      // Degenerate single-member batches travel as plain slot values.
      core::CommandBatchPtr batch =
          o.batch->cmds.size() > 1 ? std::move(o.batch) : nullptr;
      slots.push_back(SlotValue(o.object, o.instance, o.epoch, head, batch));
      // Per-member retransmission anchor: a watchdog retry re-sends the
      // whole batched slot (idempotent at the acceptors) instead of
      // assigning a fresh slot and leaving this one as a frontier hole.
      if (batch != nullptr) {
        for (const core::CommandPtr& m : batch->cmds) {
          auto mit = pending_.find(m->id);
          if (mit != pending_.end()) {
            mit->second.assigned_slots.clear();
            mit->second.assigned_slots.push_back(slots.back());
          }
        }
      } else {
        auto mit = pending_.find(head->id);
        if (mit != pending_.end()) {
          mit->second.assigned_slots.clear();
          mit->second.assigned_slots.push_back(slots.back());
        }
      }
    }
    m_inc(stats::Counter::kBatchedRounds);
    ++batch_inflight_;
    const std::uint64_t req = send_accept(core::CommandId{}, std::move(slots));
    // Lost-round backstop: if the quorum never answers, free the pipeline
    // slot and hand the members back to their own retry path.
    auto rit = accepts_.find(req);
    rit->second.timer = ctx_.set_timer(cfg_.forward_timeout, [this, req] {
      auto it = accepts_.find(req);
      if (it == accepts_.end() || it->second.done) return;
      it->second.timer = core::kInvalidTimer;
      SlotList slots = std::move(it->second.slots);
      accepts_.erase(it);
      --batch_inflight_;
      for (const auto& s : slots) {
        if (s.batch != nullptr) {
          for (const core::CommandPtr& m : s.batch->cmds) retry_later(m->id);
        } else {
          retry_later(s.cmd->id);
        }
      }
      flush_batches(/*force=*/false);
    });
  }
  for (const core::CommandId id : diverted) coordinate(id);
  return sent;
}

void M2PaxosReplica::settle_round_command(core::CommandId id) {
  auto pit = pending_.find(id);
  if (pit == pending_.end()) return;
  pit->second.in_flight = false;
  maybe_report_commit(*pit->second.cmd);
  if (!undecided_objects(*pit->second.cmd).empty()) coordinate(id);
}

// ---------------------------------------------------------------------
// Accept phase (Algorithm 2)
// ---------------------------------------------------------------------

std::uint64_t M2PaxosReplica::send_accept(core::CommandId for_cmd,
                                          SlotList slots) {
  const std::uint64_t req = next_req_++;
  accepts_.emplace(req, AcceptRound{slots, for_cmd, {}, false,
                                    core::kInvalidTimer});
  ctx_.broadcast(pooled<Accept>(req, std::move(slots)), true);
  return req;
}

void M2PaxosReplica::handle_accept(NodeId from, const Accept& msg) {
  bool ok = true;
  // One table probe per slot: the validation pass caches the state
  // pointers the apply pass reuses. cfg_.test_unsafe_epochs skips the
  // promise check — the deliberately broken build the fuzzing auditor
  // must catch (stale owners keep winning quorums and rebinding slots).
  // Inline capacity matches kMaxSlotsPerBatchRound: batched rounds carry up
  // to 8 slots, and a spill here would put an allocation on every accept.
  core::SmallVec<ObjectState*, 8> states;
  for (const auto& s : msg.slots) {
    ObjectState& st = table_.obj(s.object);
    if (!cfg_.test_unsafe_epochs && s.epoch < st.promised) {
      ok = false;
      break;
    }
    states.push_back(&st);
  }

  auto reply = pooled<AckAccept>();
  reply->req_id = msg.req_id;
  reply->acceptor = id_;
  reply->ack = ok;
  if (ok) {
    std::size_t i = 0;
    for (const auto& s : msg.slots) {
      ObjectState& st = *states[i++];
      if (st.owner != from || st.promised != s.epoch)
        ctx_.ownership(s.object, s.epoch, from, /*acquired=*/false);
      st.promised = std::max(st.promised, s.epoch);
      st.owner = from;  // Algorithm 2, line 18
      // Below the log base the slot was decided, delivered, and truncated;
      // a late accept there is outdated and its vote can never matter.
      if (s.instance < st.log.base()) continue;
      Slot& slot = st.log.at_or_create(s.instance);
      if (!slot.decided && s.epoch >= slot.accepted_epoch) {
        slot.accepted_epoch = s.epoch;
        slot.cmd = s.cmd;
        slot.batch = s.batch;
      }
    }
  } else {
    for (const auto& s : msg.slots) {
      const ObjectState* st = table_.find(s.object);
      if (st != nullptr && s.epoch < st->promised)
        reply->hints.push_back(ViewHint{s.object, st->promised, st->owner});
    }
  }
  ctx_.send(from, std::move(reply));
}

void M2PaxosReplica::handle_ack_accept(NodeId /*from*/, const AckAccept& msg) {
  auto it = accepts_.find(msg.req_id);
  if (it == accepts_.end()) return;
  AcceptRound& round = it->second;

  if (!msg.ack) {
    m_inc(stats::Counter::kAcceptNacks);
    apply_hints(msg.hints);
    const core::CommandId cmd = round.for_cmd;
    ctx_.cancel_timer(round.timer);
    const bool batched = !cmd.valid();
    SlotList slots = std::move(round.slots);
    accepts_.erase(it);
    if (batched) {
      // Batched flush round: every member retries individually (attempts
      // > 0 disqualifies them from re-batching; the assigned-slot anchor
      // makes the retries retransmit the same batched slot, idempotently).
      --batch_inflight_;
      for (const auto& s : slots) {
        if (s.batch != nullptr) {
          for (const core::CommandPtr& m : s.batch->cmds) retry_later(m->id);
        } else {
          retry_later(s.cmd->id);
        }
      }
      if (!batch_queue_.empty()) m_inc(stats::Counter::kBatchFlushPipeline);
      flush_batches(/*force=*/false);
    } else if (cmd.valid()) {
      retry_later(cmd);
    }
    return;
  }

  if (round.done) return;
  if (std::find(round.ackers.begin(), round.ackers.end(), msg.acceptor) !=
      round.ackers.end())
    return;  // duplicate delivery
  round.ackers.push_back(msg.acceptor);
  if (static_cast<int>(round.ackers.size()) < cfg_.classic_quorum()) return;
  round.done = true;

  // Quorum of ACKs: decide every slot locally and broadcast the decision.
  SlotList slots = std::move(round.slots);
  const core::CommandId cmd = round.for_cmd;
  ctx_.cancel_timer(round.timer);
  accepts_.erase(it);
  for (const auto& s : slots)
    decide_slot(s.object, s.instance, s.cmd, s.batch);
  if (!cmd.valid()) {
    // Batched flush round: settle every member of every slot, then let
    // the freed pipeline slot pull the next batch.
    for (const auto& s : slots) {
      if (s.batch != nullptr) {
        for (const core::CommandPtr& m : s.batch->cmds)
          settle_round_command(m->id);
      } else {
        settle_round_command(s.cmd->id);
      }
    }
  }
  ctx_.broadcast(pooled<Decide>(std::move(slots)), false);
  if (cmd.valid()) {
    auto pit = pending_.find(cmd);
    if (pit != pending_.end()) {
      pit->second.in_flight = false;
      maybe_report_commit(*pit->second.cmd);
      // If the round decided forced commands rather than this command on
      // some objects, re-coordinate for the remaining objects.
      if (!undecided_objects(*pit->second.cmd).empty()) coordinate(cmd);
    }
  } else {
    --batch_inflight_;
    if (!batch_queue_.empty()) m_inc(stats::Counter::kBatchFlushPipeline);
    flush_batches(/*force=*/false);
  }
  try_deliver();
}

// ---------------------------------------------------------------------
// Decision phase (Algorithm 3)
// ---------------------------------------------------------------------

void M2PaxosReplica::handle_decide(const Decide& msg) {
  for (const auto& s : msg.slots)
    decide_slot(s.object, s.instance, s.cmd, s.batch);
  for (const auto& s : msg.slots) {
    if (s.batch != nullptr) {
      for (const core::CommandPtr& m : s.batch->cmds)
        maybe_report_commit(*m);
    } else {
      maybe_report_commit(*s.cmd);
    }
  }
  try_deliver();
}

void M2PaxosReplica::maybe_report_commit(const core::Command& c) {
  auto it = pending_.find(c.id);
  if (it == pending_.end() || it->second.commit_reported) return;
  if (!table_.is_decided_everywhere(c)) return;
  it->second.commit_reported = true;
  m_span_commit(it->second.path, it->second.proposed_at);
  ctx_.committed(c);
}

void M2PaxosReplica::decide_slot(ObjectId l, Instance in,
                                 const core::CommandPtr& c,
                                 const core::CommandBatchPtr& batch) {
  ObjectState& st = table_.obj(l);
  // test_unsafe_epochs rebinds conflicts: the auditor, not an abort, reports.
  if (!OwnershipTable::set_decided(st, in, c, batch, cfg_.test_unsafe_epochs))
    return;
  ctx_.decided(l, in, *c);
  m_inc(stats::Counter::kDecidedSlots);
  m_record(stats::Histo::kSlotLogDepth,
           static_cast<std::int64_t>(st.log.size()));
  dirty_objects_.push_back(&st);
  if (in > st.last_appended + 1) {
    // Decision gap: an earlier decision for this object was missed (lost
    // Decide, partition). Anti-entropy will probe a peer for it.
    stuck_objects_.insert(l);
    start_sync_timer();
  }
}

void M2PaxosReplica::deliver_command(const core::CommandPtr& c,
                                     ObjectState* hint) {
  delivered_ids_.insert(c->id);
  if (!c->noop) {
    m_inc(stats::Counter::kDelivered);
  }
  // Advance the frontier of every object where c sits exactly at the
  // frontier (on crossing resolution, c may occupy a later slot of some
  // object; that slot is skipped when the frontier reaches it).
  //
  // A batched frontier slot can be advanced through its head here: repair
  // rounds may park `c` in a *foreign* object's log, and its delivery from
  // that log lands in this loop rather than in try_deliver's batch unroll.
  // Skipping the slot by head identity alone would orphan the tail members
  // (never delivered locally, but delivered everywhere else — an order
  // inversion once they are re-proposed), so collect the batch and unroll
  // the remaining members after c's own delivery callback below, keeping
  // the observer-visible order identical to the normal unroll (head before
  // tail).
  core::CommandBatchPtr tail_batch;
  for (ObjectId l2 : c->objects) {
    ObjectState& st2 =
        (hint != nullptr && hint->id == l2) ? *hint : table_.obj(l2);
    const Slot* s2 = st2.log.find(st2.last_appended + 1);
    if (s2 != nullptr && s2->decided && s2->cmd->id == c->id) {
      // Only a single-object command can head a batch, so at most one
      // batched slot is advanced per delivery.
      if (s2->batch != nullptr) tail_batch = s2->batch;
      advance_frontier(st2);
      dirty_objects_.push_back(&st2);
    }
  }
  auto pit = pending_.find(c->id);
  if (pit != pending_.end()) {
    if (!pit->second.commit_reported) {
      m_span_commit(pit->second.path, pit->second.proposed_at);
      ctx_.committed(*c);
    }
    m_span_deliver(pit->second.path, pit->second.proposed_at);
    ctx_.cancel_timer(pit->second.watchdog);
    pending_.erase(pit);
  }
  ctx_.deliver(*c);
  if (tail_batch != nullptr) {
    for (const core::CommandPtr& m : tail_batch->cmds) {
      if (delivered_ids_.contains(m->id)) continue;
      deliver_batch_member(m);
    }
  }
}

void M2PaxosReplica::deliver_batch_member(const core::CommandPtr& c) {
  // deliver_command minus the frontier advance: the caller advances the
  // batch's slot frontier once after unrolling every member.
  delivered_ids_.insert(c->id);
  if (!c->noop) {
    m_inc(stats::Counter::kDelivered);
  }
  auto pit = pending_.find(c->id);
  if (pit != pending_.end()) {
    if (!pit->second.commit_reported) {
      m_span_commit(pit->second.path, pit->second.proposed_at);
      ctx_.committed(*c);
    }
    m_span_deliver(pit->second.path, pit->second.proposed_at);
    ctx_.cancel_timer(pit->second.watchdog);
    pending_.erase(pit);
  }
  ctx_.deliver(*c);
}

void M2PaxosReplica::schedule_crossing_check() {
  if (crossing_timer_ != core::kInvalidTimer || crashed_) return;
  crossing_timer_ =
      ctx_.set_timer(kCrossingCheckInterval, [this] {
        crossing_timer_ = core::kInvalidTimer;
        if (crashed_ || stuck_objects_.empty()) return;
        if (delivering_) return;  // re-armed by the active try_deliver
        delivering_ = true;
        while (resolve_crossings()) {
          delivering_ = false;
          try_deliver();  // drain normal progress unlocked by the cycle
          delivering_ = true;
        }
        delivering_ = false;
      });
}

void M2PaxosReplica::try_deliver() {
  if (delivering_) return;
  delivering_ = true;
  for (;;) {
    while (!dirty_objects_.empty()) {
      ObjectState& st = *dirty_objects_.front();
      const ObjectId l = st.id;
      dirty_objects_.pop_front();

      for (;;) {
        const Slot* s = st.log.find(st.last_appended + 1);
        if (s == nullptr || !s->decided) break;
        // Keep the command alive across the frontier advance: GC may
        // truncate the very slot holding it. A handle copy, not a deep
        // command copy.
        const core::CommandPtr c = s->cmd;
        const core::CommandBatchPtr batch = s->batch;
        if (batch != nullptr) {
          // Batched slot: every member is a single-object command on `l`,
          // so the whole batch is deliverable the moment its slot reaches
          // the frontier — no cross-object wait. Unroll in batch order
          // (per-member dedup guards members retried individually after a
          // round timeout), then advance the frontier once for the slot.
          for (const core::CommandPtr& m : batch->cmds) {
            if (delivered_ids_.contains(m->id)) continue;
            deliver_batch_member(m);
          }
          advance_frontier(st);
          continue;
        }

        if (delivered_ids_.contains(c->id)) {
          // Duplicate decision of an already-delivered command (possible
          // after retransmissions and crossing resolution); skip the slot.
          advance_frontier(st);
          continue;
        }

        // Deliverable iff c sits at the frontier of every object it
        // accesses (Algorithm 3, line 12). `st`'s own frontier is where
        // c was just found, so only the other objects need checking.
        bool ready = true;
        for (ObjectId l2 : c->objects) {
          if (l2 == l) continue;
          const ObjectState& st2 = table_.obj(l2);
          const Slot* s2 = st2.log.find(st2.last_appended + 1);
          if (s2 == nullptr || !s2->decided || s2->cmd->id != c->id) {
            ready = false;
            break;
          }
        }
        if (!ready) {
          stuck_objects_.insert(l);
          // A frontier that moved to a waiting command is the only place a
          // new deliverable wait cycle can appear (see resolve_crossings).
          if (!st.crossing_root) {
            st.crossing_root = true;
            crossing_roots_.push_back(&st);
          }
          // Transitive demand: c may be waiting on an object whose frontier
          // decision this node simply never received (lost Decide during a
          // partition, with no later decision to expose the gap). That
          // object generates no evidence of its own, so mark it stuck here
          // — the sync probe fetches missing frontiers, one hop per round,
          // until the wait chain is grounded.
          for (ObjectId l2 : c->objects) {
            const ObjectState& st2 = table_.obj(l2);
            const Slot* s2 = st2.log.find(st2.last_appended + 1);
            if (s2 == nullptr || !s2->decided) stuck_objects_.insert(l2);
          }
          start_sync_timer();
          break;
        }
        deliver_command(c, &st);
      }
    }
    // No normal progress possible. Wait cycles (rare, only after partial
    // forced recovery) are broken by the rate-limited crossing check.
    if (!stuck_objects_.empty()) schedule_crossing_check();
    break;
  }
  delivering_ = false;
}

bool M2PaxosReplica::resolve_crossings() {
  // Delivers every sink SCC of >= 2 frontier commands whose members all
  // have decided frontier slots on every object they access: the members
  // wait only on each other, so no decision still to come can let one of
  // them go first. The SCCs are a deterministic function of the decided
  // table, so every node resolves identically (DESIGN.md §5a #6).
  //
  // Such an SCC appears only when the frontier of one of its members'
  // objects changes, and then holds that object's new frontier command;
  // try_deliver queues exactly those objects (crossing_roots_) when their
  // new frontier command has to wait. So the search starts from the roots
  // alone, and stops at an undecided frontier, a delivered command (never
  // delivered twice) or a command already known to reach one: no member
  // of a sink SCC can reach any of those.
  m_inc(stats::Counter::kCrossingChecks);

  // The decided command at l's frontier, or null if the slot is undecided.
  auto head = [this](ObjectId l) -> const core::CommandPtr* {
    const ObjectState& st = table_.obj(l);
    const Slot* s = st.log.find(st.last_appended + 1);
    return s != nullptr && s->decided ? &s->cmd : nullptr;
  };
  // Iterative Tarjan. A command is on the stack while its SCC is open, then
  // settles as blocked (it reaches a blocker, or waits on nothing) or as a
  // member of a deliverable SCC. A wait on any settled command blocks.
  enum class Mark : std::uint8_t { kOnStack, kBlocked, kDeliverable };
  struct Node {
    std::uint32_t index;
    std::uint32_t low;
    Mark mark;
  };
  std::unordered_map<core::CommandId, Node> nodes;
  struct Frame {
    const core::CommandPtr* cmd;
    std::size_t next_object;
  };
  std::vector<Frame> path;                          // DFS call stack
  std::vector<const core::CommandPtr*> stack;       // Tarjan stack
  std::vector<std::vector<core::CommandPtr>> sccs;  // deliverable, found

  // Everything still on the Tarjan stack reaches the blocker just met.
  auto block_stack = [&] {
    for (const core::CommandPtr* c : stack)
      nodes.at((*c)->id).mark = Mark::kBlocked;
    stack.clear();
    path.clear();
  };
  auto waits_on_blocker = [&](const core::Command& c) {
    for (ObjectId l : c.objects) {
      const core::CommandPtr* w = head(l);
      if (w == nullptr) return true;
      if ((*w)->id == c.id) continue;
      if (delivered_ids_.contains((*w)->id)) return true;
      const auto it = nodes.find((*w)->id);
      if (it != nodes.end() && it->second.mark != Mark::kOnStack) return true;
    }
    return false;
  };
  // Opens c, or blocks the whole stack if c waits on a blocker.
  auto enter = [&](const core::CommandPtr* c) {
    const auto n = static_cast<std::uint32_t>(nodes.size());
    nodes.emplace((*c)->id, Node{n, n, Mark::kOnStack});
    stack.push_back(c);
    m_inc(stats::Counter::kCrossingHeadsVisited);
    if (waits_on_blocker(**c)) {
      block_stack();
    } else {
      path.push_back(Frame{c, 0});
    }
  };

  for (ObjectState* root : crossing_roots_) {
    root->crossing_root = false;
    const core::CommandPtr* c = head(root->id);
    if (c == nullptr || nodes.count((*c)->id) > 0 ||
        delivered_ids_.contains((*c)->id))
      continue;
    enter(c);
    while (!path.empty()) {
      const core::Command& v = **path.back().cmd;
      Node& nv = nodes.at(v.id);
      if (path.back().next_object < v.objects.size()) {
        const core::CommandPtr* w = head(v.objects[path.back().next_object++]);
        if ((*w)->id == v.id) continue;
        const auto it = nodes.find((*w)->id);
        if (it == nodes.end()) {
          enter(w);
        } else if (it->second.mark == Mark::kOnStack) {
          nv.low = std::min(nv.low, it->second.index);
        } else {
          block_stack();
        }
        continue;
      }
      path.pop_back();
      if (nv.low == nv.index) {
        // v roots an SCC: every member's waits stay inside it. A singleton
        // waits on nothing and is left to the normal delivery path.
        std::vector<core::CommandPtr> scc;
        const core::CommandPtr* m;
        do {
          m = stack.back();
          stack.pop_back();
          scc.push_back(*m);
        } while ((*m)->id != v.id);
        const Mark settled =
            scc.size() >= 2 ? Mark::kDeliverable : Mark::kBlocked;
        for (const core::CommandPtr& member : scc)
          nodes.at(member->id).mark = settled;
        if (settled == Mark::kDeliverable) sccs.push_back(std::move(scc));
      }
      if (path.empty()) break;
      Node& parent = nodes.at((*path.back().cmd)->id);
      if (nv.mark == Mark::kOnStack) {
        parent.low = std::min(parent.low, nv.low);
      } else {
        block_stack();  // the parent waits on an SCC outside its own
      }
    }
  }
  crossing_roots_.clear();
  if (sccs.empty()) return false;

  // Two SCCs found in one check share no object (a shared object's frontier
  // command would sit in both), so their relative order is free under
  // Generalized Consensus; fix it by smallest id, members in id order.
  const auto by_id = [](const core::CommandPtr& a, const core::CommandPtr& b) {
    return a->id < b->id;
  };
  for (auto& scc : sccs) std::sort(scc.begin(), scc.end(), by_id);
  std::sort(sccs.begin(), sccs.end(), [&](const auto& a, const auto& b) {
    return by_id(a.front(), b.front());
  });
  for (const auto& scc : sccs) {
    for (const core::CommandPtr& c : scc) deliver_command(c, nullptr);
    m_inc(stats::Counter::kCrossingDelivered, scc.size());
  }
  return true;
}

// ---------------------------------------------------------------------
// Acquisition phase (Algorithm 4)
// ---------------------------------------------------------------------

void M2PaxosReplica::start_acquisition(PendingCommand& pc,
                                       const core::ObjectList& objects,
                                       bool force_prepare_all) {
  // Only acquire what we do not hold: re-preparing an object we own would
  // bump our own epoch and abort every in-flight fast-path accept on it.
  // (Repair rounds force the prepare: its vote collection and no-op hole
  // filling are the whole point there.)
  core::ObjectList owned;
  std::vector<Prepare::Entry> entries;
  for (ObjectId l : objects) {
    ObjectState& st = table_.obj(l);
    if (!force_prepare_all && st.owner == id_ &&
        st.promised == st.owned_epoch) {
      owned.push_back(l);
    } else {
      entries.push_back(
          Prepare::Entry{l, table_.first_undecided(l), st.promised + 1});
    }
  }
  if (entries.empty()) {
    // Everything already owned (a race resolved in our favor).
    start_fast_accept(pc, objects);
    return;
  }
  m_inc(stats::Counter::kAcquisitions);
  const std::uint64_t req = next_req_++;
  PrepareRound round;
  round.cmd = pc.cmd;
  round.prepare = pooled<Prepare>(req, std::move(entries));
  round.owned_objects = std::move(owned);
  round.started_at = ctx_.now();
  pc.in_flight = true;
  // The round keeps the sent message: its entries are built once.
  const net::PayloadPtr msg = round.prepare;
  prepares_.emplace(req, std::move(round));
  ctx_.broadcast(msg, true);
}

void M2PaxosReplica::handle_prepare(NodeId from, const Prepare& msg) {
  bool ok = true;
  for (const auto& e : msg.entries) {
    const ObjectState* st = table_.find(e.object);
    if (st != nullptr && e.epoch <= st->promised) {
      ok = false;
      break;
    }
  }

  auto reply = pooled<AckPrepare>();
  reply->req_id = msg.req_id;
  reply->acceptor = id_;
  reply->ack = ok;
  if (ok) {
    for (const auto& e : msg.entries) {
      ObjectState& st = table_.obj(e.object);
      st.promised = e.epoch;
      reply->delivered_floors.emplace_back(e.object, st.last_appended);
      // Report every vote (accepted or decided) at or above the prepared
      // position — the decs of Algorithm 4, covering the whole suffix.
      // Positions below the log base were truncated by frontier GC; they
      // are at or below this node's delivered floor just reported, so the
      // acquirer treats them as decided-elsewhere, never as free.
      for (Instance in = std::max(e.from_instance, st.log.base());
           in < st.log.end(); ++in) {
        const Slot& slot = *st.log.find(in);
        if (slot.cmd == nullptr) continue;
        reply->votes.emplace_back(e.object, in, slot.accepted_epoch,
                                  slot.decided, slot.cmd);
        reply->votes.back().batch = slot.batch;
      }
    }
  } else {
    for (const auto& e : msg.entries) {
      const ObjectState* st = table_.find(e.object);
      if (st != nullptr && e.epoch <= st->promised)
        reply->hints.push_back(ViewHint{e.object, st->promised, st->owner});
    }
  }
  ctx_.send(from, std::move(reply));
}

void M2PaxosReplica::handle_ack_prepare(NodeId /*from*/, const AckPrepare& msg) {
  auto it = prepares_.find(msg.req_id);
  if (it == prepares_.end()) return;
  PrepareRound& round = it->second;

  if (!msg.ack) {
    m_inc(stats::Counter::kPrepareNacks);
    apply_hints(msg.hints);
    const core::CommandId cmd = round.cmd->id;
    prepares_.erase(it);
    retry_later(cmd);
    return;
  }

  if (std::find(round.ackers.begin(), round.ackers.end(), msg.acceptor) !=
      round.ackers.end())
    return;  // duplicate delivery
  round.ackers.push_back(msg.acceptor);
  round.votes.insert(round.votes.end(), msg.votes.begin(), msg.votes.end());
  for (const auto& [obj, floor] : msg.delivered_floors) {
    auto [it2, inserted] = round.floors.try_emplace(obj, floor);
    if (!inserted && floor > it2->second) it2->second = floor;
  }
  if (static_cast<int>(round.ackers.size()) < cfg_.classic_quorum()) return;

  PrepareRound done = std::move(round);
  prepares_.erase(it);
  finish_acquisition(std::move(done));
}

void M2PaxosReplica::finish_acquisition(PrepareRound round) {
  // Quorum of promises in hand: the ownership transition is decided here,
  // even though the re-accepts below still have to run.
  if (round.started_at >= 0)
    m_record(stats::Histo::kAcquisitionNs, ctx_.now() - round.started_at);
  // SELECT (Algorithm 4): per slot keep the vote with the highest accepted
  // epoch; a decided vote always wins.
  std::map<std::pair<ObjectId, Instance>, const AckPrepare::Vote*> best;
  for (const auto& v : round.votes) {
    auto key = std::make_pair(v.object, v.instance);
    auto [bit, inserted] = best.try_emplace(key, &v);
    if (!inserted) {
      const AckPrepare::Vote* cur = bit->second;
      if ((v.decided && !cur->decided) ||
          (v.decided == cur->decided && v.accepted_epoch > cur->accepted_epoch))
        bit->second = &v;
    }
  }

  SlotList slots;
  for (const auto& e : round.prepare->entries) {
    ObjectState& st = table_.obj(e.object);
    // The quorum promised e.epoch, but if this node has since observed a
    // higher epoch (a competing Prepare or an Accept processed while our
    // acks were in flight) the acquisition is already stale: every Accept
    // we issue at e.epoch would be rejected by the promised-epoch check.
    // Claiming ownership anyway would only advertise a dead epoch — skip
    // the object and let the watchdog re-coordinate against the new owner.
    if (st.promised > e.epoch) continue;
    st.promised = e.epoch;
    st.owner = id_;
    st.owned_epoch = e.epoch;
    ctx_.ownership(e.object, e.epoch, id_, /*acquired=*/true);

    // Instances at or below the quorum's delivered floor are decided with
    // values that may be garbage-collected everywhere we can see; never
    // write there (any decided instance above the floor is covered by a
    // surviving vote, by quorum intersection). Anti-entropy fetches the
    // values if this node still needs them for delivery.
    const auto fit = round.floors.find(e.object);
    const Instance floor = fit == round.floors.end() ? 0 : fit->second;
    if (floor > st.last_appended) {
      // A quorum already delivered past our frontier: the missing decisions
      // will never be re-proposed, so only a sync probe can fetch them.
      stuck_objects_.insert(e.object);
      start_sync_timer();
    }
    const Instance from = std::max(e.from_instance, floor + 1);

    // Highest voted instance for this object.
    Instance max_voted = from - 1;
    for (const auto& v : round.votes)
      if (v.object == e.object) max_voted = std::max(max_voted, v.instance);

    // Re-accept every vote in [from, max_voted]; fill holes with no-ops so
    // delivery frontiers cannot stall behind lost accepts.
    bool cmd_placed = false;
    for (Instance in = from; in <= max_voted; ++in) {
      auto bit = best.find({e.object, in});
      if (bit != best.end()) {
        // Re-accept the whole slot value: for a batched vote, dropping the
        // tail would decide the head alone and lose the tail members.
        slots.emplace_back(e.object, in, e.epoch, bit->second->cmd,
                           bit->second->batch);
        if (bit->second->cmd->id == round.cmd->id) cmd_placed = true;
        if (bit->second->batch != nullptr) {
          for (const core::CommandPtr& m : bit->second->batch->cmds)
            if (m->id == round.cmd->id) cmd_placed = true;
        }
      } else {
        slots.emplace_back(e.object, in, e.epoch, make_noop(e.object));
        m_inc(stats::Counter::kNoopsFilled);
      }
    }
    if (cmd_placed) {
      // The command already occupies a forced slot; the next free position
      // is max_voted+1 (assigning max_voted+2 would leave a permanent hole
      // that stalls the delivery frontier).
      st.next_slot = max_voted + 1;
    } else {
      slots.emplace_back(e.object, max_voted + 1, e.epoch, round.cmd);
      st.next_slot = max_voted + 2;
    }
  }

  // Objects we already owned ride along at their existing epoch; any that
  // were stolen while the prepare was in flight are simply left out — the
  // command stays undecided there and coordination re-runs for them.
  for (ObjectId l : round.owned_objects) {
    ObjectState& st = table_.obj(l);
    if (st.owner != id_ || st.promised != st.owned_epoch) continue;
    if (table_.is_decided_on(*round.cmd, l)) continue;
    const Instance in = std::max(st.next_slot, st.last_appended + 1);
    st.next_slot = in + 1;
    slots.emplace_back(l, in, st.owned_epoch, round.cmd);
  }

  if (slots.empty()) {
    // Every entry went stale mid-flight; nothing to accept.
    retry_later(round.cmd->id);
    return;
  }
  send_accept(round.cmd->id, std::move(slots));
}

// ---------------------------------------------------------------------
// Plumbing
// ---------------------------------------------------------------------

void M2PaxosReplica::handle_propose(const Propose& msg) { propose(msg.cmd); }

void M2PaxosReplica::retry_later(core::CommandId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  PendingCommand& pc = it->second;
  pc.in_flight = false;
  ++pc.attempts;
  m_inc(stats::Counter::kRetries);

  const int shift = std::min(pc.attempts, 6);
  const core::Time base =
      std::min(core::kRetryBackoffMax, kRetryBackoffMin << shift);
  const core::Time delay =
      base / 2 + static_cast<core::Time>(ctx_.rng().uniform(
                     static_cast<std::uint64_t>(base)));
  ctx_.cancel_timer(pc.watchdog);
  pc.watchdog = ctx_.set_timer(delay, [this, id] { coordinate(id); });
}

void M2PaxosReplica::apply_hints(const std::vector<ViewHint>& hints) {
  for (const auto& h : hints) {
    ObjectState& st = table_.obj(h.object);
    if (h.epoch > st.promised) {
      st.promised = h.epoch;
      if (h.owner != kNoNode) st.owner = h.owner;
    }
  }
}

core::CommandPtr M2PaxosReplica::make_noop(ObjectId l) {
  // Noop ids live in a reserved per-node sequence range above 2^40 so they
  // can never collide with client command ids.
  auto noop = pooled<core::Command>(
      core::CommandId::make(id_, (1ULL << 40) + noop_seq_++),
      core::ObjectList{l}, 0u);
  noop->noop = true;
  return noop;
}

void M2PaxosReplica::on_message(NodeId from, const net::Payload& payload) {
  if (crashed_) return;
  switch (payload.kind()) {
    case net::kKindM2Paxos + 1:
      handle_propose(static_cast<const Propose&>(payload));
      break;
    case net::kKindM2Paxos + 2:
      handle_accept(from, static_cast<const Accept&>(payload));
      break;
    case net::kKindM2Paxos + 3:
      handle_ack_accept(from, static_cast<const AckAccept&>(payload));
      break;
    case net::kKindM2Paxos + 4:
      handle_decide(static_cast<const Decide&>(payload));
      break;
    case net::kKindM2Paxos + 5:
      handle_prepare(from, static_cast<const Prepare&>(payload));
      break;
    case net::kKindM2Paxos + 6:
      handle_ack_prepare(from, static_cast<const AckPrepare&>(payload));
      break;
    case net::kKindM2Paxos + 7:
      handle_sync_request(from, static_cast<const SyncRequest&>(payload));
      break;
    case net::kKindM2Paxos + 8:
      handle_sync_reply(from, static_cast<const SyncReply&>(payload));
      break;
    default:
      break;  // not ours (e.g. heartbeats)
  }
}

}  // namespace m2::m2p
