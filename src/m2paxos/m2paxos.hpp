#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/command.hpp"
#include "core/config.hpp"
#include "core/owner_map.hpp"
#include "core/pool.hpp"
#include "core/replica.hpp"
#include "core/time.hpp"
#include "m2paxos/delivered_window.hpp"
#include "m2paxos/messages.hpp"
#include "m2paxos/ownership.hpp"

namespace m2::m2p {

/// Crossing resolution (DESIGN.md §5a #6) is a recovery path: the
/// (deterministic) wait-cycle search runs at most once per interval, not
/// per message, and covers the frontiers that moved since the last search.
inline constexpr core::Time kCrossingCheckInterval = 2 * core::kMillisecond;

/// M²Paxos replica: Generalized Consensus via per-object Multi-Paxos
/// incarnations and object ownership (Algorithms 1-4 of the paper).
///
/// Three paths for a proposed command c:
///  - fast (2 delays): this node owns all of c.LS → Accept/AckAccept with a
///    classic quorum;
///  - forward (3 delays): another single node owns all of c.LS → Propose
///    is sent there;
///  - acquisition (>= 4 delays): Prepare with bumped epochs per object,
///    forced re-proposals of pending commands, no-op hole filling, then
///    Accept.
///
/// Deviations from the paper's pseudocode (full list with rationale and
/// the test pinning each one: DESIGN.md §5a):
///  - AckAccept goes to the proposer only, which then broadcasts Decide
///    (standard learning optimization; pseudocode broadcasts every ack);
///  - an ownership epoch covers the whole per-object instance suffix, and
///    owners keep a next-slot cursor, so a stable owner pipelines commands
///    (this is exactly "one incarnation of Multi-Paxos per object");
///  - recovery fills undecided holes below forced votes with no-op
///    commands, as EPaxos does, so delivery frontiers cannot stall;
///  - fast-path retries retransmit the same slots; cross-object wait
///    cycles left by partial forced recovery are broken deterministically
///    (sink SCCs in command-id order);
///  - mixed-owner commands forward to the plurality owner, which acquires
///    only what it lacks; repeated losers route through the conflict
///    leader (§IV-C); promises carry delivered floors so frontier GC of
///    old slots stays safe; anti-entropy syncs missed decisions.
///
/// Memory/allocation discipline (the protocol hot-path overhaul): slot
/// logs are flat rings truncated behind the delivery frontier
/// (cfg.gc_margin), commands travel as shared immutable handles, and
/// per-command bookkeeping (pending/accept rounds, dedup window, payload
/// control blocks) recycles through a size-binned pool — the steady-state
/// owned-object fast path performs no heap allocation per decided command
/// (pinned by bench/micro_protocol and tests/alloc_regression).
class M2PaxosReplica final : public core::Replica {
 public:
  M2PaxosReplica(NodeId id, const core::ClusterConfig& cfg, core::Context& ctx);

  void propose(const core::Command& c) override;
  void on_message(NodeId from, const net::Payload& payload) override;
  core::RxCost rx_cost(const net::Payload& payload) const override;
  void on_crash() override;
  void on_recover() override;

  /// Pre-assigns ownership of `l` to `owner` on this replica (must be
  /// called identically on all replicas before any proposal). Models a
  /// cluster whose ownership map is already stable, which is the paper's
  /// steady-state evaluation setting.
  void preassign_owner(ObjectId l, NodeId owner);

  /// Installs a partition map applied lazily to objects first seen later;
  /// see OwnershipTable::set_default_owner.
  void set_default_owner(core::OwnerMap map) {
    table_.set_default_owner(map);
  }

  const OwnershipTable& table() const { return table_; }

  /// Capacity provisioning: pre-extends the pooled-command freelist by
  /// `n` blocks. The live-command population (slots retained below the GC
  /// margin plus the in-flight pipeline) drifts to new maxima like any
  /// queueing tail, and each new maximum costs one heap allocation;
  /// benchmarks and tests that assert an allocation-free steady state call
  /// this after warmup so the slack absorbs the drift.
  void prewarm_commands(std::size_t n);
  /// Introspection for tests and diagnostics.
  std::size_t pending_count() const { return pending_.size(); }
  std::vector<core::CommandId> pending_ids() const {
    std::vector<core::CommandId> out;
    for (const auto& [id, pc] : pending_) out.push_back(id);
    return out;
  }
  std::vector<ObjectId> stuck_objects() const {
    return {stuck_objects_.begin(), stuck_objects_.end()};
  }
 private:
  struct PendingCommand {
    core::CommandPtr cmd;
    int attempts = 0;
    bool in_flight = false;  // an Accept or Prepare round is outstanding
    bool commit_reported = false;
    core::TimerHandle watchdog = core::kInvalidTimer;
    /// Slots assigned by a previous fast accept; reused on retry so a lost
    /// round is retransmitted instead of leaving a hole at the old slot.
    SlotList assigned_slots;
    // Metrics: local propose time and the decision path taken (degrades
    // fast → forwarded/slow at the corresponding coordinate() branch).
    core::Time proposed_at = -1;
    stats::Path path = stats::Path::kFast;
  };
  struct AcceptRound {
    SlotList slots;
    /// The single command this round was coordinated for; invalid for
    /// batched flush rounds, which settle every member per slot instead.
    core::CommandId for_cmd;
    core::SmallVec<NodeId, 8> ackers;  // deduplicated (network may duplicate)
    bool done = false;
    /// Batched rounds only: frees the pipeline slot if the quorum never
    /// answers (members are retried individually by their own watchdogs).
    core::TimerHandle timer = core::kInvalidTimer;
  };
  struct PrepareRound {
    core::CommandPtr cmd;
    /// The Prepare as sent; its entries are the objects being acquired.
    std::shared_ptr<const Prepare> prepare;
    /// Max delivered frontier per object reported by the promise quorum;
    /// slots at or below it are decided and must not be written.
    std::unordered_map<ObjectId, Instance> floors;
    /// Objects of cmd the proposer already owned when the round started;
    /// they are not re-prepared (bumping our own epoch would NACK all of
    /// our in-flight fast-path accepts) — the final Accept carries their
    /// slots at the existing owned epoch.
    core::ObjectList owned_objects;
    core::SmallVec<NodeId, 8> ackers;  // deduplicated
    std::vector<AckPrepare::Vote> votes;
    /// Metrics: when the acquisition round was started (kAcquisitionNs).
    core::Time started_at = -1;
  };

  /// Hash containers on the per-command hot path draw their nodes from the
  /// replica's pool, so steady-state insert/erase churn recycles instead
  /// of hitting the global heap.
  template <typename K, typename V>
  using PooledMap =
      std::unordered_map<K, V, std::hash<K>, std::equal_to<K>,
                         core::PoolAlloc<std::pair<const K, V>>>;
  template <typename T>
  using PooledSet = std::unordered_set<T, std::hash<T>, std::equal_to<T>,
                                       core::PoolAlloc<T>>;
  template <typename T>
  using PooledDeque = std::deque<T, core::PoolAlloc<T>>;

  /// Pool-backed payload construction: the shared_ptr control block and
  /// object live in one recycled block (see core/pool.hpp for lifetime).
  template <typename T, typename... Args>
  std::shared_ptr<T> pooled(Args&&... args) {
    return core::pool_make_shared<T>(pool_, std::forward<Args>(args)...);
  }

  // --- Coordination phase (Algorithm 1) -----------------------------
  void coordinate(core::CommandId id);
  void start_fast_accept(PendingCommand& pc, const core::ObjectList& objects);
  // --- Batching (Config::Batching; off by default) --------------------
  /// Queues a single-object fast-path command on the replica-wide batch
  /// accumulator instead of starting its own accept round.
  void enqueue_batch(PendingCommand& pc);
  /// Closes and sends batched accept rounds while the pipeline has room.
  /// `force` flushes partial batches (window expiry / pipeline drain);
  /// without it only full batches close.
  void flush_batches(bool force);
  /// Arms the batch window unless it is already armed: a partial batch
  /// waits at most batch_window before the timer force-flushes it (counted
  /// as a window flush).
  void arm_batch_window();
  /// Builds one accept round from the queue front (grouping commands by
  /// object into multi-command slots) and sends it. Returns false when
  /// nothing sendable was queued.
  bool send_batched_round();
  /// Settles one batch member after its slot decided: clears in_flight,
  /// reports the commit, and re-coordinates if somehow still undecided.
  void settle_round_command(core::CommandId id);
  // --- Accept phase (Algorithm 2) ------------------------------------
  /// Returns the round's req id (batched flushes attach a backstop timer).
  std::uint64_t send_accept(core::CommandId for_cmd, SlotList slots);
  void handle_accept(NodeId from, const Accept& msg);
  void handle_ack_accept(NodeId from, const AckAccept& msg);
  // --- Decision phase (Algorithm 3) -----------------------------------
  void handle_decide(const Decide& msg);
  void decide_slot(ObjectId l, Instance in, const core::CommandPtr& c,
                   const core::CommandBatchPtr& batch = nullptr);
  void maybe_report_commit(const core::Command& c);
  void try_deliver();
  /// Appends `c` to the local C-struct and advances frontiers. `hint`, if
  /// non-null, is the already-looked-up state of one of c's objects (the
  /// common single-object command then needs no table lookup at all).
  void deliver_command(const core::CommandPtr& c, ObjectState* hint);
  /// Ledger half of delivery for one batch member: dedup bookkeeping,
  /// C-struct append, pending cleanup, deliver callback — no frontier
  /// advance (the batch delivery loop advances it once per slot).
  void deliver_batch_member(const core::CommandPtr& c);
  /// Arms the one-shot crossing-resolution timer (rate limiting: one
  /// search covers every frontier that moved since the last, so it need
  /// not run per message; running it late only delays delivery, never
  /// changes it).
  void schedule_crossing_check();
  /// Breaks cross-order waits (command c before d on one object, after it
  /// on another — possible when recovery forces a command on a subset of
  /// its objects) by delivering wait-for cycles in deterministic id order.
  /// Searches only from the frontiers queued in crossing_roots_, so its
  /// cost follows what changed since the last check, not how many
  /// frontiers wait. Returns true if any command was delivered.
  bool resolve_crossings();
  // --- Acquisition phase (Algorithm 4) ---------------------------------
  /// `force_prepare_all` makes even currently-owned objects go through the
  /// prepare (used by delivery repair, where the point of the round is to
  /// surface lost votes and fill holes, not to gain ownership).
  void start_acquisition(PendingCommand& pc, const core::ObjectList& objects,
                         bool force_prepare_all = false);
  void handle_prepare(NodeId from, const Prepare& msg);
  void handle_ack_prepare(NodeId from, const AckPrepare& msg);
  void finish_acquisition(PrepareRound round);
  // --- anti-entropy (extension, DESIGN.md §5a) -----------------------
  void start_sync_timer();
  void sync_tick();
  void handle_sync_request(NodeId from, const SyncRequest& msg);
  void handle_sync_reply(NodeId from, const SyncReply& msg);
  bool send_sync_probe(NodeId peer);

  // --- plumbing ---------------------------------------------------------
  void handle_propose(const Propose& msg);
  void retry_later(core::CommandId id);
  void arm_watchdog(PendingCommand& pc);
  /// Collects the objects whose missing/undecided frontier decisions
  /// (transitively) block `root` from delivering locally.
  void collect_blocked(const core::Command& root, core::ObjectList& blocked);
  void apply_hints(const std::vector<ViewHint>& hints);
  core::CommandPtr make_noop(ObjectId l);
  core::ObjectList undecided_objects(const core::Command& c) const;
  /// Moves `st`'s delivery frontier past its delivered (or skipped) slot,
  /// then truncates the log below the new frontier minus cfg.gc_margin,
  /// bounding per-object log memory.
  void advance_frontier(ObjectState& st);

  core::PoolRef pool_ = core::make_pool();
  /// cfg_.batching as consumed (pipeline_depth/batch_max_commands clamped).
  core::ClusterConfig::Batching bcfg_;
  OwnershipTable table_;
  PooledMap<core::CommandId, PendingCommand> pending_;
  PooledMap<std::uint64_t, AcceptRound> accepts_;
  PooledMap<std::uint64_t, PrepareRound> prepares_;
  /// Dedup window over delivered ids: per-proposer bitmaps, O(1) probes
  /// (see delivered_window.hpp — the hash-set version dominated delivery).
  DeliveredWindow delivered_ids_;
  /// Objects whose frontier may have advanced, queued as stable table
  /// pointers so the delivery loop skips the hash lookup per entry.
  PooledDeque<ObjectState*> dirty_objects_;
  /// Objects whose delivery frontier cannot move right now: a decided
  /// command waiting on other objects, a decision gap, or an undecided
  /// frontier such a command waits on. Drives anti-entropy and arms the
  /// crossing check.
  PooledSet<ObjectId> stuck_objects_;
  /// Objects whose frontier moved to a decided, waiting command since the
  /// last crossing check (each at most once, see ObjectState::
  /// crossing_root): the only roots a wait-cycle search needs.
  std::vector<ObjectState*> crossing_roots_;
  /// Earliest time another delivery-repair acquisition may target each
  /// object (see coordinate(); repairs are deduplicated per object).
  PooledMap<ObjectId, core::Time> repair_cooldown_;
  /// Batch accumulator (replica-wide): queued fast-path commands awaiting
  /// a flush, FIFO. Entries are command ids — stale ones (rerouted,
  /// delivered, ownership lost) are skipped at flush time.
  PooledDeque<core::CommandId> batch_queue_;
  std::size_t batch_queued_bytes_ = 0;
  int batch_inflight_ = 0;  // outstanding batched accept rounds
  core::TimerHandle batch_timer_ = core::kInvalidTimer;  // window close
  bool delivering_ = false;  // reentrancy guard for try_deliver
  std::uint64_t next_req_ = 1;
  std::uint64_t noop_seq_ = 0;
  core::TimerHandle sync_timer_ = core::kInvalidTimer;
  core::TimerHandle crossing_timer_ = core::kInvalidTimer;
  bool crashed_ = false;
};

}  // namespace m2::m2p
