#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/command.hpp"
#include "core/config.hpp"
#include "core/failure_detector.hpp"
#include "core/replica.hpp"
#include "core/time.hpp"
#include "net/wire.hpp"

namespace m2::mp {

using core::Command;
using core::CommandBatchPtr;
using core::CommandId;
using core::CommandPtr;

/// Ballot number; ballot b is led by node (b mod N), so competing
/// candidates never collide on a ballot.
using Ballot = std::uint64_t;

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// Client/replica forwarding of a command to the current leader.
struct ClientPropose final
    : net::Message<ClientPropose, net::kKindMultiPaxos + 1> {
  static constexpr const char* kName = "MP.Propose";
  ClientPropose() = default;
  explicit ClientPropose(Command c) : cmd(std::move(c)) {}
  Command cmd;

  static auto fields(auto& m, auto& v) { return v(m.cmd); }
};

/// Phase-1a: new-leader prepare covering the whole log suffix from `from_slot`.
struct Prepare final : net::Message<Prepare, net::kKindMultiPaxos + 2> {
  static constexpr const char* kName = "MP.Prepare";
  Prepare() = default;
  Prepare(Ballot b, std::uint64_t from) : ballot(b), from_slot(from) {}
  Ballot ballot = 0;
  std::uint64_t from_slot = 0;

  static auto fields(auto& m, auto& v) { return v(m.ballot, m.from_slot); }
};

/// Phase-1b: promise plus every vote at or above the prepared slot.
///
/// `first_undelivered` is the acceptor's delivery frontier: slots below it
/// are committed and their acceptor records have been pruned, so they can
/// contribute no votes. A new leader must treat every slot below the
/// quorum's maximum frontier as decided elsewhere and never re-propose it.
struct Promise final : net::Message<Promise, net::kKindMultiPaxos + 3> {
  static constexpr const char* kName = "MP.Promise";
  struct Vote {
    std::uint64_t slot = 0;
    Ballot vballot = 0;
    /// The voted slot value: its head and, for a batched slot, the whole
    /// batch. A new leader must re-propose the whole batch; the head alone
    /// would drop the tail members.
    CommandPtr cmd;
    CommandBatchPtr batch;

    static auto fields(auto& m, auto& v) {
      return v(m.slot, m.vballot, net::batched(m.cmd, m.batch));
    }
  };
  Ballot ballot = 0;
  NodeId acceptor = kNoNode;
  bool ack = false;
  std::uint64_t first_undelivered = 1;
  std::vector<Vote> votes;

  static auto fields(auto& m, auto& v) {
    return v(m.ballot, m.acceptor, m.ack, m.first_undelivered, m.votes);
  }
};

/// Phase-2a: leader proposes `cmd` in `slot` at `ballot`. With command
/// batching, `batch` is the whole slot value, head first (null for a plain
/// slot), exactly as an M²Paxos SlotValue carries it.
struct Accept final : net::Message<Accept, net::kKindMultiPaxos + 4> {
  static constexpr const char* kName = "MP.Accept";
  Accept() = default;
  Accept(Ballot b, std::uint64_t s, CommandPtr c,
         CommandBatchPtr batch = nullptr)
      : ballot(b), slot(s), cmd(std::move(c)), batch(std::move(batch)) {}
  /// Wraps a by-value command into a fresh shared handle.
  Accept(Ballot b, std::uint64_t s, Command c)
      : Accept(b, s, std::make_shared<const Command>(std::move(c))) {}
  Ballot ballot = 0;
  std::uint64_t slot = 0;
  CommandPtr cmd;
  CommandBatchPtr batch;

  static auto fields(auto& m, auto& v) {
    return v(m.ballot, m.slot, net::batched(m.cmd, m.batch));
  }
};

/// Phase-2b: acceptor's reply to the leader.
struct Accepted final : net::Message<Accepted, net::kKindMultiPaxos + 5> {
  static constexpr const char* kName = "MP.Accepted";
  Ballot ballot = 0;
  std::uint64_t slot = 0;
  NodeId acceptor = kNoNode;
  bool ack = false;

  static auto fields(auto& m, auto& v) {
    return v(m.ballot, m.slot, m.acceptor, m.ack);
  }
};

/// Learn message broadcast by the leader once a slot reaches quorum.
/// `batch` mirrors the Accept's slot value for batched slots.
struct Commit final : net::Message<Commit, net::kKindMultiPaxos + 6> {
  static constexpr const char* kName = "MP.Commit";
  Commit() = default;
  Commit(std::uint64_t s, CommandPtr c, CommandBatchPtr batch = nullptr)
      : slot(s), cmd(std::move(c)), batch(std::move(batch)) {}
  /// Wraps a by-value command into a fresh shared handle.
  Commit(std::uint64_t s, Command c)
      : Commit(s, std::make_shared<const Command>(std::move(c))) {}
  std::uint64_t slot = 0;
  CommandPtr cmd;
  CommandBatchPtr batch;

  static auto fields(auto& m, auto& v) {
    return v(m.slot, net::batched(m.cmd, m.batch));
  }
};

// ---------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------

/// Classic Multi-Paxos with a designated leader (the paper's baseline).
///
/// Commands are forwarded to the leader, which assigns consecutive log
/// slots and runs phase-2 per slot; commits are learned via a leader
/// broadcast. A heartbeat failure detector triggers leader change: the new
/// leader runs a suffix-covering phase-1 and re-proposes surviving votes.
///
/// The leader's ordering step is a serialization point (rx_cost), which is
/// why Multi-Paxos neither scales with node count (Fig. 1/3) nor with
/// cores (Fig. 4).
class MultiPaxosReplica final : public core::Replica {
 public:
  MultiPaxosReplica(NodeId id, const core::ClusterConfig& cfg,
                    core::Context& ctx);

  void propose(const Command& c) override;
  void on_message(NodeId from, const net::Payload& payload) override;
  core::RxCost rx_cost(const net::Payload& payload) const override;
  void on_crash() override;
  void on_recover() override;

  /// Starts the failure detector (the harness calls this on all replicas
  /// after wiring; without it, node 0 stays leader forever).
  void start(bool enable_failure_detector);

  bool is_leader() const { return leader_ == id_ && !preparing_; }
  NodeId current_leader() const { return leader_; }
 private:
  struct SlotState {
    Ballot accepted_ballot = 0;  // highest ballot a value was accepted at
    // The slot value (null until set): the accepted vote until the slot
    // commits, the committed value afterwards. The head and, for a batched
    // slot, the whole batch, so promises, retransmissions, and delivery all
    // see every member.
    CommandPtr cmd;
    CommandBatchPtr batch;
    bool committed = false;
    core::SmallVec<NodeId, 8> ackers;  // leader-side phase-2 acks (dedup)
  };
  struct PendingCommand {
    Command cmd;
    bool commit_reported = false;
    int attempts = 0;  // drives exponential retry backoff
    core::TimerHandle timer = core::kInvalidTimer;
    // Metrics: local propose time and the decision path the command took
    // (leader-local slots are "fast", forwarded ones "forwarded").
    core::Time proposed_at = -1;
    stats::Path path = stats::Path::kFast;
  };

  void handle_propose(const Command& c);
  void lead(const Command& c);
  void enqueue_batch(const Command& c);
  void flush_batch(bool force);
  /// Arms the batch window unless it is already armed; its expiry
  /// force-flushes the queue and counts a window flush.
  void arm_batch_window();
  void handle_prepare(NodeId from, const Prepare& msg);
  void handle_promise(const Promise& msg);
  void handle_accept(NodeId from, const Accept& msg);
  void handle_accepted(const Accepted& msg);
  void handle_commit(const Commit& msg);
  void commit_slot(std::uint64_t slot, CommandPtr cmd, CommandBatchPtr batch);
  void try_deliver();
  void start_leader_change();
  void become_leader();
  void arm_retry(const Command& c);

  // Acceptor state.
  Ballot promised_ = 0;
  std::map<std::uint64_t, SlotState> slots_;

  // Leader state (valid while leader_ == id_).
  Ballot ballot_ = 0;
  std::uint64_t next_slot_ = 1;
  bool preparing_ = false;
  /// Max Promise::first_undelivered over the promise quorum: the first slot
  /// this leader may propose into (everything below is committed at a peer).
  std::uint64_t promise_safe_start_ = 1;
  std::vector<NodeId> promise_ackers_;  // deduplicated
  std::vector<Promise::Vote> promise_votes_;
  std::unordered_map<CommandId, std::uint64_t> assigned_;  // cmd -> slot
  /// Recently committed slot values kept so the leader can replay a Commit
  /// lost on the wire (bounded by delivered_id_window). Batched slots map
  /// every member id to the same record — a replay must carry the whole
  /// batch.
  struct RecentCommit {
    std::uint64_t slot = 0;
    CommandPtr head;
    CommandBatchPtr batch;
  };
  std::unordered_map<CommandId, RecentCommit> recent_commits_;

  // Leader-side command batching (cfg.batching; off by default). Fresh
  // commands accumulate in FIFO order and flush as one multi-command slot
  // when the batch fills (max_commands/max_bytes), the window expires, or
  // a pipeline slot frees up.
  core::ClusterConfig::Batching bcfg_;
  std::deque<Command> batch_buf_;
  std::unordered_set<CommandId> batch_queued_;  // ids in batch_buf_
  std::size_t batch_bytes_ = 0;
  int batch_inflight_ = 0;  // my batched slots awaiting commit
  std::unordered_set<std::uint64_t> my_batched_slots_;
  core::TimerHandle batch_timer_ = core::kInvalidTimer;

  // Learner state.
  std::uint64_t last_delivered_ = 0;
  std::unordered_set<CommandId> delivered_ids_;
  std::deque<CommandId> delivered_fifo_;

  // Proposer state.
  std::unordered_map<CommandId, PendingCommand> pending_;

  NodeId leader_ = 0;
  core::FailureDetector fd_;
  bool fd_enabled_ = false;  // was the detector started? (restart on recover)
  bool crashed_ = false;
};

}  // namespace m2::mp
