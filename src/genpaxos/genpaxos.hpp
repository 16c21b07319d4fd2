#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/command.hpp"
#include "core/config.hpp"
#include "core/replica.hpp"
#include "core/time.hpp"
#include "net/wire.hpp"

namespace m2::gp {

using core::Command;
using core::CommandId;
using core::ObjectId;

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// Fast round: the proposer bypasses the leader and broadcasts directly to
/// the acceptors (as in Fast/Generalized Paxos).
struct FastPropose final : net::Message<FastPropose, net::kKindGenPaxos + 1> {
  static constexpr const char* kName = "GP.FastPropose";
  FastPropose() = default;
  explicit FastPropose(Command c) : cmd(std::move(c)) {}
  Command cmd;

  static auto fields(auto& m, auto& v) { return v(m.cmd); }
};

/// Acceptor's vote: for every object of the command, the predecessor
/// command the acceptor appended before it (its c-struct tail on that
/// object). `cstruct_bytes` models the c-struct suffix that real
/// Generalized Paxos acceptors ship with every vote — the protocol's
/// dominant bandwidth overhead — and travels as that many bytes of
/// padding, so the encoded frame weighs what the model claims.
struct FastAck final : net::Message<FastAck, net::kKindGenPaxos + 2> {
  static constexpr const char* kName = "GP.FastAck";
  struct Pred {
    ObjectId object = 0;
    CommandId pred;  // invalid id == no predecessor

    static auto fields(auto& m, auto& v) { return v(m.object, m.pred); }
  };
  CommandId cmd_id;
  NodeId acceptor = kNoNode;
  std::vector<Pred> preds;
  std::uint32_t cstruct_bytes = 0;

  static auto fields(auto& m, auto& v) {
    return v(m.cmd_id, m.acceptor, m.cstruct_bytes, m.preds,
             net::padding(m.cstruct_bytes));
  }
};

/// Fast-quorum agreement reached: the proposer asks the leader to sequence
/// the command (the leader is the single learner coordinator).
struct CommitNotify final
    : net::Message<CommitNotify, net::kKindGenPaxos + 3> {
  static constexpr const char* kName = "GP.CommitNotify";
  CommitNotify() = default;
  explicit CommitNotify(Command c) : cmd(std::move(c)) {}
  Command cmd;

  static auto fields(auto& m, auto& v) { return v(m.cmd); }
};

/// Collision: acceptors voted with different predecessors; the leader must
/// serialize the command through a classic round.
struct ResolveReq final : net::Message<ResolveReq, net::kKindGenPaxos + 4> {
  static constexpr const char* kName = "GP.ResolveReq";
  ResolveReq() = default;
  explicit ResolveReq(Command c) : cmd(std::move(c)) {}
  Command cmd;

  static auto fields(auto& m, auto& v) { return v(m.cmd); }
};

/// Classic round phase-2a run by the leader for collided commands.
struct SlowAccept final : net::Message<SlowAccept, net::kKindGenPaxos + 5> {
  static constexpr const char* kName = "GP.SlowAccept";
  SlowAccept() = default;
  SlowAccept(std::uint64_t b, Command c) : ballot(b), cmd(std::move(c)) {}
  std::uint64_t ballot = 0;
  Command cmd;

  static auto fields(auto& m, auto& v) { return v(m.ballot, m.cmd); }
};

struct SlowAck final : net::Message<SlowAck, net::kKindGenPaxos + 6> {
  static constexpr const char* kName = "GP.SlowAck";
  std::uint64_t ballot = 0;
  CommandId cmd_id;
  NodeId acceptor = kNoNode;

  static auto fields(auto& m, auto& v) {
    return v(m.ballot, m.cmd_id, m.acceptor);
  }
};

/// Leader-assigned delivery position, broadcast to all learners.
struct Sequence final : net::Message<Sequence, net::kKindGenPaxos + 7> {
  static constexpr const char* kName = "GP.Sequence";
  Sequence() = default;
  Sequence(std::uint64_t i, Command c) : index(i), cmd(std::move(c)) {}
  std::uint64_t index = 0;
  Command cmd;

  static auto fields(auto& m, auto& v) { return v(m.index, m.cmd); }
};

// ---------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------

/// Generalized Paxos baseline [Lamport, MSR-TR-2005-33].
///
/// Model (documented in DESIGN.md): proposers broadcast to acceptors and
/// wait for a *fast quorum* (floor(2N/3)+1) of votes; votes carry each
/// acceptor's per-object predecessor (its c-struct tail restricted to the
/// command's objects) plus a c-struct-suffix payload that models the
/// protocol's message-size overhead. If all votes agree, the command
/// commits after two delays, as in the paper; disagreeing votes are a
/// collision resolved by the designated leader through a classic round.
/// The leader also acts as learner coordinator, assigning the global
/// delivery sequence — which is why Generalized Paxos inherits the single-
/// leader scalability ceiling the paper observes (§VI-A).
///
/// Leader re-election is not implemented (the evaluation is crash-free);
/// ballots are carried for shape fidelity.
class GenPaxosReplica final : public core::Replica {
 public:
  GenPaxosReplica(NodeId id, const core::ClusterConfig& cfg,
                  core::Context& ctx);

  void propose(const Command& c) override;
  void on_message(NodeId from, const net::Payload& payload) override;
  core::RxCost rx_cost(const net::Payload& payload) const override;
  void on_crash() override;
  void on_recover() override;

 private:
  struct PendingCommand {
    Command cmd;
    int attempts = 0;
    std::vector<NodeId> ackers;  // deduplicated (network may duplicate)
    bool mismatch = false;
    bool handed_to_leader = false;
    bool commit_reported = false;
    std::vector<FastAck::Pred> first_preds;  // reference vote
    core::TimerHandle timer = core::kInvalidTimer;
    // Metrics: local propose time; path degrades to "slow" when the command
    // is handed to the leader (collision or timeout).
    core::Time proposed_at = -1;
    stats::Path path = stats::Path::kFast;
  };
  struct SlowRound {
    Command cmd;
    std::vector<NodeId> ackers;  // deduplicated
  };

  void handle_fast_propose(NodeId from, const FastPropose& msg);
  void handle_fast_ack(const FastAck& msg);
  void handle_commit_notify(const CommitNotify& msg);
  void handle_resolve(const ResolveReq& msg);
  void handle_slow_accept(NodeId from, const SlowAccept& msg);
  void handle_slow_ack(const SlowAck& msg);
  void handle_sequence(const Sequence& msg);
  void leader_sequence(const Command& cmd);
  void try_deliver();
  void arm_retry(CommandId id);

  NodeId leader_ = 0;  // fixed: crash-free baseline
  // Acceptor: per-object tail of the local c-struct.
  std::unordered_map<ObjectId, CommandId> last_seen_;
  /// Models c-struct suffix growth: commands voted on but not yet
  /// sequenced. Tracked as two monotone counters because a Sequence can
  /// overtake its FastPropose on a different link.
  std::uint64_t fast_proposes_seen_ = 0;
  std::uint64_t delivered_total_ = 0;
  std::uint64_t unsequenced() const {
    return fast_proposes_seen_ > delivered_total_
               ? fast_proposes_seen_ - delivered_total_
               : 0;
  }
  // Proposer.
  std::unordered_map<CommandId, PendingCommand> pending_;
  // Leader.
  std::uint64_t next_index_ = 1;
  std::unordered_map<CommandId, SlowRound> slow_rounds_;
  std::unordered_set<CommandId> sequenced_ids_;
  std::deque<CommandId> sequenced_fifo_;
  /// Recently assigned (index, cmd) pairs, replayed when a retry arrives
  /// for an already-sequenced command (lost Sequence repair).
  std::unordered_map<CommandId, std::pair<std::uint64_t, Command>>
      recent_sequences_;
  // Learner.
  std::map<std::uint64_t, Command> seq_log_;
  std::uint64_t last_delivered_ = 0;
  std::unordered_set<CommandId> delivered_ids_;
  std::deque<CommandId> delivered_fifo_;

  bool crashed_ = false;
};

}  // namespace m2::gp
