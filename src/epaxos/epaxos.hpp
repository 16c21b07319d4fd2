#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/command.hpp"
#include "core/config.hpp"
#include "core/replica.hpp"
#include "net/wire.hpp"
#include "sim/time.hpp"
#include "epaxos/graph.hpp"

namespace m2::ep {

using core::Command;
using core::CommandId;
using core::ObjectId;

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// Instance attributes travelling with PreAccept/Accept/Commit.
struct Attrs {
  std::uint64_t seq = 0;
  std::vector<InstRef> deps;

  bool operator==(const Attrs& o) const {
    return seq == o.seq && deps == o.deps;
  }
  static auto fields(auto& m, auto& v) { return v(m.seq, m.deps); }
};

struct PreAccept final : net::Message<PreAccept, net::kKindEPaxos + 1> {
  static constexpr const char* kName = "EP.PreAccept";
  PreAccept() = default;
  PreAccept(InstRef i, Command c, Attrs a)
      : inst(i), cmd(std::move(c)), attrs(std::move(a)) {}
  InstRef inst = 0;
  Command cmd;
  Attrs attrs;

  static auto fields(auto& m, auto& v) { return v(m.inst, m.cmd, m.attrs); }
};

struct PreAcceptReply final
    : net::Message<PreAcceptReply, net::kKindEPaxos + 2> {
  static constexpr const char* kName = "EP.PreAcceptReply";
  InstRef inst = 0;
  NodeId acceptor = kNoNode;
  bool changed = false;  // acceptor extended seq/deps
  Attrs attrs;

  static auto fields(auto& m, auto& v) {
    return v(m.inst, m.acceptor, m.changed, m.attrs);
  }
};

/// Paxos-Accept of the slow path, carrying the unioned attributes.
struct AcceptMsg final : net::Message<AcceptMsg, net::kKindEPaxos + 3> {
  static constexpr const char* kName = "EP.Accept";
  AcceptMsg() = default;
  AcceptMsg(InstRef i, Command c, Attrs a)
      : inst(i), cmd(std::move(c)), attrs(std::move(a)) {}
  InstRef inst = 0;
  Command cmd;
  Attrs attrs;

  static auto fields(auto& m, auto& v) { return v(m.inst, m.cmd, m.attrs); }
};

struct AcceptReply final : net::Message<AcceptReply, net::kKindEPaxos + 4> {
  static constexpr const char* kName = "EP.AcceptReply";
  InstRef inst = 0;
  NodeId acceptor = kNoNode;

  static auto fields(auto& m, auto& v) { return v(m.inst, m.acceptor); }
};

struct CommitMsg final : net::Message<CommitMsg, net::kKindEPaxos + 5> {
  static constexpr const char* kName = "EP.Commit";
  CommitMsg() = default;
  CommitMsg(InstRef i, Command c, Attrs a)
      : inst(i), cmd(std::move(c)), attrs(std::move(a)) {}
  InstRef inst = 0;
  Command cmd;
  Attrs attrs;

  static auto fields(auto& m, auto& v) { return v(m.inst, m.cmd, m.attrs); }
};

// ---------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------

/// EPaxos [Moraru et al., SOSP'13] — the paper's strongest competitor.
///
/// Every replica leads its own instance space. A command leader computes
/// interference attributes (seq, deps) and PreAccepts at a *fast quorum*
/// (f + floor((f+1)/2)); unchanged replies commit in two delays, otherwise
/// a Paxos-Accept round with a classic quorum adds two more. Commands are
/// executed by dependency-graph SCC order (src/epaxos/graph.*).
///
/// Crash recovery (explicit-prepare) is not implemented — the paper's
/// evaluation runs crash-free — but ballots are carried so the slow path is
/// shaped faithfully. Costs: dependency computation and the execution graph
/// serialize on shared state (rx_cost), and dependency lists travel in
/// every message — the two overheads M²Paxos eliminates.
class EPaxosReplica final : public core::Replica {
 public:
  EPaxosReplica(NodeId id, const core::ClusterConfig& cfg, core::Context& ctx);

  void propose(const Command& c) override;
  void on_message(NodeId from, const net::Payload& payload) override;
  core::RxCost rx_cost(const net::Payload& payload) const override;
  void on_crash() override;
  void on_recover() override;

 private:
  enum class Status : std::uint8_t {
    kNone,
    kPreAccepted,
    kAccepted,
    kCommitted,
    kExecuted
  };
  struct InstState {
    Command cmd;
    Attrs attrs;
    Status status = Status::kNone;
    // Command-leader bookkeeping (acceptor lists deduplicated: the network
    // may duplicate deliveries).
    std::vector<NodeId> preaccept_repliers;
    bool all_unchanged = true;
    Attrs merged;
    std::vector<NodeId> accept_repliers;
    // Metrics (command-leader side only; -1 on purely-accepting replicas).
    // Path degrades to "slow" when the pre-accept votes disagree.
    sim::Time proposed_at = -1;
    stats::Path path = stats::Path::kFast;
  };

  InstState& inst(InstRef r) { return instances_[r]; }

  /// Computes (seq, deps) for `c` from the local interference table and
  /// registers `r` as the new latest instance for each object of `c`.
  Attrs compute_attrs(const Command& c, InstRef r);
  /// Merges remotely computed attrs with local interference state.
  bool extend_attrs(const Command& c, InstRef r, Attrs& attrs);

  void handle_preaccept(NodeId from, const PreAccept& msg);
  void handle_preaccept_reply(const PreAcceptReply& msg);
  void handle_accept(NodeId from, const AcceptMsg& msg);
  void handle_accept_reply(const AcceptReply& msg);
  void handle_commit(const CommitMsg& msg);
  void commit(InstRef r, const Command& cmd, Attrs attrs);
  void try_execute(InstRef r);

  std::vector<NodeId> fast_quorum_peers() const;

  /// Garbage collection: all slots of replica r below pruned_below_[r] are
  /// executed and have been erased from instances_.
  void prune_executed();
  bool is_pruned(InstRef r) const {
    return inst_slot(r) < pruned_below_[inst_replica(r)];
  }

  /// Interference table: for every object, the latest-known instance of
  /// *each replica* that accessed it (EPaxos keeps per-replica entries —
  /// a single shared "latest" cell would let a stale slow-path message
  /// erase knowledge of a newer conflict, leaving two conflicting commands
  /// with no dependency edge in either direction).
  std::vector<InstRef>& interf_row(ObjectId l);
  void note_access(ObjectId l, InstRef r);

  std::unordered_map<InstRef, InstState> instances_;
  std::unordered_map<ObjectId, std::vector<InstRef>> latest_interf_;
  std::unordered_map<InstRef, std::vector<InstRef>> exec_waiters_;
  std::vector<std::uint64_t> pruned_below_;
  std::uint64_t next_slot_ = 1;
  std::uint64_t delivered_count_ = 0;
  bool crashed_ = false;
};

}  // namespace m2::ep
