#pragma once

#include <cassert>
#include <cstdint>
#include <string>

#include "net/payload.hpp"
#include "core/time.hpp"

namespace m2::core {

/// CPU service-time model for protocol message processing.
///
/// Receiving or sending a message costs `fixed + per_byte * size`. The
/// fixed part approximates syscall + dispatch + handler; the per-byte part
/// approximates copying/marshalling. These costs feed the per-node k-core
/// queueing model (sim::NodeCpu), which is what produces saturation
/// (throughput ceilings) in the benchmarks.
struct CostModel {
  Time rx_fixed = 1000;      // ns per received message
  double rx_per_byte = 0.8;       // ns per received byte
  Time tx_fixed = 400;       // ns per sent message
  double tx_per_byte = 0.4;       // ns per sent byte

  /// Extra serial cost charged by protocol serialization points (e.g. a
  /// Multi-Paxos leader's ordering thread, EPaxos' dependency-graph lock).
  Time serial_fixed = 900;   // ns per serialized handling step

  Time rx_cost(std::size_t bytes) const {
    return rx_fixed + static_cast<Time>(rx_per_byte * static_cast<double>(bytes));
  }
  Time tx_cost(std::size_t bytes) const {
    return tx_fixed + static_cast<Time>(tx_per_byte * static_cast<double>(bytes));
  }
};

/// Static cluster configuration shared by all protocols.
struct ClusterConfig {
  int n_nodes = 3;
  int cores_per_node = 16;  // paper's default machine: c3.4xlarge, 16 cores
  CostModel cost;

  /// Timeout after which a node that forwarded a command to an owner (or to
  /// the leader) takes over and re-proposes (Algorithm 1 line 13).
  Time forward_timeout = 50 * kMillisecond;

  /// Base for randomized exponential backoff between ownership-acquisition
  /// retries (keeps the unbounded-retry scenario of §IV-C live).
  Time retry_backoff_min = 200 * kMicrosecond;
  Time retry_backoff_max = 4 * kMillisecond;

  /// Failure-detector heartbeat period and suspicion timeout.
  Time heartbeat_period = 10 * kMillisecond;
  Time suspect_timeout = 50 * kMillisecond;

  /// When true, replicas keep their full delivered sequence in memory for
  /// consistency auditing (tests). Benchmarks turn this off.
  bool record_delivered = true;

  /// M²Paxos anti-entropy (extension): period between sync probes for
  /// stuck delivery frontiers. sync_period 0 disables probing.
  Time sync_period = 25 * kMillisecond;

  /// Protocol-level batching knobs, grouped: command batching & pipelined
  /// accept rounds (the paper runs every throughput experiment batched;
  /// the repo's net layer batches only envelopes). Defaults keep command
  /// batching OFF so the latency experiments (Fig. 2) are unchanged.
  struct Batching {
    /// Hard cap on commands per slot batch — the inline capacity of the
    /// pooled batch container; batch_max_commands is clamped to it.
    static constexpr std::size_t kMaxBatchCommands = 32;

    /// Enables proposer-side command accumulators: M²Paxos owners and the
    /// Multi-Paxos leader pack multiple commands into one slot value and
    /// amortize the quorum round across them.
    bool enabled = false;
    /// Adaptive close: a partial batch is flushed at most this long after
    /// its first command was queued (bounds the latency cost at low load).
    Time batch_window = 200 * kMicrosecond;
    /// Commands per slot batch (clamped to [1, kMaxBatchCommands]).
    std::size_t batch_max_commands = 16;
    /// Byte budget per accept round: a flush closes once the summed
    /// payload wire size of its commands reaches this.
    std::size_t batch_max_bytes = 16 * 1024;
    /// Outstanding (un-acked) batched accept rounds a proposer keeps in
    /// flight before the accumulator holds commands back — so the batch
    /// window never serializes on the quorum RTT. Clamped to >= 1.
    int pipeline_depth = 4;
    /// Anti-entropy probe width (objects per SyncRequest); predates the
    /// command-batching knobs but is batching of the same kind.
    std::size_t sync_batch = 16;

    bool valid() const { return batch_max_commands > 0; }

    /// The knobs as the protocol layers consume them: pipeline_depth
    /// clamped to >= 1 and batch_max_commands to the container capacity.
    Batching normalized() const {
      Batching b = *this;
      if (b.pipeline_depth < 1) b.pipeline_depth = 1;
      if (b.batch_max_commands > kMaxBatchCommands)
        b.batch_max_commands = kMaxBatchCommands;
      if (b.batch_max_commands == 0) b.batch_max_commands = 1;
      return b;
    }
  };
  Batching batching;

  /// Observability kill switch. When disabled the harness creates no
  /// MetricsRegistry, Context::metrics() stays nullptr, and every
  /// instrumentation helper reduces to one pointer test. (A compile-time
  /// switch, -DM2_DISABLE_METRICS, removes even that branch.)
  struct Metrics {
    bool enabled = true;
  };
  Metrics metrics;

  /// M²Paxos frontier GC: per object, slots more than this many instances
  /// below the delivery frontier are truncated from the log. The margin is
  /// the per-object catch-up window anti-entropy can serve; peers further
  /// behind learn the frontier via delivered floors and sync from there.
  /// Bounds log memory for marathon/fuzz runs.
  std::size_t gc_margin = 1024;

  /// M²Paxos crossing resolution is a recovery path: the (deterministic)
  /// wait-cycle search runs at most once per interval, not per message,
  /// and covers the frontiers that moved since the previous search.
  Time crossing_check_interval = 2 * kMillisecond;

  /// M²Paxos acquisition fallback (§IV-C "bounding the communication
  /// delays"): after this many failed coordinations, the command is routed
  /// through the designated conflict leader (node 0), which serializes
  /// contended ownership acquisitions. 0 disables the fallback.
  int acquisition_fallback_after = 8;

  /// TEST ONLY — deliberately breaks M²Paxos safety so the fuzzing
  /// auditor's detection path can be validated end-to-end: acceptors skip
  /// the promised-epoch check on Accept (stale owners regain quorums) and
  /// decided slots may be silently rebound instead of asserting. Never set
  /// outside the fuzzer's --inject-bug mode.
  bool test_unsafe_epochs = false;

  /// Capacity of the delivered-command-id dedup window per replica. Ids
  /// older than this are forgotten; the window only needs to cover the
  /// maximum lifetime of an in-flight proposal.
  std::size_t delivered_id_window = 1 << 20;

  int f() const { return (n_nodes - 1) / 2; }

  /// Classic quorum: floor(N/2)+1 — what M²Paxos and Multi-Paxos use.
  int classic_quorum() const { return n_nodes / 2 + 1; }

  /// Fast quorum for Fast/Generalized Paxos: floor(2N/3)+1 (§I).
  int fast_quorum() const { return (2 * n_nodes) / 3 + 1; }

  /// EPaxos fast quorum: f + floor((f+1)/2) [Moraru et al., SOSP'13],
  /// clamped to a classic majority. The paper states the size for odd N
  /// (N = 2f+1); taken literally at even N it drops below a majority
  /// (N=4: quorums of 2), so two interfering commands can pre-accept on
  /// disjoint quorums and fast-commit with no dependency in either
  /// direction — the fault fuzzer catches the resulting divergent
  /// execution orders. A majority keeps any two fast quorums intersecting.
  int epaxos_fast_quorum() const {
    const int paper = f() + (f() + 1) / 2;
    return paper > classic_quorum() ? paper : classic_quorum();
  }

  void validate() const {
    assert(n_nodes >= 1);
    assert(cores_per_node >= 1);
    assert(batching.valid() && "batch_max_commands must be nonzero");
  }
};

/// Protocols implemented in this repository.
enum class Protocol { kMultiPaxos, kGenPaxos, kEPaxos, kM2Paxos };

std::string to_string(Protocol p);

}  // namespace m2::core
