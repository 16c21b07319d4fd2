#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/payload.hpp"
#include "core/time.hpp"

namespace m2::core {

// CPU service-time model for protocol message processing.
//
// Receiving or sending a message costs `fixed + per_byte * size`. The
// fixed part approximates syscall + dispatch + handler; the per-byte part
// approximates copying/marshalling. These costs feed the per-node k-core
// queueing model (sim::NodeCpu), which is what produces saturation
// (throughput ceilings) in the benchmarks. The threaded runtime ignores
// them: real handling cost is real.
inline constexpr Time kRxFixed = 1000;     // ns per received message
inline constexpr double kRxPerByte = 0.8;  // ns per received byte
inline constexpr Time kTxFixed = 400;      // ns per sent message
inline constexpr double kTxPerByte = 0.4;  // ns per sent byte

/// Extra serial cost charged by protocol serialization points (e.g. a
/// Multi-Paxos leader's ordering thread, EPaxos' dependency-graph lock):
/// ns per serialized handling step.
inline constexpr Time kSerialFixed = 900;

constexpr Time rx_cost(std::size_t bytes) {
  return kRxFixed + static_cast<Time>(kRxPerByte * static_cast<double>(bytes));
}
constexpr Time tx_cost(std::size_t bytes) {
  return kTxFixed + static_cast<Time>(kTxPerByte * static_cast<double>(bytes));
}

/// Cap on the randomized backoff between M²Paxos ownership-acquisition
/// retries, and the Multi-Paxos leader's retry delay for a stalled Prepare
/// (keeps the unbounded-retry scenario of §IV-C live).
inline constexpr Time kRetryBackoffMax = 4 * kMillisecond;

/// Static cluster configuration shared by all protocols.
struct ClusterConfig {
  int n_nodes = 3;
  int cores_per_node = 16;  // paper's default machine: c3.4xlarge, 16 cores

  /// Timeout after which a node that forwarded a command to an owner (or to
  /// the leader) takes over and re-proposes (Algorithm 1 line 13).
  Time forward_timeout = 50 * kMillisecond;

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
  /// MetricsRegistry, Context::metrics() stays nullptr, every
  /// instrumentation helper reduces to one pointer test, and every protocol
  /// count reads 0.
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

/// Every protocol, in enum order (the paper's plotting order).
inline constexpr std::array<Protocol, 4> kProtocols = {
    Protocol::kMultiPaxos, Protocol::kGenPaxos, Protocol::kEPaxos,
    Protocol::kM2Paxos};

/// Display name: "MultiPaxos", "GenPaxos", "EPaxos" or "M2Paxos". The one
/// table of protocol names; every other spelling derives from it.
std::string to_string(Protocol p);

/// to_string(p) in lower case ("m2paxos"): how flags and spec files spell
/// a protocol.
std::string lower_name(Protocol p);

/// The protocol whose to_string() name matches `name` ignoring case, or
/// nullopt.
std::optional<Protocol> parse_protocol(std::string_view name);

/// Execution backend a cluster runs on (m2::ClusterBuilder, the fault-case
/// runner).
enum class Backend {
  /// Deterministic discrete-event simulation (virtual time, modeled
  /// network/CPU). Single-threaded, replayable: same Config + seed =
  /// bit-identical run. The backend the paper-reproduction benchmarks use.
  kSim,
  /// Threaded real-clock runtime, all nodes in this process: one OS thread
  /// per node, messages fully serialized through the in-process loopback
  /// transport (the exact wire codec TCP uses, minus the socket).
  kLoopback,
  /// Threaded real-clock runtime over TCP: each process serves some nodes
  /// of the cluster and reaches the rest over sockets.
  kTcp,
};

/// Lower-case name: "sim", "loopback" or "tcp".
std::string to_string(Backend b);

/// Network address of one cluster node (Backend::kTcp).
struct NodeAddress {
  std::string host;
  std::uint16_t port = 0;
};

/// Tuning knobs for the socket wire path (Backend::kTcp): m2::Config's
/// `transport`, the spec key "transport", and runtime::TcpTransport's
/// options. Spec files write the time knobs in milliseconds (`*_ms`).
struct TransportOptions {
  /// Upper bound on the bytes one writer flush coalesces into a single
  /// sendmsg() call. Larger values amortize syscalls further under load;
  /// the bound keeps any one flush from monopolizing the socket buffer.
  std::size_t max_coalesce_bytes = 256 * 1024;
  /// Per-peer cap on queued-but-unsent frame bytes. Beyond it, new frames
  /// are dropped (and counted in messages_dropped) instead of queued:
  /// consensus tolerates message loss, unbounded buffering it does not.
  std::size_t max_queue_bytes = 8 * 1024 * 1024;
  // Connection lifecycle (see runtime/peer_health.hpp for the state
  // machine these parameterize).
  /// Hard bound on one connect attempt: non-blocking connect + poll. A
  /// black-holed peer costs at most this per dial, never a kernel-default
  /// TCP timeout (minutes).
  Time connect_timeout = 500 * kMillisecond;
  /// Decorrelated-jitter backoff between reconnect attempts: first retry
  /// waits ~backoff_base, growth is capped at backoff_cap.
  Time backoff_base = 10 * kMillisecond;
  Time backoff_cap = 2 * kSecond;
  /// Consecutive connect failures before a peer is marked suspect / down.
  int suspect_after = 1;
  int down_after = 3;
  /// Dial cadence for a down peer. Probing replaces per-send reconnects:
  /// a dead peer costs one bounded connect attempt per interval.
  Time probe_interval = 500 * kMillisecond;

  /// All knobs positive and thresholds ordered.
  bool valid() const {
    return max_coalesce_bytes > 0 && max_queue_bytes > 0 &&
           connect_timeout > 0 && backoff_base > 0 &&
           backoff_cap >= backoff_base && suspect_after > 0 &&
           down_after >= suspect_after && probe_interval > 0;
  }
};

}  // namespace m2::core
