#pragma once

/// \file
/// Public configuration for m2::ClusterBuilder — one validated document
/// that selects a protocol, a backend, and the cluster shape. Everything a
/// typical embedder touches lives here; the advanced protocol knobs
/// (timeouts, batching, cost model) stay on core::ClusterConfig, reachable
/// through Config::tuning.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace m2 {

/// Execution backend for a cluster built by m2::ClusterBuilder (kSim,
/// kLoopback or kTcp; documented at core::Backend). Under kTcp this process
/// serves Config::local_nodes and the rest are remote m2node processes
/// listed in Config::addresses.
using Backend = core::Backend;

/// Network address of one cluster node (Backend::kTcp).
struct NodeAddress {
  std::string host;
  std::uint16_t port = 0;
};

/// Cluster recipe consumed by m2::ClusterBuilder::build().
///
/// A default-constructed Config is valid: a 3-node simulated M²Paxos
/// cluster. Builder setters cover the common fields; `tuning` exposes the
/// full protocol configuration for ablations.
struct Config {
  core::Protocol protocol = core::Protocol::kM2Paxos;
  Backend backend = Backend::kSim;

  /// Cluster size. Ignored for Backend::kTcp (addresses.size() rules).
  int nodes = 3;

  /// Run seed: drives protocol randomness on every backend (and the whole
  /// event schedule under kSim).
  std::uint64_t seed = 1;

  /// Size of each node's initially-owned contiguous object range: node n
  /// owns objects [n*objects_per_node, (n+1)*objects_per_node). The
  /// M²Paxos steady-state setup (the paper's partitioned workloads);
  /// ignored when preassign_ownership is off.
  std::uint64_t objects_per_node = 1024;

  /// Install the partition map as initial M²Paxos ownership. Off = every
  /// proposal starts with cold ownership acquisition (§IV-C).
  bool preassign_ownership = true;

  /// Multi-Paxos failure detector (leader election on leader crash).
  bool enable_failure_detector = false;

  /// Keep per-node delivered C-structs for Cluster::audit(). Memory grows
  /// with every delivered command — tests only.
  bool audit = false;

  /// Backend::kTcp: node i listens on addresses[i].
  std::vector<NodeAddress> addresses;
  /// Backend::kTcp: the subset of nodes this process serves.
  std::vector<NodeId> local_nodes;

  /// Socket wire-path tuning (Backend::kTcp only; mirrors
  /// runtime::TransportOptions, see runtime/tcp_transport.hpp).
  struct Transport {
    /// Max bytes one peer-writer flush coalesces into a single sendmsg().
    std::size_t max_coalesce_bytes = 256 * 1024;
    /// Per-peer cap on queued-but-unsent frame bytes; frames beyond it are
    /// dropped (and counted) rather than buffered without bound.
    std::size_t max_queue_bytes = 8 * 1024 * 1024;
    /// Connection lifecycle (milliseconds; mirrors TransportOptions, where
    /// the semantics are documented in full). Dial timeout per attempt:
    std::int64_t connect_timeout_ms = 500;
    /// Reconnect backoff: decorrelated jitter between base and cap.
    std::int64_t backoff_base_ms = 10;
    std::int64_t backoff_cap_ms = 2000;
    /// Consecutive connect failures before a peer is marked suspect / down.
    int suspect_after = 1;
    int down_after = 3;
    /// Probe cadence for re-dialing a down peer.
    std::int64_t probe_interval_ms = 500;
  };
  Transport transport;

  /// Advanced protocol/cost knobs (core::ClusterConfig). n_nodes in here
  /// is overwritten from `nodes`/`addresses` at build time.
  core::ClusterConfig tuning;

  /// Empty string when the config is buildable; otherwise a human-readable
  /// description of the first problem.
  std::string validate() const;
};

}  // namespace m2
