#pragma once

/// \file
/// Public configuration for m2::ClusterBuilder and m2node — one validated
/// document that selects a protocol, a backend, and the cluster shape.
/// Everything a typical embedder touches lives here; the advanced protocol
/// knobs (timeouts, batching, cost model) stay on core::ClusterConfig,
/// reachable through Config::tuning. Cluster spec files (JSON, see
/// Config::parse) parse into this same struct.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"

namespace m2 {

/// Execution backend for a cluster built by m2::ClusterBuilder (kSim,
/// kLoopback or kTcp; documented at core::Backend). Under kTcp this process
/// serves Config::local_nodes and the rest are remote m2node processes
/// listed in Config::addresses.
using Backend = core::Backend;

/// Network address of one cluster node (Backend::kTcp).
using NodeAddress = core::NodeAddress;

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
  /// ignored when preassign_ownership is off. 0 on the threaded backends:
  /// object o starts at node o mod N.
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

  /// Socket wire-path tuning (Backend::kTcp only).
  core::TransportOptions transport;

  /// Advanced protocol/cost knobs (core::ClusterConfig). n_nodes in here
  /// is overwritten from `nodes`/`addresses` at build time.
  core::ClusterConfig tuning;

  /// Empty string when the config is buildable; otherwise a human-readable
  /// description of the first problem.
  std::string validate() const;

  /// Parses a cluster spec document — the file every m2node process of a
  /// TCP deployment reads, so one document defines the whole cluster:
  ///
  ///   {
  ///     "protocol": "m2paxos",            // any core::to_string name
  ///     "seed": 1,
  ///     "nodes": [                         // node i = i-th entry
  ///       {"host": "127.0.0.1", "port": 7101},
  ///       {"host": "127.0.0.1", "port": 7102},
  ///       {"host": "127.0.0.1", "port": 7103}
  ///     ],
  ///     "objects_per_node": 64,            // contiguous-range ownership map
  ///     "enable_failure_detector": false,
  ///     "batching": {                      // optional; defaults = tuning
  ///       "enabled": true,
  ///       "max_commands": 16,
  ///       "window_us": 200,
  ///       "max_bytes": 16384,
  ///       "pipeline_depth": 4
  ///     },
  ///     "transport": {                     // optional; `transport` fields,
  ///       "max_coalesce_bytes": 262144,    // times in milliseconds
  ///       "max_queue_bytes": 8388608,      // (connect_timeout_ms, ...)
  ///       "connect_timeout_ms": 500
  ///     }
  ///   }
  ///
  /// The result is a Backend::kTcp config whose `addresses` are the nodes
  /// and whose `local_nodes` are all of them; a process serving a subset
  /// narrows local_nodes. Without "objects_per_node", objects_per_node is
  /// 0: object o starts at node o mod N. Unknown keys are rejected (typos
  /// should fail loudly, not silently run a different experiment), and the
  /// result must pass validate(). On failure returns false and sets
  /// `*error`.
  static bool parse(std::string_view text, Config* out, std::string* error);
  /// Reads and parses the spec file at `path`.
  static bool load(const std::string& path, Config* out, std::string* error);
};

}  // namespace m2
