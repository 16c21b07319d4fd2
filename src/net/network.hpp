#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/latency.hpp"
#include "net/link_faults.hpp"
#include "net/payload.hpp"
#include "core/inline_fn.hpp"
#include "sim/simulator.hpp"

namespace m2::net {

/// Network-wide knobs.
struct NetworkConfig {
  LatencyConfig latency;

  /// Framing overhead charged per message (headers, envelope).
  std::size_t per_message_overhead = 64;
  /// Extra framing charged once per batch.
  std::size_t per_batch_overhead = 64;

  /// When true, messages to the same destination are coalesced and flushed
  /// together (paper: "network messages are batched in order to optimize
  /// the network utilization", all experiments except Fig. 2).
  bool batching = false;
  sim::Time batch_window = 100 * sim::kMicrosecond;
  std::size_t batch_max_messages = 64;
  std::size_t batch_max_bytes = 48 * 1024;

  /// Independent drop probability per message at start (0 in the paper's
  /// runs); the initial loss of faults().
  double loss_probability = 0.0;

  /// Enforce FIFO delivery per directed link, as a TCP connection would
  /// (jitter still varies per-transmission latency, but transmissions on
  /// one link never overtake each other).
  bool fifo_links = true;
};

/// Per-node traffic counters, and per-kind byte accounting for the
/// message-size ablation (A3).
struct TrafficCounters {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t batches_sent = 0;
  std::uint64_t messages_dropped = 0;
};

/// In-process simulated network connecting N nodes.
///
/// Responsibilities: per-node egress NIC serialization (shared-bandwidth
/// bottleneck), propagation latency with jitter, optional batching, the
/// link faults of faults() (links, partitions, loss, duplication, latency
/// scale, throttles), crashes, and traffic accounting.
///
/// Delivery is via a callback per node, installed by the cluster harness,
/// which routes the envelope through the destination node's CPU model.
class Network {
 public:
  using DeliveryFn = core::BasicInlineFn<void(const Envelope&)>;

  Network(sim::Simulator& sim, NetworkConfig cfg, int n_nodes);

  void set_delivery(NodeId node, DeliveryFn fn);

  /// Sends `payload` from `from` to `to`. Self-sends are delivered on the
  /// next event with zero network delay (loopback).
  void send(NodeId from, NodeId to, PayloadPtr payload);

  /// Sends to every node; `include_self` controls loopback delivery.
  void broadcast(NodeId from, PayloadPtr payload, bool include_self);

  // --- fault injection -----------------------------------------------
  /// Every link fault; may be changed mid-run.
  LinkFaults& faults() { return faults_; }
  const LinkFaults& faults() const { return faults_; }
  /// Crashed nodes neither send nor receive.
  void set_crashed(NodeId node, bool crashed);
  bool is_crashed(NodeId node) const { return crashed_[node]; }

  // --- accounting ------------------------------------------------------
  const TrafficCounters& counters(NodeId node) const { return counters_[node]; }
  TrafficCounters total_counters() const;
  /// Bytes sent per payload name, across all nodes. The hot path accounts
  /// into a dense per-kind array; the name-keyed map is materialized here,
  /// at report time.
  const std::map<std::string, std::uint64_t>& bytes_by_kind() const;
  void reset_counters();

  int n_nodes() const { return static_cast<int>(delivery_.size()); }
  const NetworkConfig& config() const { return cfg_; }
  /// Batching can be toggled between experiment phases. Turning it off
  /// flushes any batches already open so their messages are not parked
  /// until a stale batch_window timer fires.
  void set_batching(bool on);

 private:
  struct Batch {
    std::vector<Envelope> envelopes;
    std::size_t bytes = 0;
    core::TimerHandle flush_event = core::kInvalidTimer;
  };

  std::size_t link_index(NodeId from, NodeId to) const {
    return static_cast<std::size_t>(from) * delivery_.size() + to;
  }
  void enqueue(Envelope env);
  void flush(NodeId from, NodeId to);
  /// Reserves `from`'s NIC for `bytes` and returns the (jittered, FIFO-
  /// corrected) arrival time at `to`, or -1 when the transmission is lost.
  sim::Time transmit_time(NodeId from, NodeId to, std::size_t bytes,
                          std::size_t n_messages);
  /// Single-message transmission: the envelope rides inline in the event
  /// callback, no batch vector needed.
  void transmit_one(Envelope env, std::size_t bytes);
  /// Batched transmission of `envelopes` (all same from/to).
  void transmit(NodeId from, NodeId to, std::vector<Envelope> envelopes,
                std::size_t bytes);
  void deliver_now(NodeId to, const Envelope& env);
  void account_send(const Envelope& env, std::size_t framed_bytes);

  sim::Simulator& sim_;
  NetworkConfig cfg_;
  LatencyModel latency_;
  sim::Rng rng_;
  LinkFaults faults_;
  std::vector<DeliveryFn> delivery_;
  std::vector<sim::Time> nic_free_at_;
  std::vector<char> crashed_;
  // Flat per-directed-link tables indexed by from * n_nodes + to: the
  // per-send tree lookups of the former std::map version dominated the
  // send path.
  std::vector<Batch> batches_;
  std::vector<sim::Time> last_arrival_;
  std::vector<TrafficCounters> counters_;
  // Dense per-kind byte accounting, indexed by Payload::kind(); names are
  // recorded on first sight and only joined with the counts in
  // bytes_by_kind(). `mutable` members are the report-time cache.
  std::vector<std::uint64_t> bytes_by_kind_dense_;
  std::vector<const char*> kind_names_;
  mutable std::map<std::string, std::uint64_t> bytes_by_kind_report_;
};

}  // namespace m2::net
