#include "net/network.hpp"

#include <cassert>
#include <utility>

namespace m2::net {

namespace {
/// Sentinel returned by transmit_time when the transmission is dropped.
constexpr sim::Time kDropped = -1;
}  // namespace

Network::Network(sim::Simulator& sim, NetworkConfig cfg, int n_nodes)
    : sim_(sim),
      cfg_(cfg),
      latency_(cfg.latency),
      rng_(sim.rng().split()),
      faults_(n_nodes, cfg.loss_probability),
      delivery_(static_cast<std::size_t>(n_nodes)),
      nic_free_at_(static_cast<std::size_t>(n_nodes), 0),
      crashed_(static_cast<std::size_t>(n_nodes), 0),
      batches_(static_cast<std::size_t>(n_nodes) * n_nodes),
      last_arrival_(static_cast<std::size_t>(n_nodes) * n_nodes, 0),
      counters_(static_cast<std::size_t>(n_nodes)) {
  assert(n_nodes > 0);
}

void Network::set_delivery(NodeId node, DeliveryFn fn) {
  delivery_[node] = std::move(fn);
}

void Network::set_crashed(NodeId node, bool crashed) {
  crashed_[node] = crashed ? 1 : 0;
}

void Network::set_batching(bool on) {
  cfg_.batching = on;
  if (on) return;
  // Flush every open batch now: with batching off nothing would ever top
  // them up, so their envelopes would otherwise sit parked until the
  // original batch_window timer fired.
  const int n = n_nodes();
  for (NodeId from = 0; from < static_cast<NodeId>(n); ++from)
    for (NodeId to = 0; to < static_cast<NodeId>(n); ++to) flush(from, to);
}

TrafficCounters Network::total_counters() const {
  TrafficCounters total;
  for (const auto& c : counters_) {
    total.messages_sent += c.messages_sent;
    total.bytes_sent += c.bytes_sent;
    total.messages_delivered += c.messages_delivered;
    total.batches_sent += c.batches_sent;
    total.messages_dropped += c.messages_dropped;
  }
  return total;
}

void Network::reset_counters() {
  for (auto& c : counters_) c = TrafficCounters{};
  bytes_by_kind_dense_.clear();
  kind_names_.clear();
}

const std::map<std::string, std::uint64_t>& Network::bytes_by_kind() const {
  bytes_by_kind_report_.clear();
  for (std::size_t k = 0; k < kind_names_.size(); ++k)
    if (kind_names_[k] != nullptr)
      bytes_by_kind_report_[kind_names_[k]] += bytes_by_kind_dense_[k];
  return bytes_by_kind_report_;
}

void Network::account_send(const Envelope& env, std::size_t framed_bytes) {
  auto& c = counters_[env.from];
  ++c.messages_sent;
  c.bytes_sent += framed_bytes;
  // Dense per-kind tally; the name (a static string owned by the payload
  // class) is remembered so bytes_by_kind() can label the counts.
  const std::uint32_t kind = env.payload->kind();
  if (kind >= bytes_by_kind_dense_.size()) {
    bytes_by_kind_dense_.resize(kind + 1, 0);
    kind_names_.resize(kind + 1, nullptr);
  }
  bytes_by_kind_dense_[kind] += framed_bytes;
  kind_names_[kind] = env.payload->name();
}

void Network::deliver_now(NodeId to, const Envelope& env) {
  if (crashed_[to] || !delivery_[to]) return;
  ++counters_[to].messages_delivered;
  delivery_[to](env);
}

void Network::send(NodeId from, NodeId to, PayloadPtr payload) {
  assert(payload != nullptr);
  if (crashed_[from]) return;
  Envelope env{from, to, std::move(payload), sim_.now()};

  if (from == to) {
    // Loopback: no NIC, no propagation; delivered on the next event so the
    // sender's current handler finishes first.
    account_send(env, env.payload->wire_size());
    sim_.after(0, [this, env = std::move(env)] { deliver_now(env.to, env); });
    return;
  }
  enqueue(std::move(env));
}

void Network::broadcast(NodeId from, PayloadPtr payload, bool include_self) {
  const int n = n_nodes();
  for (NodeId to = 0; to < static_cast<NodeId>(n); ++to) {
    if (to == from && !include_self) continue;
    send(from, to, payload);
  }
}

void Network::enqueue(Envelope env) {
  const std::size_t msg_bytes =
      env.payload->wire_size() + cfg_.per_message_overhead;

  if (!cfg_.batching) {
    account_send(env, msg_bytes);
    transmit_one(std::move(env), msg_bytes + cfg_.per_batch_overhead);
    return;
  }

  const NodeId from = env.from;
  const NodeId to = env.to;
  Batch& batch = batches_[link_index(from, to)];
  account_send(env, msg_bytes);
  batch.bytes += msg_bytes;
  batch.envelopes.push_back(std::move(env));

  if (batch.envelopes.size() >= cfg_.batch_max_messages ||
      batch.bytes >= cfg_.batch_max_bytes) {
    flush(from, to);
  } else if (batch.flush_event == core::kInvalidTimer) {
    batch.flush_event =
        sim_.after(cfg_.batch_window, [this, from, to] { flush(from, to); });
  }
}

void Network::flush(NodeId from, NodeId to) {
  Batch& batch = batches_[link_index(from, to)];
  if (batch.envelopes.empty()) return;
  std::vector<Envelope> envelopes = std::move(batch.envelopes);
  const std::size_t bytes = batch.bytes;
  sim_.cancel(batch.flush_event);
  batch.envelopes.clear();
  batch.bytes = 0;
  batch.flush_event = core::kInvalidTimer;
  ++counters_[from].batches_sent;
  transmit(from, to, std::move(envelopes), bytes + cfg_.per_batch_overhead);
}

sim::Time Network::transmit_time(NodeId from, NodeId to, std::size_t bytes,
                                 std::size_t n_messages) {
  // Egress NIC: transmissions from one node share its link bandwidth. The
  // NIC is reserved even for transmissions that are then lost (the sender
  // cannot know).
  const sim::Time ser = latency_.serialization(bytes);
  const sim::Time leave = std::max(sim_.now(), nic_free_at_[from]) + ser;
  nic_free_at_[from] = leave;

  if (!faults_.link_up(from, to) || faults_.lose(rng_)) {
    counters_[from].messages_dropped += n_messages;
    return kDropped;
  }

  // Propagation is sampled once per transmission; size cost was already
  // paid at the NIC, so only the propagation+jitter component remains. A
  // throttle adds its extra delay before the FIFO clamp.
  sim::Time arrival = leave +
                      latency_.one_way(0, rng_, faults_.latency_scale()) +
                      faults_.throttle(from, to);
  if (cfg_.fifo_links) {
    sim::Time& last = last_arrival_[link_index(from, to)];
    arrival = std::max(arrival, last + 1);
    last = arrival;
  }
  return arrival;
}

void Network::transmit_one(Envelope env, std::size_t bytes) {
  if (crashed_[env.from]) return;
  const sim::Time arrival = transmit_time(env.from, env.to, bytes, 1);
  if (arrival == kDropped) return;
  const bool duplicated = faults_.duplicate(rng_);
  if (!duplicated) {
    sim_.at(arrival, [this, env = std::move(env)] { deliver_now(env.to, env); });
    return;
  }
  // The duplicate trails the original, as a retransmission would. Schedule
  // the original first so equal-timestamp delivery keeps FIFO order.
  const sim::Time dup_at = arrival + cfg_.latency.propagation;
  sim_.at(arrival, [this, env] { deliver_now(env.to, env); });
  sim_.at(dup_at, [this, env = std::move(env)] { deliver_now(env.to, env); });
}

void Network::transmit(NodeId from, NodeId to, std::vector<Envelope> envelopes,
                       std::size_t bytes) {
  if (crashed_[from]) return;
  const sim::Time arrival = transmit_time(from, to, bytes, envelopes.size());
  if (arrival == kDropped) return;
  const bool duplicated = faults_.duplicate(rng_);

  // A sender crash after the batch hit the wire does not unsend it (crash
  // semantics, not Byzantine) — deliver regardless of the sender's fate.
  auto deliver_batch = [this, to](const std::vector<Envelope>& envs) {
    if (crashed_[to] || !delivery_[to]) return;
    for (const Envelope& env : envs) {
      ++counters_[to].messages_delivered;
      delivery_[to](env);
    }
  };

  if (!duplicated) {
    sim_.at(arrival, [deliver_batch, envs = std::move(envelopes)] {
      deliver_batch(envs);
    });
    return;
  }
  const sim::Time dup_at = arrival + cfg_.latency.propagation;
  sim_.at(arrival, [deliver_batch, envs = envelopes] { deliver_batch(envs); });
  sim_.at(dup_at, [deliver_batch, envs = std::move(envelopes)] {
    deliver_batch(envs);
  });
}

}  // namespace m2::net
