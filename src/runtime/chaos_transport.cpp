#include "runtime/chaos_transport.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "net/serde.hpp"

namespace m2::runtime {

namespace {

core::Time chaos_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ChaosTransport::ChaosTransport(std::unique_ptr<Transport> inner, int n_nodes,
                               std::uint64_t seed)
    : inner_(std::move(inner)),
      n_(n_nodes),
      rng_(seed ^ 0x6368616f735f7478ull),
      link_down_(static_cast<std::size_t>(n_nodes) * n_nodes, 0),
      corrupt_drop_(static_cast<std::size_t>(n_nodes) * n_nodes, 0),
      throttle_(static_cast<std::size_t>(n_nodes) * n_nodes, 0),
      in_group_(static_cast<std::size_t>(n_nodes), 0) {}

ChaosTransport::~ChaosTransport() { stop(); }

void ChaosTransport::attach(NodeId node, Inbox* inbox) {
  inner_->attach(node, inbox);
}

void ChaosTransport::start() {
  inner_->start();
  {
    std::lock_guard<std::mutex> lock(q_mu_);
    pump_running_ = true;
  }
  pump_ = std::thread([this] { pump_loop(); });
}

void ChaosTransport::stop() {
  {
    std::lock_guard<std::mutex> lock(q_mu_);
    if (!pump_running_ && !pump_.joinable()) {
      inner_->stop();
      return;
    }
    pump_running_ = false;
  }
  q_cv_.notify_one();
  if (pump_.joinable()) pump_.join();
  inner_->stop();
}

void ChaosTransport::fold_metrics(stats::MetricsRegistry& reg) const {
  inner_->fold_metrics(reg);
  reg.inc(stats::Counter::kChaosDropped,
          dropped_.load(std::memory_order_relaxed));
  reg.inc(stats::Counter::kChaosDelayed,
          delayed_.load(std::memory_order_relaxed));
  reg.inc(stats::Counter::kChaosDuplicated,
          duplicated_.load(std::memory_order_relaxed));
  reg.inc(stats::Counter::kChaosCorrupted,
          corrupted_.load(std::memory_order_relaxed));
  reg.inc(stats::Counter::kChaosResets,
          resets_.load(std::memory_order_relaxed));
}

void ChaosTransport::set_link(NodeId from, NodeId to, bool up) {
  std::lock_guard<std::mutex> lock(mu_);
  link_down_.at(link_index(from, to)) = up ? 0 : 1;
}

void ChaosTransport::set_partition(const std::vector<NodeId>& group) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(in_group_.begin(), in_group_.end(), 0);
  for (const NodeId n : group) in_group_.at(n) = 1;
  partitioned_ = true;
}

void ChaosTransport::heal() {
  std::lock_guard<std::mutex> lock(mu_);
  partitioned_ = false;
  std::fill(in_group_.begin(), in_group_.end(), 0);
  std::fill(link_down_.begin(), link_down_.end(), 0);
}

void ChaosTransport::calm() {
  std::lock_guard<std::mutex> lock(mu_);
  partitioned_ = false;
  std::fill(in_group_.begin(), in_group_.end(), 0);
  std::fill(link_down_.begin(), link_down_.end(), 0);
  std::fill(corrupt_drop_.begin(), corrupt_drop_.end(), 0);
  std::fill(throttle_.begin(), throttle_.end(), 0);
  loss_ = 0;
  dup_ = 0;
  delay_ = 0;
}

void ChaosTransport::set_loss(double p) {
  std::lock_guard<std::mutex> lock(mu_);
  loss_ = p;
}

void ChaosTransport::set_duplication(double p) {
  std::lock_guard<std::mutex> lock(mu_);
  dup_ = p;
}

void ChaosTransport::set_delay(core::Time delay) {
  std::lock_guard<std::mutex> lock(mu_);
  delay_ = delay;
}

void ChaosTransport::set_throttle(NodeId from, NodeId to, core::Time delay) {
  std::lock_guard<std::mutex> lock(mu_);
  throttle_.at(link_index(from, to)) = delay;
}

void ChaosTransport::inject_reset(NodeId to) {
  if (inner_->chaos_reset(to))
    resets_.fetch_add(1, std::memory_order_relaxed);
}

void ChaosTransport::inject_corrupt(NodeId from, NodeId to) {
  if (inner_->chaos_corrupt_next(to)) {
    // The wire-level hook lands the corruption; count it here (the inner
    // transport only reports the resulting decode failure on the far end).
    corrupted_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // No wire to corrupt (loopback): a corrupted frame would have been
  // discarded by the receiver's CRC check, so the equivalent observable
  // fault is dropping the next message on the link.
  std::lock_guard<std::mutex> lock(mu_);
  corrupt_drop_.at(link_index(from, to)) = 1;
}

void ChaosTransport::send(NodeId from, NodeId to,
                          const net::Payload& payload) {
  if (from == to) {
    inner_->send(from, to, payload);
    return;
  }
  filtered_send(from, to, payload);
}

void ChaosTransport::broadcast(NodeId from, const net::Payload& payload,
                               bool include_self) {
  // Fan out through the per-link filter so a partition can cut some
  // recipients and not others. Costs one encode per recipient instead of
  // the inner broadcast's shared encode — irrelevant under chaos, which is
  // never benchmarked.
  for (NodeId to = 0; to < static_cast<NodeId>(n_); ++to) {
    if (to == from) {
      if (include_self) inner_->send(from, from, payload);
      continue;
    }
    filtered_send(from, to, payload);
  }
}

void ChaosTransport::filtered_send(NodeId from, NodeId to,
                                   const net::Payload& payload) {
  bool drop = false;
  bool corrupt = false;
  bool duplicate = false;
  core::Time delay = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (link_down_[link_index(from, to)] != 0 ||
        (partitioned_ && in_group_[from] != in_group_[to]) ||
        (loss_ > 0 && rng_.chance(loss_))) {
      drop = true;
    } else if (corrupt_drop_[link_index(from, to)] != 0) {
      corrupt_drop_[link_index(from, to)] = 0;
      corrupt = true;
    } else {
      duplicate = dup_ > 0 && rng_.chance(dup_);
      delay = delay_ + throttle_[link_index(from, to)];
      // Jitter the hold time by up to ±50% so delayed messages overtake
      // each other — delay doubles as the reordering fault.
      if (delay > 0)
        delay = delay / 2 +
                static_cast<core::Time>(
                    rng_.uniform(static_cast<std::uint64_t>(delay) + 1));
    }
  }
  if (drop) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (corrupt) {
    corrupted_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (delay > 0) {
    const core::Time at = chaos_now() + delay;
    enqueue_delayed(from, to, payload, at);
    delayed_.fetch_add(1, std::memory_order_relaxed);
    if (duplicate) {
      enqueue_delayed(from, to, payload, at + delay / 4);
      duplicated_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  inner_->send(from, to, payload);
  if (duplicate) {
    inner_->send(from, to, payload);
    duplicated_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ChaosTransport::enqueue_delayed(NodeId from, NodeId to,
                                     const net::Payload& payload,
                                     core::Time deliver_at) {
  // Serialize on the sending thread (pool-backed payload trees must not
  // cross threads); the pump decodes the bytes and re-injects the message
  // through the inner transport, which re-encodes — double serialization
  // is the price of holding a message, paid only on delayed ones.
  Delayed d;
  d.at = deliver_at;
  d.from = from;
  d.to = to;
  net::encode_payload_into(payload, d.bytes);
  {
    std::lock_guard<std::mutex> lock(q_mu_);
    if (!pump_running_) return;  // stopping: the hold-back queue drains dry
    d.seq = next_seq_++;
    queue_.push(std::move(d));
  }
  q_cv_.notify_one();
}

void ChaosTransport::pump_loop() {
  std::unique_lock<std::mutex> lock(q_mu_);
  while (true) {
    if (!pump_running_) return;  // pending messages are dropped at stop
    if (queue_.empty()) {
      q_cv_.wait(lock, [&] { return !pump_running_ || !queue_.empty(); });
      continue;
    }
    const core::Time now = chaos_now();
    const core::Time at = queue_.top().at;
    if (at > now) {
      q_cv_.wait_for(lock, std::chrono::nanoseconds(at - now));
      continue;
    }
    Delayed d = queue_.top();
    queue_.pop();
    lock.unlock();
    // Decoded trees are immutable and arena-backed, so crossing from the
    // pump thread into the inner transport's send path is safe.
    if (net::PayloadPtr decoded = net::decode_payload(d.bytes);
        decoded != nullptr) {
      inner_->send(d.from, d.to, *decoded);
    }
    lock.lock();
  }
}

}  // namespace m2::runtime
