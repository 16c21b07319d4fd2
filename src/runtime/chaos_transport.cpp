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

/// The latency scale (the simulator multiplies propagation by it) read as
/// an absolute hold-back: (scale - 1) extra milliseconds per message,
/// roughly a 1 ms base RTT scaled like the simulator scales its links.
core::Time scale_to_delay(double scale) {
  if (scale <= 1.0) return 0;
  return static_cast<core::Time>((scale - 1.0) *
                                 static_cast<double>(core::kMillisecond));
}

}  // namespace

ChaosTransport::ChaosTransport(std::unique_ptr<Transport> inner, int n_nodes,
                               std::uint64_t seed)
    : inner_(std::move(inner)),
      n_(n_nodes),
      rng_(seed ^ 0x6368616f735f7478ull),
      faults_(n_nodes),
      corrupt_drop_(static_cast<std::size_t>(n_nodes) * n_nodes, 0) {}

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

void ChaosTransport::calm() {
  std::lock_guard<std::mutex> lock(mu_);
  faults_.clear();
  std::fill(corrupt_drop_.begin(), corrupt_drop_.end(), 0);
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
    if (!faults_.link_up(from, to) || faults_.lose(rng_)) {
      drop = true;
    } else if (corrupt_drop_[link_index(from, to)] != 0) {
      corrupt_drop_[link_index(from, to)] = 0;
      corrupt = true;
    } else {
      duplicate = faults_.duplicate(rng_);
      delay = scale_to_delay(faults_.latency_scale()) +
              faults_.throttle(from, to);
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
  std::vector<std::uint8_t> bytes;
  net::encode_payload_into(payload, bytes);
  auto reinject = [this, from, to, bytes = std::move(bytes)] {
    // Decoded trees are immutable and arena-backed, so crossing from the
    // pump thread into the inner transport's send path is safe.
    if (net::PayloadPtr decoded = net::decode_payload(bytes);
        decoded != nullptr) {
      inner_->send(from, to, *decoded);
    }
  };
  static_assert(core::InlineFn::stored_inline<decltype(reinject)>(),
                "a held-back message must cost no callback allocation");
  {
    std::lock_guard<std::mutex> lock(q_mu_);
    if (!pump_running_) return;  // stopping: the hold-back queue drains dry
    held_.schedule(deliver_at, std::move(reinject));
  }
  q_cv_.notify_one();
}

void ChaosTransport::pump_loop() {
  std::unique_lock<std::mutex> lock(q_mu_);
  core::InlineFn reinject;
  while (true) {
    if (!pump_running_) return;  // pending messages are dropped at stop
    if (held_.empty()) {
      q_cv_.wait(lock, [&] { return !pump_running_ || !held_.empty(); });
      continue;
    }
    const core::Time now = chaos_now();
    const core::Time at = held_.next_time();
    if (at > now) {
      q_cv_.wait_for(lock, std::chrono::nanoseconds(at - now));
      continue;
    }
    held_.pop_into(reinject);
    lock.unlock();
    reinject();
    reinject = nullptr;  // frees the bytes outside the lock
    lock.lock();
  }
}

}  // namespace m2::runtime
