#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "core/time.hpp"
#include "runtime/transport.hpp"
#include "sim/rng.hpp"

namespace m2::runtime {

/// Deterministic fault-injection decorator over any Transport (loopback or
/// TCP): the runtime counterpart of the simulator's network faults, driven
/// by the same fuzz::FaultAction vocabulary (chaos.cpp maps a schedule's
/// actions onto these controls at real-time offsets).
///
/// Faults it can express on the send path, per directed link:
///  - drop: link down, partition (exactly one endpoint inside the group),
///    or a seeded loss roll — the message vanishes (chaos_dropped);
///  - delay: a global latency spike and/or per-link slow-peer throttle
///    holds the message back on a pump thread and re-injects it later with
///    jittered timing, so delayed traffic overtakes and reorders
///    (chaos_delayed);
///  - duplicate: a seeded roll delivers a second copy (chaos_duplicated);
///  - corrupt: flips a wire byte via the inner transport's
///    chaos_corrupt_next hook — on TCP the receiver's CRC check tears the
///    connection down; transports with no wire drop the message instead
///    (chaos_corrupted);
///  - reset: tears down the established connection via chaos_reset
///    (chaos_resets; no-op on connectionless transports).
///
/// A node's sends to itself are never faulted (the simulator gives local
/// delivery the same immunity). Control methods are thread-safe and may be
/// called while node threads send concurrently; the seeded RNG makes a
/// fixed (schedule, workload) pair reproducible modulo thread interleaving.
class ChaosTransport final : public Transport {
 public:
  ChaosTransport(std::unique_ptr<Transport> inner, int n_nodes,
                 std::uint64_t seed);
  ~ChaosTransport() override;

  // --- Transport ------------------------------------------------------
  void attach(NodeId node, Inbox* inbox) override;
  void send(NodeId from, NodeId to, const net::Payload& payload) override;
  void broadcast(NodeId from, const net::Payload& payload,
                 bool include_self) override;
  void start() override;
  void stop() override;
  std::string start_error() const override { return inner_->start_error(); }
  void fold_metrics(stats::MetricsRegistry& reg) const override;
  bool chaos_reset(NodeId to) override { return inner_->chaos_reset(to); }
  bool chaos_corrupt_next(NodeId to) override {
    return inner_->chaos_corrupt_next(to);
  }

  // --- fault controls (any thread) -------------------------------------
  /// Makes the directed link from->to drop everything (or restores it),
  /// like net::Network::set_link.
  void set_link(NodeId from, NodeId to, bool up);
  /// Splits `group` from the rest of the cluster (both directions).
  void set_partition(const std::vector<NodeId>& group);
  /// Removes all partitions and per-link failures (not loss/delay/dup —
  /// those have their own clears, mirroring the simulator's heal()).
  void heal();
  void set_loss(double p);
  void set_duplication(double p);
  /// Base delay added to every cross-node message (0 = off).
  void set_delay(core::Time delay);
  /// Extra delay on one directed link (slow peer); 0 clears it.
  void set_throttle(NodeId from, NodeId to, core::Time delay);
  /// Tears down the live connection to `to` (TCP only). Counted when it
  /// actually severed something.
  void inject_reset(NodeId to);
  /// Corrupts the next frame to `to`; on transports with no wire the next
  /// message on the link is dropped instead (both count chaos_corrupted).
  void inject_corrupt(NodeId from, NodeId to);
  /// Removes every standing fault (partition, links, loss, dup, delay,
  /// throttles, pending one-shot corruptions) — the end-of-run safety net
  /// before the drain window.
  void calm();

  Transport* inner() { return inner_.get(); }

  std::uint64_t chaos_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t chaos_delayed() const {
    return delayed_.load(std::memory_order_relaxed);
  }
  std::uint64_t chaos_duplicated() const {
    return duplicated_.load(std::memory_order_relaxed);
  }
  std::uint64_t chaos_corrupted() const {
    return corrupted_.load(std::memory_order_relaxed);
  }
  std::uint64_t chaos_resets() const {
    return resets_.load(std::memory_order_relaxed);
  }
  /// True when any fault ever dropped or corrupted a message on this
  /// transport — the runner uses it to downgrade liveness expectations.
  bool saw_loss() const {
    return chaos_dropped() > 0 || chaos_corrupted() > 0 ||
           chaos_resets() > 0;
  }

 private:
  struct Delayed {
    core::Time at = 0;
    std::uint64_t seq = 0;  // FIFO tie-break for equal deadlines
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    std::vector<std::uint8_t> bytes;
  };
  struct DelayedLater {
    bool operator()(const Delayed& x, const Delayed& y) const {
      return x.at != y.at ? x.at > y.at : x.seq > y.seq;
    }
  };

  std::size_t link_index(NodeId from, NodeId to) const {
    return static_cast<std::size_t>(from) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(to);
  }
  /// One faulted delivery attempt a -> b; called with mu_ NOT held.
  void filtered_send(NodeId from, NodeId to, const net::Payload& payload);
  void enqueue_delayed(NodeId from, NodeId to, const net::Payload& payload,
                       core::Time deliver_at);
  void pump_loop();

  std::unique_ptr<Transport> inner_;
  const int n_;

  std::mutex mu_;  // fault state + rng (control threads vs node threads)
  sim::Rng rng_;
  std::vector<std::uint8_t> link_down_;     // n*n, directed
  std::vector<std::uint8_t> corrupt_drop_;  // n*n, one-shot fallback flags
  std::vector<core::Time> throttle_;        // n*n, per-link extra delay
  std::vector<std::uint8_t> in_group_;      // partition side A membership
  bool partitioned_ = false;
  double loss_ = 0;
  double dup_ = 0;
  core::Time delay_ = 0;

  std::mutex q_mu_;
  std::condition_variable q_cv_;
  std::priority_queue<Delayed, std::vector<Delayed>, DelayedLater> queue_;
  std::uint64_t next_seq_ = 0;  // guarded by q_mu_
  bool pump_running_ = false;   // guarded by q_mu_
  std::thread pump_;

  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> delayed_{0};
  std::atomic<std::uint64_t> duplicated_{0};
  std::atomic<std::uint64_t> corrupted_{0};
  std::atomic<std::uint64_t> resets_{0};
};

}  // namespace m2::runtime
