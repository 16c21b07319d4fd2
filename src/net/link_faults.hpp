#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "net/payload.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace m2::net {

/// Every link fault of the fault model, held once for both substrates: the
/// simulator's net::Network and the runtime's ChaosTransport read the same
/// state and follow the same rules.
///
/// State: the n×n directed link matrix (a partition rewrites it), the loss
/// and duplication probabilities, the latency scale and a per-link extra
/// one-way delay (a slow-peer throttle). It owns no RNG: the loss and
/// duplication rolls draw from the caller's, so each substrate keeps its
/// own draw order. Not thread-safe; the runtime guards it with a lock.
class LinkFaults {
 public:
  explicit LinkFaults(int n_nodes, double loss = 0.0)
      : n_(static_cast<std::size_t>(n_nodes)),
        link_down_(n_ * n_, 0),
        throttle_(n_ * n_, 0),
        loss_(loss) {}

  bool link_up(NodeId from, NodeId to) const {
    return link_down_[index(from, to)] == 0;
  }
  /// Makes the directed link from->to drop everything (or restores it).
  void set_link(NodeId from, NodeId to, bool up) {
    link_down_[index(from, to)] = up ? 0 : 1;
  }
  /// Splits the cluster: nodes in `group` can only talk within the group,
  /// everyone else only outside it. Rewrites every link, so a later
  /// set_link(a, b, true) reopens that one link across the cut.
  void partition(const std::vector<NodeId>& group) {
    std::vector<char> in_group(n_, 0);
    for (const NodeId n : group) in_group[n] = 1;
    for (std::size_t i = 0; i < n_; ++i)
      for (std::size_t j = 0; j < n_; ++j)
        link_down_[i * n_ + j] = in_group[i] == in_group[j] ? 0 : 1;
  }
  /// Restores every link. Loss, duplication, latency and throttles stay.
  void heal() { std::fill(link_down_.begin(), link_down_.end(), 0); }

  /// Independent drop probability per transmission.
  void set_loss(double p) { loss_ = p; }
  double loss() const { return loss_; }
  /// True when a transmission is lost; draws from `rng` only when loss is on.
  bool lose(sim::Rng& rng) const { return loss_ > 0 && rng.chance(loss_); }

  /// Probability a transmission is delivered twice.
  void set_duplication(double p) { dup_ = p; }
  double duplication() const { return dup_; }
  /// True when a transmission is duplicated; draws from `rng` only when
  /// duplication is on.
  bool duplicate(sim::Rng& rng) const { return dup_ > 0 && rng.chance(dup_); }

  /// Multiplies propagation latency (a latency spike); 1 is the baseline.
  void set_latency_scale(double scale) { scale_ = scale; }
  double latency_scale() const { return scale_; }

  /// Extra one-way delay on the directed link from->to (a slow peer);
  /// 0 clears it.
  void set_throttle(NodeId from, NodeId to, sim::Time extra) {
    throttle_[index(from, to)] = extra;
  }
  sim::Time throttle(NodeId from, NodeId to) const {
    return throttle_[index(from, to)];
  }

  /// Removes every fault: links up, no loss or duplication, latency x1,
  /// no throttle.
  void clear() {
    heal();
    std::fill(throttle_.begin(), throttle_.end(), 0);
    loss_ = 0;
    dup_ = 0;
    scale_ = 1.0;
  }

 private:
  std::size_t index(NodeId from, NodeId to) const {
    return static_cast<std::size_t>(from) * n_ + static_cast<std::size_t>(to);
  }

  std::size_t n_;
  std::vector<char> link_down_;      // n*n, directed, 1 = down
  std::vector<sim::Time> throttle_;  // n*n, directed, extra one-way delay
  double loss_ = 0;
  double dup_ = 0;
  double scale_ = 1.0;
};

}  // namespace m2::net
