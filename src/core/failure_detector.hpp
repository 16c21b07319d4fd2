#pragma once

#include <functional>
#include <vector>

#include "core/config.hpp"
#include "core/replica.hpp"
#include "core/time.hpp"
#include "net/wire.hpp"

namespace m2::core {

/// Heartbeat message exchanged by the failure detector.
struct Heartbeat final : net::Message<Heartbeat, net::kKindCommon + 1> {
  static constexpr const char* kName = "Heartbeat";
  Heartbeat() = default;
  explicit Heartbeat(NodeId s) : sender(s) {}
  NodeId sender = kNoNode;

  static auto fields(auto& m, auto& v) { return v(m.sender); }
};

/// Heartbeat period and the silence after which a node is suspected.
inline constexpr Time kHeartbeatPeriod = 10 * kMillisecond;
inline constexpr Time kSuspectTimeout = 50 * kMillisecond;

/// Eventually-perfect failure detector (◇P-style) built from periodic
/// heartbeats, plus the Ω leader election the paper assumes (§III):
/// the leader is the lowest-id node not currently suspected.
///
/// A protocol replica owns one detector, calls on_heartbeat() for incoming
/// Heartbeat payloads, and queries leader()/is_suspected(). Suspicion is
/// conservative: a node is suspected after kSuspectTimeout of silence and
/// trusted again on the next heartbeat.
class FailureDetector {
 public:
  FailureDetector(NodeId self, const ClusterConfig& cfg, Context& ctx);
  ~FailureDetector();

  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// Starts the heartbeat timer. Idempotent.
  void start();
  /// Stops heartbeating (on crash).
  void stop();

  /// Feeds an incoming heartbeat from `from`.
  void on_heartbeat(NodeId from);

  bool is_suspected(NodeId node) const;

  /// Ω output: lowest-id unsuspected node.
  NodeId leader() const;

  /// Invoked when the Ω output changes (new leader elected).
  void set_on_leader_change(std::function<void(NodeId)> fn) {
    on_leader_change_ = std::move(fn);
  }

 private:
  void tick();

  NodeId self_;
  int n_nodes_;
  Context& ctx_;
  std::vector<core::Time> last_heard_;
  core::TimerHandle timer_ = core::kInvalidTimer;
  bool running_ = false;
  NodeId last_leader_ = kNoNode;
  std::function<void(NodeId)> on_leader_change_;
};

}  // namespace m2::core
