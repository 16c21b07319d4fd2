#include "core/failure_detector.hpp"

namespace m2::core {

FailureDetector::FailureDetector(NodeId self, const ClusterConfig& cfg,
                                 Context& ctx)
    : self_(self),
      n_nodes_(cfg.n_nodes),
      ctx_(ctx),
      last_heard_(static_cast<std::size_t>(cfg.n_nodes), 0) {}

FailureDetector::~FailureDetector() { stop(); }

void FailureDetector::start() {
  if (running_) return;
  running_ = true;
  // Treat everyone as alive at start so the initial leader is node 0.
  for (auto& t : last_heard_) t = ctx_.now();
  last_leader_ = leader();
  tick();
}

void FailureDetector::stop() {
  running_ = false;
  ctx_.cancel_timer(timer_);
  timer_ = core::kInvalidTimer;
}

void FailureDetector::tick() {
  if (!running_) return;
  ctx_.broadcast(net::make_payload<Heartbeat>(self_), false);
  const NodeId now_leader = leader();
  if (now_leader != last_leader_) {
    last_leader_ = now_leader;
    if (on_leader_change_) on_leader_change_(now_leader);
  }
  timer_ = ctx_.set_timer(kHeartbeatPeriod, [this] { tick(); });
}

void FailureDetector::on_heartbeat(NodeId from) {
  last_heard_[from] = ctx_.now();
}

bool FailureDetector::is_suspected(NodeId node) const {
  // A stopped detector suspects no one: without heartbeats flowing there
  // is no evidence, and acting on staleness here once let a replica elect
  // itself leader without a Prepare.
  if (!running_) return false;
  if (node == self_) return false;
  return ctx_.now() - last_heard_[node] > kSuspectTimeout;
}

NodeId FailureDetector::leader() const {
  for (NodeId n = 0; n < static_cast<NodeId>(n_nodes_); ++n)
    if (!is_suspected(n)) return n;
  return self_;
}

}  // namespace m2::core
