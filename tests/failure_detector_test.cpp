#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/failure_detector.hpp"
#include "sim/simulator.hpp"

namespace m2::core {
namespace {

/// Minimal context wiring N failure detectors over a simulated bus with a
/// fixed one-way delay. Crashed members stop receiving and sending.
struct FdHarness {
  explicit FdHarness(int n, sim::Time delay = 100 * sim::kMicrosecond)
      : delay_(delay), rng_(1) {
    cfg_.n_nodes = n;
    for (NodeId i = 0; i < static_cast<NodeId>(n); ++i)
      contexts_.push_back(std::make_unique<Ctx>(*this, i));
    for (NodeId i = 0; i < static_cast<NodeId>(n); ++i)
      fds_.push_back(std::make_unique<FailureDetector>(i, cfg_, *contexts_[i]));
    crashed_.assign(static_cast<std::size_t>(n), false);
  }

  struct Ctx final : Context {
    Ctx(FdHarness& h, NodeId id) : h_(h), id_(id) {}
    sim::Time now() const override { return h_.sim_.now(); }
    sim::Rng& rng() override { return h_.rng_; }
    void send(NodeId to, net::PayloadPtr p) override { h_.route(id_, to, p); }
    void broadcast(net::PayloadPtr p, bool include_self) override {
      for (NodeId to = 0; to < static_cast<NodeId>(h_.cfg_.n_nodes); ++to)
        if (to != id_ || include_self) h_.route(id_, to, p);
    }
    core::TimerHandle set_timer(sim::Time d, core::TimerFn fn) override {
      return h_.sim_.after(d, std::move(fn));
    }
    void cancel_timer(core::TimerHandle id) override { h_.sim_.cancel(id); }
    void deliver(const Command&) override {}
    void committed(const Command&) override {}
    FdHarness& h_;
    NodeId id_;
  };

  void route(NodeId from, NodeId to, net::PayloadPtr p) {
    if (crashed_[from] || crashed_[to]) return;
    sim_.after(delay_, [this, from, to, p] {
      if (crashed_[to]) return;
      if (p->kind() == net::kKindCommon + 1)
        fds_[to]->on_heartbeat(static_cast<const Heartbeat&>(*p).sender);
      (void)from;
    });
  }

  void start_all() {
    for (auto& fd : fds_) fd->start();
  }
  void run_for(sim::Time d) { sim_.run_until(sim_.now() + d); }

  ClusterConfig cfg_;
  sim::Simulator sim_;
  sim::Time delay_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Ctx>> contexts_;
  std::vector<std::unique_ptr<FailureDetector>> fds_;
  std::vector<bool> crashed_;
};

TEST(FailureDetector, StoppedDetectorSuspectsNoOne) {
  FdHarness h(3);
  // Never started: no suspicion regardless of elapsed time.
  h.run_for(10 * sim::kSecond);
  EXPECT_FALSE(h.fds_[0]->is_suspected(1));
  EXPECT_EQ(h.fds_[0]->leader(), 0u);
}

TEST(FailureDetector, AllAliveNobodySuspected) {
  FdHarness h(5);
  h.start_all();
  h.run_for(1 * sim::kSecond);
  for (NodeId i = 0; i < 5; ++i)
    for (NodeId j = 0; j < 5; ++j)
      EXPECT_FALSE(h.fds_[i]->is_suspected(j)) << i << " suspects " << j;
  EXPECT_EQ(h.fds_[3]->leader(), 0u);
}

TEST(FailureDetector, CrashedNodeIsSuspectedAfterTimeout) {
  FdHarness h(3);
  h.start_all();
  h.run_for(200 * sim::kMillisecond);
  h.crashed_[0] = true;
  h.run_for(kSuspectTimeout + 2 * kHeartbeatPeriod);
  EXPECT_TRUE(h.fds_[1]->is_suspected(0));
  EXPECT_TRUE(h.fds_[2]->is_suspected(0));
  EXPECT_EQ(h.fds_[1]->leader(), 1u);  // Ω moves to the next node
  EXPECT_EQ(h.fds_[2]->leader(), 1u);
}

TEST(FailureDetector, RecoveredNodeIsTrustedAgain) {
  FdHarness h(3);
  h.start_all();
  h.run_for(100 * sim::kMillisecond);
  h.crashed_[0] = true;
  h.run_for(kSuspectTimeout + 2 * kHeartbeatPeriod);
  ASSERT_TRUE(h.fds_[1]->is_suspected(0));
  h.crashed_[0] = false;
  h.run_for(3 * kHeartbeatPeriod);
  EXPECT_FALSE(h.fds_[1]->is_suspected(0));
  EXPECT_EQ(h.fds_[1]->leader(), 0u);  // Ω returns to the lowest id
}

TEST(FailureDetector, LeaderChangeCallbackFires) {
  FdHarness h(3);
  NodeId observed = kNoNode;
  h.fds_[1]->set_on_leader_change([&](NodeId n) { observed = n; });
  h.start_all();
  h.run_for(100 * sim::kMillisecond);
  h.crashed_[0] = true;
  h.run_for(kSuspectTimeout + 3 * kHeartbeatPeriod);
  EXPECT_EQ(observed, 1u);
}

TEST(FailureDetector, SelfIsNeverSuspected) {
  FdHarness h(2);
  h.start_all();
  h.run_for(10 * sim::kSecond);
  EXPECT_FALSE(h.fds_[0]->is_suspected(0));
  EXPECT_FALSE(h.fds_[1]->is_suspected(1));
}

}  // namespace
}  // namespace m2::core
