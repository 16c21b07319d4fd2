#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "test_util.hpp"
#include "workload/synthetic.hpp"

namespace m2::harness {
namespace {

ExperimentConfig quick_cfg(core::Protocol p, int n) {
  auto cfg = test::test_config(p, n);
  cfg.audit = false;
  cfg.network.batching = true;
  cfg.warmup = 20 * sim::kMillisecond;
  cfg.measure = 50 * sim::kMillisecond;
  cfg.load.clients_per_node = 8;
  cfg.load.max_inflight_per_node = 8;
  return cfg;
}

TEST(Harness, RunProducesThroughputAndLatency) {
  wl::SyntheticWorkload w({3, 1000, 1.0, 0.0, 16, 1});
  const auto r = run_experiment(quick_cfg(core::Protocol::kM2Paxos, 3), w);
  EXPECT_GT(r.committed, 100u);
  EXPECT_GT(r.committed_per_sec, 1000.0);
  EXPECT_GT(r.commit_latency.count(), 0u);
  EXPECT_GT(r.commit_latency.median(), 0);
  EXPECT_GT(r.traffic.messages_sent, 0u);
  EXPECT_GT(r.bytes_per_command, 0.0);
}

TEST(Harness, AllProtocolsCompleteARun) {
  for (const auto p :
       {core::Protocol::kMultiPaxos, core::Protocol::kGenPaxos,
        core::Protocol::kEPaxos, core::Protocol::kM2Paxos}) {
    wl::SyntheticWorkload w({3, 1000, 1.0, 0.0, 16, 1});
    const auto r = run_experiment(quick_cfg(p, 3), w);
    EXPECT_GT(r.committed, 50u) << core::to_string(p);
  }
}

TEST(Harness, InflightCapBoundsOutstandingCommands) {
  wl::SyntheticWorkload w({3, 1000, 1.0, 0.0, 16, 1});
  auto cfg = quick_cfg(core::Protocol::kM2Paxos, 3);
  cfg.load.max_inflight_per_node = 4;
  cfg.load.clients_per_node = 32;  // far more clients than slots
  Cluster cluster(cfg, w);
  cluster.start_clients();
  for (int step = 0; step < 50; ++step) {
    cluster.run_for(sim::kMillisecond);
    for (int n = 0; n < 3; ++n)
      EXPECT_LE(cluster.inflight(static_cast<NodeId>(n)), 4u);
  }
}

TEST(Harness, ThinkTimeThrottlesLoad) {
  wl::SyntheticWorkload w1({3, 1000, 1.0, 0.0, 16, 1});
  auto fast = quick_cfg(core::Protocol::kM2Paxos, 3);
  const auto r_fast = run_experiment(fast, w1);

  wl::SyntheticWorkload w2({3, 1000, 1.0, 0.0, 16, 1});
  auto slow = fast;
  slow.load.think_time = 5 * sim::kMillisecond;  // paper's Fig. 3 setting
  const auto r_slow = run_experiment(slow, w2);

  EXPECT_LT(r_slow.committed_per_sec, r_fast.committed_per_sec / 2);
}

TEST(Harness, AuditDetectsNothingOnHealthyRun) {
  wl::SyntheticWorkload w({3, 100, 0.5, 0.2, 16, 5});
  auto cfg = quick_cfg(core::Protocol::kM2Paxos, 3);
  cfg.audit = true;
  Cluster cluster(cfg, w);
  const auto r = cluster.run();
  EXPECT_GT(r.committed, 0u);
  cluster.run_for(500 * sim::kMillisecond);  // drain
  const auto report = cluster.audit_consistency();
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(Harness, SaturationSearchFindsAPlateau) {
  auto base = quick_cfg(core::Protocol::kM2Paxos, 3);
  base.measure = 30 * sim::kMillisecond;
  const auto make = [] {
    return std::make_unique<wl::SyntheticWorkload>(
        wl::SyntheticConfig{3, 1000, 1.0, 0.0, 16, 1});
  };
  const auto best = find_max_throughput(base, make, {2, 16, 64});
  EXPECT_GT(best.committed_per_sec, 0.0);

  // A tiny load can't be the max: in-flight 2 commits strictly less.
  auto tiny = base;
  tiny.load.max_inflight_per_node = 2;
  tiny.load.clients_per_node = 2;
  EXPECT_GT(best.committed_per_sec,
            run_experiment(tiny, *make()).committed_per_sec);
}

TEST(Harness, CpuUtilizationReported) {
  wl::SyntheticWorkload w({3, 1000, 1.0, 0.0, 16, 1});
  const auto r = run_experiment(quick_cfg(core::Protocol::kM2Paxos, 3), w);
  EXPECT_GT(r.avg_cpu_utilization, 0.0);
  EXPECT_LE(r.avg_cpu_utilization, 1.0);
}

TEST(Harness, DeterministicAcrossRuns) {
  wl::SyntheticWorkload w1({3, 1000, 1.0, 0.0, 16, 42});
  wl::SyntheticWorkload w2({3, 1000, 1.0, 0.0, 16, 42});
  auto cfg = quick_cfg(core::Protocol::kM2Paxos, 3);
  cfg.seed = 42;
  const auto a = run_experiment(cfg, w1);
  const auto b = run_experiment(cfg, w2);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.traffic.messages_sent, b.traffic.messages_sent);
  EXPECT_EQ(a.commit_latency.median(), b.commit_latency.median());
}

TEST(Harness, DeterministicForEveryProtocol) {
  for (const auto p :
       {core::Protocol::kMultiPaxos, core::Protocol::kGenPaxos,
        core::Protocol::kEPaxos, core::Protocol::kM2Paxos}) {
    auto run = [&] {
      wl::SyntheticWorkload w({3, 100, 0.8, 0.1, 16, 9});
      auto cfg = quick_cfg(p, 3);
      cfg.seed = 9;
      const auto r = run_experiment(cfg, w);
      return std::make_tuple(r.committed, r.traffic.bytes_sent,
                             r.commit_latency.median());
    };
    EXPECT_EQ(run(), run()) << core::to_string(p);
  }
}

TEST(Harness, M2PaxosFastPathMessageBudget) {
  // Regression guard for message blow-ups: a fast-path decision at N=3 is
  // Accept(3, incl. loopback) + AckAccept(3) + Decide(2) = 8 messages.
  wl::SyntheticWorkload w({3, 1000, 1.0, 0.0, 16, 1});
  auto cfg = test::test_config(core::Protocol::kM2Paxos, 3, 1);
  cfg.audit = false;
  Cluster cluster(cfg, w);
  cluster.set_measuring(true);
  const int k = 50;
  for (int i = 1; i <= k; ++i)
    cluster.propose(0, test::cmd(0, static_cast<std::uint64_t>(i), {0}));
  cluster.run_idle();
  ASSERT_EQ(cluster.committed_count(), static_cast<std::uint64_t>(k));
  const auto total = cluster.network().total_counters();
  const double per_cmd =
      static_cast<double>(total.messages_sent) / static_cast<double>(k);
  EXPECT_GE(per_cmd, 7.5);
  EXPECT_LE(per_cmd, 9.5);
}

// The cluster's event trace is its observer (core::ClusterObserver): the
// fuzzing auditor and runtime tracers read protocol activity through it.

/// Records each observed event as "<kind> <node>".
class EventLog final : public core::ClusterObserver {
 public:
  void on_propose(sim::Time, NodeId n, const core::Command&) override {
    add("propose", n);
  }
  void on_decided(sim::Time, NodeId n, core::ObjectId, core::Instance,
                  const core::Command&) override {
    add("decide", n);
  }
  void on_deliver(sim::Time, NodeId n, const core::Command&) override {
    add("deliver", n);
  }
  void on_committed(sim::Time, NodeId n, const core::Command&) override {
    add("commit", n);
  }
  void on_crash(sim::Time, NodeId n) override { add("crash", n); }
  void on_recover(sim::Time, NodeId n) override { add("recover", n); }

  bool has(const std::string& event) const {
    return std::find(events_.begin(), events_.end(), event) != events_.end();
  }

 private:
  void add(const char* kind, NodeId n) {
    events_.push_back(std::string(kind) + " " + std::to_string(n));
  }
  std::vector<std::string> events_;
};

TEST(ClusterTrace, RecordsProtocolActivity) {
  wl::SyntheticWorkload workload({3, 100, 1.0, 0.0, 16, 1});
  auto cfg = test::test_config(core::Protocol::kM2Paxos, 3, 1);
  Cluster cluster(cfg, workload);
  EventLog log;
  cluster.set_observer(&log);
  cluster.set_measuring(true);
  cluster.propose(0, test::cmd(0, 1, {0}));
  cluster.run_idle();

  EXPECT_TRUE(log.has("propose 0"));
  EXPECT_TRUE(log.has("commit 0"));
  for (const char* node : {"0", "1", "2"}) {
    EXPECT_TRUE(log.has(std::string("decide ") + node)) << node;
    EXPECT_TRUE(log.has(std::string("deliver ") + node)) << node;
  }
}

TEST(ClusterTrace, CrashAndRecoveryAppear) {
  wl::SyntheticWorkload workload({3, 100, 1.0, 0.0, 16, 1});
  auto cfg = test::test_config(core::Protocol::kM2Paxos, 3, 1);
  Cluster cluster(cfg, workload);
  EventLog log;
  cluster.set_observer(&log);
  cluster.crash(2);
  cluster.recover(2);
  EXPECT_TRUE(log.has("crash 2"));
  EXPECT_TRUE(log.has("recover 2"));
}

TEST(Table, FormatsAligned) {
  Table t("demo");
  t.set_header({"nodes", "tput"});
  t.add_row({"3", Table::kcps(123456)});
  t.add_row({"49", Table::num(7.25, 2)});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("123.5k"), std::string::npos);
  EXPECT_NE(out.find("7.25"), std::string::npos);
}

}  // namespace
}  // namespace m2::harness
