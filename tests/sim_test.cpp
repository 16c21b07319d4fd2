#include <gtest/gtest.h>

#include <vector>

#include "core/event_queue.hpp"
#include "sim/cpu.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace m2::sim {
namespace {

using core::EventQueue;
using core::kInvalidTimer;
using core::TimerHandle;

// ---------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoForEqualTimestamps) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 100; ++i) q.schedule(5, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const TimerHandle id = q.schedule(10, [&] { fired = true; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeNever);
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  const TimerHandle id = q.schedule(10, [] {});
  q.pop().second();
  q.cancel(id);  // must not corrupt the queue
  q.schedule(20, [] {});
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  q.cancel(123456);
  q.cancel(kInvalidTimer);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const TimerHandle a = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(a);
  EXPECT_EQ(q.next_time(), 20);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, RunDueLeavesWhatItsCallbacksArmForTheNextPass) {
  // A runtime node's timer pass: the timers due at the clock reading fire
  // in (deadline, arm order); one a callback arms waits for the next pass,
  // even at zero delay, so the node drains its inbox in between.
  EventQueue q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] {
    fired.push_back(2);
    q.schedule(20, [&] { fired.push_back(4); });
  });
  q.schedule(10, [&] { fired.push_back(11); });
  EXPECT_EQ(q.run_due(5), 0u);
  EXPECT_EQ(q.run_due(20), 3u);
  EXPECT_EQ(fired, (std::vector<int>{1, 11, 2}));
  EXPECT_EQ(q.next_time(), 20);
  EXPECT_EQ(q.run_due(20), 1u);
  EXPECT_EQ(fired, (std::vector<int>{1, 11, 2, 4}));
  EXPECT_EQ(q.next_time(), 30);
}

// ---------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  Time seen = -1;
  sim.after(100, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RunUntilLeavesLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.after(10, [&] { ++fired; });
  sim.after(50, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20);
  sim.run_until(100);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  std::vector<Time> times;
  sim.after(10, [&] {
    times.push_back(sim.now());
    sim.after(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<Time>{10, 15}));
}

TEST(Simulator, RunLimitStopsEarly) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.after(i, [&] { ++fired; });
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(fired, 3);
}

// ---------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformBounds) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.uniform(17), 17u);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, Uniform01MeanIsHalf) {
  Rng r(9);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng r(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, LognormalMedian) {
  Rng r(13);
  std::vector<double> v(100001);
  for (auto& x : v) x = r.lognormal(2.0, 0.5);
  std::nth_element(v.begin(), v.begin() + 50000, v.end());
  EXPECT_NEAR(v[50000], 2.0, 0.05);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(5);
  Rng child = parent.split();
  // The child stream must not replay the parent's outputs.
  Rng parent2(5);
  Rng child2 = parent2.split();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child.next(), child2.next());
}

// ---------------------------------------------------------------------
// NodeCpu
// ---------------------------------------------------------------------

TEST(NodeCpu, SingleCoreSerializesJobs) {
  Simulator sim;
  NodeCpu cpu(sim, 1);
  std::vector<Time> done;
  for (int i = 0; i < 3; ++i) cpu.submit(0, 100, [&] { done.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(done, (std::vector<Time>{100, 200, 300}));
}

TEST(NodeCpu, ParallelJobsUseAllCores) {
  Simulator sim;
  NodeCpu cpu(sim, 4);
  std::vector<Time> done;
  for (int i = 0; i < 4; ++i) cpu.submit(0, 100, [&] { done.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(done, (std::vector<Time>{100, 100, 100, 100}));
}

TEST(NodeCpu, SerialStageBottlenecksRegardlessOfCores) {
  Simulator sim;
  NodeCpu cpu(sim, 32);
  Time last = 0;
  for (int i = 0; i < 10; ++i) cpu.submit(100, 0, [&] { last = sim.now(); });
  sim.run();
  // All ten serial jobs pass through the single serial resource.
  EXPECT_EQ(last, 1000);
}

TEST(NodeCpu, SerialThenParallelPipeline) {
  Simulator sim;
  NodeCpu cpu(sim, 8);
  std::vector<Time> done;
  // Serial part 10, parallel part 100: the serial stage admits one job per
  // 10 time units, parallel fan-out overlaps.
  for (int i = 0; i < 4; ++i)
    cpu.submit(10, 100, [&] { done.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(done, (std::vector<Time>{110, 120, 130, 140}));
}

TEST(NodeCpu, TracksBusyTimeAndJobs) {
  Simulator sim;
  NodeCpu cpu(sim, 2);
  cpu.submit(10, 90, [] {});
  cpu.submit(0, 50, [] {});
  sim.run();
  EXPECT_EQ(cpu.busy_time(), 150);
  EXPECT_EQ(cpu.serial_busy_time(), 10);
  EXPECT_EQ(cpu.jobs_completed(), 2u);
}

TEST(NodeCpu, MoreCoresIncreaseThroughput) {
  // The Fig. 4 mechanism in miniature: 1000 parallel jobs of cost 100.
  auto finish_time = [](int cores) {
    Simulator sim;
    NodeCpu cpu(sim, cores);
    for (int i = 0; i < 1000; ++i) cpu.submit(0, 100, [] {});
    sim.run();
    return sim.now();
  };
  const Time t4 = finish_time(4);
  const Time t16 = finish_time(16);
  EXPECT_NEAR(static_cast<double>(t4) / static_cast<double>(t16), 4.0, 0.1);
}

}  // namespace
}  // namespace m2::sim
