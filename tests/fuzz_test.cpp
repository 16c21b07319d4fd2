// Fault-schedule fuzzer: generator invariants, auditor correctness on
// healthy protocols, detection of a deliberately broken build, and the
// episode shrinker. The heavyweight seed sweeps live in the m2fuzz CLI
// (nightly CI); these tests keep the machinery honest on every push.
#include <gtest/gtest.h>

#include <algorithm>

#include "fuzz/fault_schedule.hpp"
#include "fuzz/fuzzer.hpp"

namespace m2 {
namespace {

fuzz::Case base_case(core::Protocol p, std::uint64_t seed, int nodes = 5) {
  fuzz::Case fuzz_case;
  fuzz_case.protocol = p;
  fuzz_case.n_nodes = nodes;
  fuzz_case.seed = seed;
  fuzz_case.intensity = 3;
  return fuzz_case;
}

TEST(FaultSchedule, DeterministicPerSeed) {
  const fuzz::ScheduleConfig cfg;
  const auto a = fuzz::make_schedule(42, cfg);
  const auto b = fuzz::make_schedule(42, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].episode, b[i].episode);
  }
  EXPECT_NE(fuzz::to_string(a), fuzz::to_string(fuzz::make_schedule(43, cfg)));
}

TEST(FaultSchedule, EveryFaultIsUndoneWithinHorizon) {
  fuzz::ScheduleConfig cfg;
  cfg.intensity = 8;  // stress the pairing logic
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto schedule = fuzz::make_schedule(seed, cfg);
    int crashed = 0, partitioned = 0, lossy = 0, slowed = 0, duping = 0,
        links_down = 0;
    for (const auto& action : schedule) {
      ASSERT_LE(action.at, cfg.horizon) << action.to_string();
      ASSERT_GE(action.episode, 0) << action.to_string();
      switch (action.kind) {
        case fuzz::FaultKind::kCrash: ++crashed; break;
        case fuzz::FaultKind::kRecover: --crashed; break;
        case fuzz::FaultKind::kPartition: ++partitioned; break;
        case fuzz::FaultKind::kHeal: partitioned = 0; links_down = 0; break;
        case fuzz::FaultKind::kLinkDown: ++links_down; break;
        case fuzz::FaultKind::kLinkUp: links_down = std::max(0, links_down - 1); break;
        case fuzz::FaultKind::kLossSpike: ++lossy; break;
        case fuzz::FaultKind::kLossClear: lossy = 0; break;
        case fuzz::FaultKind::kLatencySpike: ++slowed; break;
        case fuzz::FaultKind::kLatencyClear: slowed = 0; break;
        case fuzz::FaultKind::kDupSpike: ++duping; break;
        case fuzz::FaultKind::kDupClear: duping = 0; break;
        case fuzz::FaultKind::kReset:
        case fuzz::FaultKind::kCorrupt:
        case fuzz::FaultKind::kThrottleSpike:
        case fuzz::FaultKind::kThrottleClear:
          ADD_FAILURE() << "transport-only fault without runtime_faults: "
                        << action.to_string();
          break;
      }
      // A live majority at every instant: at most floor((n-1)/2) down.
      ASSERT_LE(crashed, (cfg.n_nodes - 1) / 2) << "seed " << seed;
    }
    // By the end of the horizon everything is healed.
    EXPECT_EQ(crashed, 0) << "seed " << seed;
    EXPECT_EQ(partitioned, 0) << "seed " << seed;
    EXPECT_EQ(lossy, 0) << "seed " << seed;
    EXPECT_EQ(slowed, 0) << "seed " << seed;
    EXPECT_EQ(duping, 0) << "seed " << seed;
  }
}

TEST(FaultSchedule, PartitionsKeepAMajorityTogether) {
  fuzz::ScheduleConfig cfg;
  cfg.intensity = 8;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    for (const auto& action : fuzz::make_schedule(seed, cfg)) {
      if (action.kind != fuzz::FaultKind::kPartition) continue;
      EXPECT_LE(static_cast<int>(action.group.size()), (cfg.n_nodes - 1) / 2);
      EXPECT_GE(action.group.size(), 1u);
    }
  }
}

TEST(Fuzzer, RunCaseIsDeterministic) {
  const auto fuzz_case = base_case(core::Protocol::kM2Paxos, 7);
  const auto a = fuzz::run_case(fuzz_case);
  const auto b = fuzz::run_case(fuzz_case);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.deliveries, b.deliveries);
}

class FuzzSmoke : public ::testing::TestWithParam<core::Protocol> {};

TEST_P(FuzzSmoke, FewSeedsNoViolations) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto fuzz_case = base_case(GetParam(), seed, seed % 2 == 0 ? 4 : 5);
    const auto result = fuzz::run_case(fuzz_case);
    EXPECT_TRUE(result.ok) << core::to_string(GetParam()) << " seed " << seed
                           << ":\n"
                           << (result.violations.empty()
                                   ? ""
                                   : result.violations.front());
    EXPECT_GT(result.committed, 0u)
        << core::to_string(GetParam()) << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, FuzzSmoke,
    ::testing::Values(core::Protocol::kMultiPaxos, core::Protocol::kGenPaxos,
                      core::Protocol::kEPaxos, core::Protocol::kM2Paxos),
    [](const ::testing::TestParamInfo<core::Protocol>& info) {
      return core::to_string(info.param);
    });

/// A build with the epoch check deliberately skipped (ClusterConfig::
/// test_unsafe_epochs) must be caught by the auditor — this is the
/// end-to-end validation that the fuzzer can actually see unsafety, not
/// just crashes.
TEST(Fuzzer, InjectedEpochBugIsCaught) {
  bool caught = false;
  std::uint64_t failing_seed = 0;
  for (std::uint64_t seed = 1; seed <= 12 && !caught; ++seed) {
    auto fuzz_case = base_case(core::Protocol::kM2Paxos, seed);
    fuzz_case.inject_bug = true;
    const auto result = fuzz::run_case(fuzz_case);
    if (!result.ok) {
      caught = true;
      failing_seed = seed;
    }
  }
  ASSERT_TRUE(caught) << "no seed in 1..12 triggered the injected bug";

  // The failing seed must shrink to a replayable episode subset that still
  // reproduces the violation.
  auto fuzz_case = base_case(core::Protocol::kM2Paxos, failing_seed);
  fuzz_case.inject_bug = true;
  fuzz::Result shrunk_result;
  const auto episodes =
      fuzz::shrink_schedule(fuzz_case, shrunk_result, fuzz::run_case, 60);
  EXPECT_FALSE(shrunk_result.ok);
  EXPECT_FALSE(shrunk_result.violations.empty());

  // Replaying exactly the surviving episodes reproduces the failure.
  fuzz_case.schedule =
      fuzz::keep_episodes(fuzz::schedule_for(fuzz_case), episodes);
  const auto replay = fuzz::run_case(fuzz_case);
  EXPECT_FALSE(replay.ok);

  // And the same seed with the bug disabled is clean.
  auto healthy = base_case(core::Protocol::kM2Paxos, failing_seed);
  const auto healthy_result = fuzz::run_case(healthy);
  EXPECT_TRUE(healthy_result.ok)
      << (healthy_result.violations.empty() ? ""
                                            : healthy_result.violations.front());
}

/// A schedule of ten one-action episodes (ids 0..9, 10 ms apart) and a fake
/// run that fails iff episodes 3 and 7 are both applied: the shrinker's
/// search, budget and replay timing without a cluster.
std::vector<fuzz::FaultAction> ten_episodes() {
  std::vector<fuzz::FaultAction> schedule;
  for (int e = 0; e < 10; ++e) {
    fuzz::FaultAction action;
    action.at = (e + 1) * 10 * sim::kMillisecond;
    action.kind = fuzz::FaultKind::kLatencySpike;
    action.value = 2.0;
    action.episode = e;
    schedule.push_back(action);
  }
  return schedule;
}

struct FakeRun {
  std::vector<fuzz::FaultAction> original = ten_episodes();
  bool fails_without_faults = false;
  int runs = 0;
  bool times_kept = true;

  fuzz::Result operator()(const fuzz::Case& c) {
    ++runs;
    const auto schedule = fuzz::schedule_for(c);
    bool has3 = false, has7 = false;
    for (const auto& action : schedule) {
      has3 = has3 || action.episode == 3;
      has7 = has7 || action.episode == 7;
      times_kept = times_kept && action.at == original[action.episode].at;
    }
    fuzz::Result result;
    result.ok = !(fails_without_faults || (has3 && has7));
    if (!result.ok) result.violations.push_back("fake");
    result.schedule = schedule;
    return result;
  }
};

fuzz::Case fake_case() {
  fuzz::Case c;
  c.schedule = ten_episodes();
  return c;
}

TEST(Shrinker, FindsExactlyTheTwoEpisodesThatFail) {
  FakeRun fake;
  fuzz::Result out;
  const auto episodes = fuzz::shrink_schedule(
      fake_case(), out, [&](const fuzz::Case& c) { return fake(c); }, 200);
  EXPECT_EQ(episodes, (std::vector<int>{3, 7}));
  EXPECT_FALSE(out.ok);
  ASSERT_EQ(out.schedule.size(), 2u);
  EXPECT_EQ(out.schedule[0].episode, 3);
  EXPECT_EQ(out.schedule[1].episode, 7);
  EXPECT_TRUE(fake.times_kept);
}

TEST(Shrinker, ReturnsNoEpisodesWhenTheFailureNeedsNoFaults) {
  FakeRun fake;
  fake.fails_without_faults = true;
  fuzz::Result out;
  const auto episodes = fuzz::shrink_schedule(
      fake_case(), out, [&](const fuzz::Case& c) { return fake(c); }, 200);
  EXPECT_TRUE(episodes.empty());
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(out.schedule.empty());
  EXPECT_EQ(fake.runs, 2);  // the full schedule, then no faults
}

TEST(Shrinker, StopsAtTheReplayBudget) {
  for (const int budget : {2, 3, 5}) {
    FakeRun fake;
    fuzz::Result out;
    const auto episodes = fuzz::shrink_schedule(
        fake_case(), out, [&](const fuzz::Case& c) { return fake(c); },
        budget);
    EXPECT_EQ(fake.runs, budget);
    EXPECT_FALSE(out.ok);
    // Whatever it stopped at still holds both culprits.
    EXPECT_NE(std::find(episodes.begin(), episodes.end(), 3), episodes.end());
    EXPECT_NE(std::find(episodes.begin(), episodes.end(), 7), episodes.end());
    EXPECT_TRUE(fake.times_kept);
  }
}

TEST(Fuzzer, DefaultChecksMatchProtocolCapabilities) {
  const auto m2 = fuzz::default_checks(core::Protocol::kM2Paxos);
  EXPECT_TRUE(m2.eventual_delivery);
  EXPECT_TRUE(m2.convergence);
  const auto mp = fuzz::default_checks(core::Protocol::kMultiPaxos);
  EXPECT_FALSE(mp.eventual_delivery);
  EXPECT_TRUE(mp.delivery_at_reporter);
  const auto ep = fuzz::default_checks(core::Protocol::kEPaxos);
  EXPECT_FALSE(ep.eventual_delivery);
  EXPECT_FALSE(ep.convergence);
  EXPECT_FALSE(ep.delivery_at_reporter);
}

}  // namespace
}  // namespace m2
