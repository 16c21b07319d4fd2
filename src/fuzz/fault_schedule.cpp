#include "fuzz/fault_schedule.hpp"

#include <algorithm>
#include <sstream>

#include "sim/rng.hpp"

namespace m2::fuzz {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kRecover:
      return "recover";
    case FaultKind::kLinkDown:
      return "link-down";
    case FaultKind::kLinkUp:
      return "link-up";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kHeal:
      return "heal";
    case FaultKind::kLossSpike:
      return "loss-spike";
    case FaultKind::kLossClear:
      return "loss-clear";
    case FaultKind::kLatencySpike:
      return "latency-spike";
    case FaultKind::kLatencyClear:
      return "latency-clear";
    case FaultKind::kDupSpike:
      return "dup-spike";
    case FaultKind::kDupClear:
      return "dup-clear";
    case FaultKind::kReset:
      return "reset";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kThrottleSpike:
      return "throttle-spike";
    case FaultKind::kThrottleClear:
      return "throttle-clear";
  }
  return "?";
}

std::string FaultAction::to_string() const {
  std::ostringstream os;
  os << "[e" << episode << "] " << at / core::kMicrosecond << "us "
     << fuzz::to_string(kind);
  switch (kind) {
    case FaultKind::kCrash:
    case FaultKind::kRecover:
      os << " n" << a;
      break;
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
    case FaultKind::kReset:
    case FaultKind::kCorrupt:
    case FaultKind::kThrottleClear:
      os << " n" << a << "->n" << b;
      break;
    case FaultKind::kThrottleSpike:
      os << " n" << a << "->n" << b << " +" << value << "ms";
      break;
    case FaultKind::kPartition: {
      os << " {";
      for (std::size_t i = 0; i < group.size(); ++i)
        os << (i != 0 ? "," : "") << "n" << group[i];
      os << "}";
      break;
    }
    case FaultKind::kLossSpike:
    case FaultKind::kDupSpike:
      os << " p=" << value;
      break;
    case FaultKind::kLatencySpike:
      os << " x" << value;
      break;
    default:
      break;
  }
  return os.str();
}

std::string to_string(const std::vector<FaultAction>& schedule) {
  std::string out;
  for (const auto& action : schedule) {
    out += action.to_string();
    out += '\n';
  }
  return out;
}

namespace {

/// Episode kinds the generator picks between, weighted towards the ones
/// that historically shake out protocol bugs (crashes and partitions).
enum class Episode {
  kCrash,
  kLink,
  kPartition,
  kLoss,
  kLatency,
  kDup,
  // Drawn only with ScheduleConfig::runtime_faults.
  kReset,
  kCorrupt,
  kThrottle
};

Episode pick_episode(sim::Rng& rng, bool runtime_faults) {
  if (runtime_faults) {
    // Same weighting philosophy, with ~1/4 of the mass moved onto the
    // wire-level faults only the real transport can express.
    const std::uint64_t roll = rng.uniform(100);
    if (roll < 28) return Episode::kCrash;
    if (roll < 43) return Episode::kPartition;
    if (roll < 54) return Episode::kLink;
    if (roll < 64) return Episode::kLoss;
    if (roll < 71) return Episode::kLatency;
    if (roll < 76) return Episode::kDup;
    if (roll < 86) return Episode::kReset;
    if (roll < 94) return Episode::kCorrupt;
    return Episode::kThrottle;
  }
  const std::uint64_t roll = rng.uniform(100);
  if (roll < 35) return Episode::kCrash;
  if (roll < 55) return Episode::kPartition;
  if (roll < 70) return Episode::kLink;
  if (roll < 85) return Episode::kLoss;
  if (roll < 95) return Episode::kLatency;
  return Episode::kDup;
}

// gcc's -Wmissing-field-initializers fires on partial aggregate init even
// though the omitted members have default initializers; build actions
// through this maker instead.
FaultAction act(core::Time at, FaultKind kind, NodeId a = kNoNode,
                NodeId b = kNoNode) {
  FaultAction f;
  f.at = at;
  f.kind = kind;
  f.a = a;
  f.b = b;
  return f;
}

}  // namespace

std::vector<FaultAction> make_schedule(std::uint64_t seed,
                                       const ScheduleConfig& cfg) {
  sim::Rng rng(seed ^ 0x6d32706178'6675ULL);  // decorrelate from cluster seed
  const int n = cfg.n_nodes;
  const int max_crashed = (n - 1) / 2;
  const int intensity = std::clamp(cfg.intensity, 1, 10);
  const auto episodes = static_cast<int>(
      static_cast<std::uint64_t>(intensity) * cfg.horizon /
      (100 * core::kMillisecond));

  std::vector<FaultAction> schedule;
  struct CrashInterval {
    core::Time start, end;
    NodeId victim;
  };
  std::vector<CrashInterval> crash_intervals;

  auto rand_time = [&](core::Time lo, core::Time hi) {
    return lo + static_cast<core::Time>(
                    rng.uniform(static_cast<std::uint64_t>(hi - lo) + 1));
  };

  for (int e = 0; e < episodes; ++e) {
    // Episode start anywhere in the first 80% of the horizon; the undo
    // lands between start and the horizon, biased short so faults overlap.
    const core::Time start = rand_time(0, cfg.horizon * 4 / 5);
    const core::Time max_dwell = cfg.horizon - start;
    const core::Time dwell = std::max<core::Time>(
        1 * core::kMillisecond,
        std::min<core::Time>(
            max_dwell,
            static_cast<core::Time>(rng.exponential(
                static_cast<double>(cfg.horizon) / (2.0 * intensity)))));
    const core::Time end = std::min(cfg.horizon, start + dwell);

    const std::size_t first_action = schedule.size();
    switch (pick_episode(rng, cfg.runtime_faults)) {
      case Episode::kCrash: {
        // Keep a live majority: count existing crash episodes overlapping
        // this window (conservative — any instant in the window then has
        // at most `overlap + 1 <= max_crashed` nodes down) and never crash
        // a node that is already down in the window.
        const auto victim = static_cast<NodeId>(rng.uniform(n));
        int overlap = 0;
        bool victim_busy = false;
        for (const auto& iv : crash_intervals) {
          if (iv.end < start || iv.start > end) continue;
          ++overlap;
          if (iv.victim == victim) victim_busy = true;
        }
        if (victim_busy || overlap >= max_crashed) break;
        crash_intervals.push_back({start, end, victim});
        schedule.push_back(act(start, FaultKind::kCrash, victim));
        schedule.push_back(act(end, FaultKind::kRecover, victim));
        break;
      }
      case Episode::kLink: {
        const auto from = static_cast<NodeId>(rng.uniform(n));
        auto to = static_cast<NodeId>(rng.uniform(n - 1));
        if (to >= from) ++to;
        schedule.push_back(act(start, FaultKind::kLinkDown, from, to));
        schedule.push_back(act(end, FaultKind::kLinkUp, from, to));
        break;
      }
      case Episode::kPartition: {
        // Minority side: 1 .. floor((n-1)/2) random distinct nodes.
        const int side = 1 + static_cast<int>(rng.uniform(std::max(1, max_crashed)));
        std::vector<NodeId> all(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) all[static_cast<std::size_t>(i)] = static_cast<NodeId>(i);
        for (int i = 0; i < side; ++i)
          std::swap(all[static_cast<std::size_t>(i)],
                    all[static_cast<std::size_t>(
                        i + static_cast<int>(rng.uniform(n - i)))]);
        all.resize(static_cast<std::size_t>(side));
        std::sort(all.begin(), all.end());
        FaultAction part = act(start, FaultKind::kPartition);
        part.group = std::move(all);
        schedule.push_back(std::move(part));
        // heal() removes *all* link failures, including episode-scoped
        // link-downs; that coarseness is fine for fuzzing (it only makes
        // runs friendlier, never unsafe).
        schedule.push_back(act(end, FaultKind::kHeal));
        break;
      }
      case Episode::kLoss: {
        FaultAction spike = act(start, FaultKind::kLossSpike);
        spike.value = 0.05 + 0.35 * rng.uniform01();
        schedule.push_back(std::move(spike));
        schedule.push_back(act(end, FaultKind::kLossClear));
        break;
      }
      case Episode::kLatency: {
        FaultAction spike = act(start, FaultKind::kLatencySpike);
        spike.value = 2.0 + 18.0 * rng.uniform01();
        schedule.push_back(std::move(spike));
        schedule.push_back(act(end, FaultKind::kLatencyClear));
        break;
      }
      case Episode::kDup: {
        FaultAction spike = act(start, FaultKind::kDupSpike);
        spike.value = 0.1 + 0.4 * rng.uniform01();
        schedule.push_back(std::move(spike));
        schedule.push_back(act(end, FaultKind::kDupClear));
        break;
      }
      case Episode::kReset: {
        // One-shot: nothing to undo — the writer reconnects on its own
        // (that recovery path is exactly what the episode tests).
        const auto from = static_cast<NodeId>(rng.uniform(n));
        auto to = static_cast<NodeId>(rng.uniform(n - 1));
        if (to >= from) ++to;
        schedule.push_back(act(start, FaultKind::kReset, from, to));
        break;
      }
      case Episode::kCorrupt: {
        const auto from = static_cast<NodeId>(rng.uniform(n));
        auto to = static_cast<NodeId>(rng.uniform(n - 1));
        if (to >= from) ++to;
        schedule.push_back(act(start, FaultKind::kCorrupt, from, to));
        break;
      }
      case Episode::kThrottle: {
        const auto from = static_cast<NodeId>(rng.uniform(n));
        auto to = static_cast<NodeId>(rng.uniform(n - 1));
        if (to >= from) ++to;
        FaultAction spike = act(start, FaultKind::kThrottleSpike, from, to);
        spike.value = 2.0 + 8.0 * rng.uniform01();
        schedule.push_back(std::move(spike));
        schedule.push_back(act(end, FaultKind::kThrottleClear, from, to));
        break;
      }
    }
    for (std::size_t i = first_action; i < schedule.size(); ++i)
      schedule[i].episode = e;
  }

  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const FaultAction& x, const FaultAction& y) {
                     return x.at < y.at;
                   });

  // Renumber episodes densely in order of first appearance (rejected crash
  // episodes leave gaps otherwise), so --keep lists stay short and stable.
  std::vector<int> remap;
  for (auto& action : schedule) {
    int found = -1;
    for (std::size_t i = 0; i < remap.size(); ++i)
      if (remap[i] == action.episode) found = static_cast<int>(i);
    if (found == -1) {
      found = static_cast<int>(remap.size());
      remap.push_back(action.episode);
    }
    action.episode = found;
  }
  return schedule;
}

}  // namespace m2::fuzz
