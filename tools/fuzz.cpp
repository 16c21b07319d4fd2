// m2fuzz — seeded fault-schedule fuzzer for all four protocols, on the
// simulator or on the real threaded runtime.
//
// Sweeps a seed range; each seed deterministically expands into a workload
// and a timed fault schedule (crashes, partitions, link failures,
// loss/latency/duplication spikes; on the runtime backends also connection
// resets, wire corruption and slow-peer throttles) applied to a cluster
// while every node is under load. `--backend sim` runs the deterministic
// simulator; `loopback` and `tcp` run a live threaded cluster over the
// in-process loopback transport or real TCP sockets on localhost. A safety
// auditor checks the Generalized Consensus invariants online and after the
// post-heal drain. Failing seeds are shrunk (ddmin over fault episodes)
// and reported with a replayable command line.
//
//   m2fuzz --protocol m2paxos --nodes 5 --seeds 1..200
//   m2fuzz --protocol all --seeds 1..50 --intensity 5 --json
//   m2fuzz --backend loopback,tcp --protocol m2paxos --seeds 1..20
//   m2fuzz --protocol m2paxos --seeds 17..17 --keep 2,5   # replay a shrink
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/fuzzer.hpp"
#include "stats/json.hpp"

using namespace m2;

namespace {

struct Options {
  std::vector<core::Backend> backends = {core::Backend::kSim};
  std::vector<core::Protocol> protocols;  // empty = the backend's default
  int nodes = 0;  // 0 = alternate 4- and 5-node clusters across seeds
  std::optional<std::pair<std::uint64_t, std::uint64_t>> seeds;
  int intensity = 3;
  long horizon_ms = 0;  // 0 = the backend's default
  long drain_ms = 2000;
  int commands = 150;
  int jobs = 0;  // 0 = auto
  bool json = false;
  bool inject_bug = false;
  bool batching = false;
  bool shrink = true;
  bool verbose = false;
  std::optional<std::vector<int>> keep;
};

/// What an unset flag means on each backend. A simulator case is cheap and
/// deterministic; a runtime case spawns a real cluster and costs horizon +
/// drain of wall time, so it gets fewer seeds, a smaller shrink budget and
/// (see run_sweep) fewer concurrent runs.
struct BackendDefaults {
  std::vector<core::Protocol> protocols;
  std::uint64_t seed_hi;
  long horizon_ms;
  int shrink_runs;
};

BackendDefaults defaults_for(core::Backend backend) {
  if (backend == core::Backend::kSim)
    return {{core::kProtocols.begin(), core::kProtocols.end()}, 50, 300, 200};
  return {{core::Protocol::kM2Paxos, core::Protocol::kMultiPaxos}, 20, 400,
          24};
}

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [flags]\n"
      "  --backend sim|loopback|tcp[,...]                 (default sim)\n"
      "  --protocol multipaxos|genpaxos|epaxos|m2paxos|all\n"
      "                    (default: all on sim, m2paxos and multipaxos on\n"
      "                    loopback/tcp)\n"
      "  --nodes N         cluster size; 0 alternates 4/5   (default 0)\n"
      "  --seeds A..B      inclusive seed range (default 1..50 sim, 1..20)\n"
      "  --intensity N     fault episodes per 100ms, 1..10  (default 3)\n"
      "  --horizon-ms MS   fault-injection window (default 300 sim, 400)\n"
      "  --drain-ms MS     post-heal drain                  (default 2000)\n"
      "  --commands N      loopback/tcp: proposals per node (default 150)\n"
      "  --jobs N          concurrent runs; 0 = all cores on sim, a few\n"
      "                    otherwise                        (default 0)\n"
      "  --keep I,J,...    replay only these fault episodes\n"
      "  --batching        enable protocol-level command batching\n"
      "  --inject-bug      enable the deliberate epoch-safety bug\n"
      "  --no-shrink       report failures without shrinking\n"
      "  --json            machine-readable output (one object per run)\n"
      "  --verbose         print every schedule, not just failing ones\n"
      "\n"
      "exit status: 0 all seeds clean, 1 violations found, 2 bad usage\n",
      argv0);
  std::exit(2);
}

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const auto comma = s.find(',', pos);
    const auto piece = s.substr(pos, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - pos);
    if (!piece.empty()) out.push_back(piece);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

bool parse_protocols(const std::string& s, std::vector<core::Protocol>& out) {
  if (s == "all") {
    out = defaults_for(core::Backend::kSim).protocols;
  } else if (const auto p = core::parse_protocol(s)) {
    out = {*p};
  } else {
    return false;
  }
  return true;
}

bool parse_backends(const std::string& s, std::vector<core::Backend>& out) {
  out.clear();
  for (const std::string& name : split(s)) {
    if (name == "sim") out.push_back(core::Backend::kSim);
    else if (name == "loopback") out.push_back(core::Backend::kLoopback);
    else if (name == "tcp") out.push_back(core::Backend::kTcp);
    else return false;
  }
  return !out.empty();
}

bool parse_seed_range(const std::string& s, std::uint64_t& lo,
                      std::uint64_t& hi) {
  const auto dots = s.find("..");
  if (dots == std::string::npos) {
    char* end = nullptr;
    lo = hi = std::strtoull(s.c_str(), &end, 10);
    return end != nullptr && *end == '\0';
  }
  lo = std::strtoull(s.substr(0, dots).c_str(), nullptr, 10);
  hi = std::strtoull(s.substr(dots + 2).c_str(), nullptr, 10);
  return lo <= hi;
}

Options parse(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--backend") {
      if (!parse_backends(need_value(i), opt.backends)) usage(argv[0]);
    } else if (flag == "--protocol") {
      if (!parse_protocols(need_value(i), opt.protocols)) usage(argv[0]);
    } else if (flag == "--nodes") {
      opt.nodes = std::atoi(need_value(i));
    } else if (flag == "--seeds") {
      std::uint64_t lo = 0, hi = 0;
      if (!parse_seed_range(need_value(i), lo, hi)) usage(argv[0]);
      opt.seeds.emplace(lo, hi);
    } else if (flag == "--intensity") {
      opt.intensity = std::atoi(need_value(i));
    } else if (flag == "--horizon-ms") {
      opt.horizon_ms = std::atol(need_value(i));
      if (opt.horizon_ms < 1) usage(argv[0]);
    } else if (flag == "--drain-ms") {
      opt.drain_ms = std::atol(need_value(i));
    } else if (flag == "--commands") {
      opt.commands = std::atoi(need_value(i));
    } else if (flag == "--jobs") {
      opt.jobs = std::atoi(need_value(i));
    } else if (flag == "--keep") {
      opt.keep.emplace();
      for (const std::string& id : split(need_value(i)))
        opt.keep->push_back(std::atoi(id.c_str()));
    } else if (flag == "--batching") {
      opt.batching = true;
    } else if (flag == "--inject-bug") {
      opt.inject_bug = true;
    } else if (flag == "--no-shrink") {
      opt.shrink = false;
    } else if (flag == "--json") {
      opt.json = true;
    } else if (flag == "--verbose") {
      opt.verbose = true;
    } else {
      usage(argv[0]);
    }
  }
  if (opt.nodes < 0 || opt.nodes == 1 || opt.nodes == 2 ||
      opt.intensity < 1 || opt.intensity > 10 || opt.drain_ms < 0 ||
      opt.commands < 1 || opt.jobs < 0)
    usage(argv[0]);
  return opt;
}

std::string episode_list(const std::vector<int>& episodes) {
  std::string out;
  for (const int e : episodes) {
    if (!out.empty()) out += ',';
    out += std::to_string(e);
  }
  return out;
}

/// A command line that replays `c`, restricted to `keep` when given: every
/// field of the case that shapes the run is spelled out, defaults included.
std::string repro_command(const char* argv0, const fuzz::Case& c,
                          const std::optional<std::vector<int>>& keep) {
  std::string cmd = argv0;
  cmd += " --backend " + core::to_string(c.backend);
  cmd += " --protocol " + core::lower_name(c.protocol);
  cmd += " --nodes " + std::to_string(c.n_nodes);
  cmd += " --seeds " + std::to_string(c.seed) + ".." + std::to_string(c.seed);
  cmd += " --intensity " + std::to_string(c.intensity);
  cmd += " --horizon-ms " + std::to_string(c.horizon / core::kMillisecond);
  cmd += " --drain-ms " + std::to_string(c.drain / core::kMillisecond);
  if (c.backend != core::Backend::kSim)
    cmd += " --commands " + std::to_string(c.commands_per_node);
  if (c.batching) cmd += " --batching";
  if (c.inject_bug) cmd += " --inject-bug";
  if (keep) cmd += " --keep " + (keep->empty() ? "''" : episode_list(*keep));
  return cmd;
}

/// One sweep entry plus the slot its outcome lands in. Cases are executed
/// by a worker pool but reported strictly in sweep order (backend, then
/// protocol, then ascending seed), so output does not depend on thread
/// scheduling.
struct SweepCase {
  fuzz::Case fuzz_case;
  fuzz::Result result;
  std::optional<std::vector<int>> shrunk;
};

// NDJSON via the shared stats::Json writer: one compact object per run,
// with the same escaping and number formatting as every BENCH_*.json.
void print_json_run(const SweepCase& sc, const std::string& repro) {
  const fuzz::Case& c = sc.fuzz_case;
  const fuzz::Result& result = sc.result;
  stats::Json doc = stats::Json::object();
  doc.set("protocol", core::to_string(c.protocol));
  doc.set("backend", core::to_string(c.backend));
  doc.set("nodes", c.n_nodes);
  doc.set("seed", c.seed);
  doc.set("ok", result.ok);
  doc.set("proposals", result.proposals);
  doc.set("committed", result.committed);
  doc.set("decisions", result.decisions);
  doc.set("deliveries", result.deliveries);
  doc.set("crashes", result.nodes_crashed);
  if (c.backend != core::Backend::kSim) {
    doc.set("chaos_injected", result.chaos_injected);
    doc.set("tx_dropped", result.tx_dropped);
    doc.set("lossy", result.lossy);
  }
  stats::Json violations = stats::Json::array();
  for (const std::string& v : result.violations) violations.push(v);
  doc.set("violations", std::move(violations));
  if (sc.shrunk) {
    stats::Json episodes = stats::Json::array();
    for (const int e : *sc.shrunk) episodes.push(e);
    doc.set("shrunk_episodes", std::move(episodes));
  }
  if (!repro.empty()) doc.set("repro", repro);
  std::printf("%s\n", doc.dump(0).c_str());
}

void run_sweep(std::vector<SweepCase>& cases, const Options& opt) {
  // Every case builds a private cluster and RNG and the library keeps no
  // mutable globals, so cases are embarrassingly parallel. A runtime case
  // also spawns n_nodes node threads plus transport threads and burns real
  // wall time, so the auto job count is deliberately conservative there.
  const unsigned hw = std::thread::hardware_concurrency();
  const bool sim_only =
      std::all_of(opt.backends.begin(), opt.backends.end(),
                  [](core::Backend b) { return b == core::Backend::kSim; });
  std::size_t jobs = static_cast<std::size_t>(opt.jobs);
  if (jobs == 0)
    jobs = sim_only ? (hw != 0 ? hw : 1)
                    : std::max<std::size_t>(1, (hw != 0 ? hw : 8) / 8);
  jobs = std::min(jobs, cases.size());

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= cases.size()) return;
      SweepCase& sc = cases[i];
      sc.result = fuzz::run_case(sc.fuzz_case);
      if (!sc.result.ok && opt.shrink && !opt.keep)
        sc.shrunk = fuzz::shrink_schedule(
            sc.fuzz_case, sc.result, fuzz::run_case,
            defaults_for(sc.fuzz_case.backend).shrink_runs);
    }
  };

  if (jobs <= 1) {
    worker();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (std::size_t t = 0; t < jobs; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
}

std::vector<SweepCase> make_cases(const Options& opt) {
  std::vector<SweepCase> cases;
  for (const core::Backend backend : opt.backends) {
    const BackendDefaults defaults = defaults_for(backend);
    const auto [seed_lo, seed_hi] =
        opt.seeds.value_or(std::make_pair(std::uint64_t{1}, defaults.seed_hi));
    for (const core::Protocol protocol :
         opt.protocols.empty() ? defaults.protocols : opt.protocols) {
      for (std::uint64_t seed = seed_lo; seed <= seed_hi; ++seed) {
        fuzz::Case c;
        c.protocol = protocol;
        c.backend = backend;
        c.n_nodes = opt.nodes != 0 ? opt.nodes : (seed % 2 == 0 ? 4 : 5);
        c.seed = seed;
        c.intensity = opt.intensity;
        c.horizon = (opt.horizon_ms != 0 ? opt.horizon_ms
                                         : defaults.horizon_ms) *
                    core::kMillisecond;
        c.drain = opt.drain_ms * core::kMillisecond;
        c.commands_per_node = opt.commands;
        c.inject_bug = opt.inject_bug;
        c.batching = opt.batching;
        if (opt.keep)
          c.schedule = fuzz::keep_episodes(fuzz::schedule_for(c), *opt.keep);
        cases.push_back({std::move(c), {}, std::nullopt});
      }
    }
  }
  return cases;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  std::vector<SweepCase> cases = make_cases(opt);
  run_sweep(cases, opt);

  std::uint64_t runs = 0, failures = 0;
  for (const SweepCase& sc : cases) {
    const fuzz::Case& c = sc.fuzz_case;
    const fuzz::Result& result = sc.result;
    const std::string where = core::to_string(c.protocol) + " " +
                              core::to_string(c.backend) +
                              " nodes=" + std::to_string(c.n_nodes) +
                              " seed=" + std::to_string(c.seed);
    ++runs;

    if (opt.verbose && !opt.json) {
      std::printf("# %s: %s (%llu committed", where.c_str(),
                  result.ok ? "ok" : "FAIL",
                  static_cast<unsigned long long>(result.committed));
      if (c.backend != core::Backend::kSim)
        std::printf(", %llu chaos faults",
                    static_cast<unsigned long long>(result.chaos_injected));
      std::printf(")\n");
      std::fputs(fuzz::to_string(result.schedule).c_str(), stdout);
    }

    if (result.ok) {
      if (opt.json && opt.verbose) print_json_run(sc, "");
      continue;
    }
    ++failures;

    const std::string repro =
        repro_command(argv[0], c, sc.shrunk ? sc.shrunk : opt.keep);

    if (opt.json) {
      print_json_run(sc, repro);
    } else {
      std::printf("FAIL %s intensity=%d\n", where.c_str(), c.intensity);
      for (const auto& v : result.violations)
        std::printf("  violation: %s\n", v.c_str());
      if (sc.shrunk)
        std::printf("  shrunk to %zu episode(s): %s\n", sc.shrunk->size(),
                    episode_list(*sc.shrunk).c_str());
      std::fputs(fuzz::to_string(result.schedule).c_str(), stdout);
      std::printf("  repro: %s\n", repro.c_str());
    }
  }

  if (opt.json) {
    stats::Json summary = stats::Json::object();
    summary.set("runs", runs);
    summary.set("failures", failures);
    std::printf("%s\n", summary.dump(0).c_str());
  } else {
    std::printf("%llu run(s), %llu failure(s)\n",
                static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(failures));
  }
  return failures == 0 ? 0 : 1;
}
