#include "figures.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <utility>

#include "harness/table.hpp"

namespace m2::bench {

bool quick_mode() {
  const char* env = std::getenv("M2_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

namespace {

using harness::ExperimentResult;
using harness::Table;
using Runs = std::vector<ExperimentResult>;

// Series indices of the protocol sweeps (core::kProtocols order).
constexpr std::size_t kMP = 0, kEP = 2, kM2 = 3;

// --- Scale -------------------------------------------------------------

/// Node counts for the scalability sweeps (paper: 3..49).
std::vector<int> node_counts(bool quick) {
  if (quick) return {3, 7, 11};
  return {3, 5, 7, 11, 25, 49};
}

/// Offered-load levels for saturation searches.
std::vector<int> saturation_levels(int n, bool quick) {
  if (quick) return {32};
  if (n >= 25) return {16, 96};
  return {16, 64, 160};
}

/// The paper's testbed defaults at this scale's windows (simulated time),
/// with `load` clients per node and as many commands in flight; 0 keeps
/// the defaults (a saturation search sets both per level). Large
/// deployments use shorter windows: the event volume per simulated second
/// grows with N, while the per-window sample count stays in the tens of
/// thousands either way.
Cell at(core::Protocol p, int n, bool quick,
        std::variant<wl::SyntheticConfig, wl::TpccConfig> workload,
        int load = 0, std::vector<int> levels = {}) {
  Cell c{harness::default_config(p, n), std::move(workload),
         std::move(levels)};
  c.cfg.warmup = (quick ? 10 : n >= 25 ? 10 : 30) * sim::kMillisecond;
  c.cfg.measure = (quick ? 20 : n >= 25 ? 20 : 80) * sim::kMillisecond;
  if (load > 0) {
    c.cfg.load.clients_per_node = load;
    c.cfg.load.max_inflight_per_node = load;
  }
  return c;
}

/// The paper's synthetic workload: 16-byte payloads, seed 1.
wl::SyntheticConfig synthetic(int n, double locality = 1.0,
                              double complex_fraction = 0.0,
                              std::uint64_t objects_per_node = 1000) {
  return {n, objects_per_node, locality, complex_fraction, 16, 1};
}

// --- Formatting --------------------------------------------------------

[[gnu::format(printf, 1, 2)]] std::string strf(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

double tput(const ExperimentResult& r) { return r.committed_per_sec; }
double median(const ExperimentResult& r) {
  return static_cast<double>(r.commit_latency.median());
}
double ratio(double num, double den) { return den > 0 ? num / den : 0; }
double per_cmd(const ExperimentResult& r, std::uint64_t v) {
  return r.committed > 0 ? static_cast<double>(v) / r.committed : 0;
}
std::uint64_t count(const ExperimentResult& r, stats::Counter c) {
  return r.metrics.counter(c);
}
/// A window counter per committed command, 3 decimals.
std::string counter_per_cmd(const ExperimentResult& r, stats::Counter c) {
  return Table::num(per_cmd(r, count(r, c)), 3);
}

std::string us(double ns) { return Table::num(ns / 1e3, 0) + "us"; }
std::string times(double num, double den) {
  return Table::num(ratio(num, den), 2) + "x";
}
/// The "who wins / by how much" line the paper's text claims, so
/// EXPERIMENTS.md can quote paper-vs-measured directly.
std::string speedup(const char* what, double m2paxos, double competitor,
                    const char* versus) {
  return strf("%s: M2Paxos/%s = %.2fx\n", what, versus,
              ratio(m2paxos, competitor));
}

Row kcps_row(const Runs& runs) {
  Row out;
  for (const auto& r : runs) out.push_back(Table::kcps(tput(r)));
  return out;
}

Row labels(const std::vector<int>& xs, const std::string& prefix = "",
           const std::string& suffix = "") {
  Row out;
  for (const int x : xs) out.push_back(prefix + std::to_string(x) + suffix);
  return out;
}

Row protocol_names() {
  Row out;
  for (const auto p : core::kProtocols) out.push_back(core::to_string(p));
  return out;
}

Row concat(Row a, const Row& b, const Row& c = {}) {
  a.insert(a.end(), b.begin(), b.end());
  a.insert(a.end(), c.begin(), c.end());
  return a;
}

// --- The figures -------------------------------------------------------

Figure fig1(bool quick) {
  const auto ns = node_counts(quick);
  return {
      .header = concat({"nodes"}, protocol_names(), {"M2/EPaxos"}),
      .sweep = {{"Fig. 1 — max throughput vs nodes (100% locality)",
                 labels(ns), protocol_names()}},
      .cell = [=](std::size_t, std::size_t r, std::size_t s) {
        return at(core::kProtocols[s], ns[r], quick, synthetic(ns[r]), 0,
                  saturation_levels(ns[r], quick));
      },
      .row = [](const Runs& c, std::size_t) {
        return concat(kcps_row(c), {times(tput(c[kM2]), tput(c[kEP]))});
      },
      .summary = [](const Grid& g) {
        const Runs& c = g[0].runs.back();
        return speedup("at max node count", tput(c[kM2]), tput(c[kEP]),
                       "EPaxos");
      },
      .claim =
          "paper: up to 3-7x over EPaxos, Multi-Paxos runner-up <=11 nodes\n",
  };
}

Figure fig2(bool quick) {
  const auto ns = node_counts(quick);
  return {
      .header = concat({"nodes"}, protocol_names(), {"vs MP", "vs EP"}),
      .sweep = {{"Fig. 2 — median latency vs nodes (no batching)",
                 labels(ns), protocol_names()}},
      .cell = [=](std::size_t, std::size_t r, std::size_t s) {
        Cell c = at(core::kProtocols[s], ns[r], quick, synthetic(ns[r]));
        c.cfg.network.batching = false;  // the figure's distinguishing setting
        // Light load: latency is measured well below every protocol's
        // saturation point, including Multi-Paxos at 49 nodes.
        c.cfg.load.clients_per_node = 4;
        c.cfg.load.max_inflight_per_node = 8;
        c.cfg.load.think_time = 5 * sim::kMillisecond;
        c.cfg.measure =
            std::max<sim::Time>(c.cfg.measure, 100 * sim::kMillisecond);
        return c;
      },
      .row = [](const Runs& c, std::size_t) {
        const auto below = [&](std::size_t other) {
          const double m2 = median(c[kM2]), them = median(c[other]);
          if (them <= 0) return std::string("-");
          return Table::num(100.0 * (1.0 - m2 / them), 0) + "%";
        };
        Row out;
        for (const auto& x : c) out.push_back(us(median(x)));
        return concat(out, {below(kMP), below(kEP)});
      },
      .claim = "paper: M2Paxos ~23% below Multi-Paxos at small N, up to 41%\n"
               "below EPaxos as N grows\n",
  };
}

Figure fig3(bool quick) {
  const auto ns = node_counts(quick);
  return {
      .header = concat({"nodes"}, protocol_names(), {"M2 per-node"}),
      .sweep = {{"Fig. 3 — throughput vs nodes (64 clients/node, 5ms think "
                 "time)",
                 labels(ns), protocol_names()}},
      .cell = [=](std::size_t, std::size_t r, std::size_t s) {
        Cell c = at(core::kProtocols[s], ns[r], quick, synthetic(ns[r]), 64);
        c.cfg.load.think_time = 5 * sim::kMillisecond;  // the figure's setting
        // Longer window: at 5 ms think time each client contributes only
        // ~200 cmds/s, so short windows under-sample.
        c.cfg.measure *= 2;
        return c;
      },
      .row = [=](const Runs& c, std::size_t r) {
        return concat(kcps_row(c), {Table::kcps(tput(c[kM2]) / ns[r])});
      },
      .before = [=](const Grid& g, std::size_t) {
        const double first = tput(g[0].runs.front()[kM2]);
        const double last = tput(g[0].runs.back()[kM2]);
        if (first <= 0) return std::string();
        return strf(
            "M2Paxos scaling efficiency %d->%d nodes: %.0f%% of linear\n",
            ns.front(), ns.back(),
            100.0 * (last / first) /
                (static_cast<double>(ns.back()) / ns.front()));
      },
      .claim =
          "paper: M2Paxos exhibits near-linear scalability; others flatten\n",
  };
}

// Fig. 4: the paper's four EC2 machine classes.
Figure fig4(bool quick) {
  const std::vector<int> cores = {4, 8, 16, 32};
  return {
      .header = concat({"cores"}, protocol_names()),
      .sweep = {{"Fig. 4 — max throughput at 11 nodes vs cores/node",
                 labels(cores), protocol_names()}},
      .cell = [=](std::size_t, std::size_t r, std::size_t s) {
        Cell c = at(core::kProtocols[s], 11, quick, synthetic(11), 0,
                    saturation_levels(11, quick));
        c.cfg.cluster.cores_per_node = cores[r];
        return c;
      },
      .summary = [](const Grid& g) {
        const Runs &c4 = g[0].runs[0], &c16 = g[0].runs[2];
        return strf("core-scaling 4->16: M2Paxos %.2fx, EPaxos %.2fx\n",
                    ratio(tput(c16[kM2]), tput(c4[kM2])),
                    ratio(tput(c16[kEP]), tput(c4[kEP])));
      },
      .claim = "paper: M2Paxos scales to 16 cores; EPaxos and the "
               "single-leader\nprotocols do not benefit from additional "
               "cores\n",
  };
}

// Fig. 5: M2Paxos and EPaxos at both ends of the locality spectrum;
// Multi-Paxos and Generalized Paxos are locality-insensitive.
Figure fig5(bool quick) {
  const Row curves = {"MultiPaxos",  "GenPaxos",     "EPaxos 100%",
                      "EPaxos 0%",   "M2Paxos 100%", "M2Paxos 0%"};
  const std::vector<std::pair<core::Protocol, double>> setups = {
      {core::Protocol::kMultiPaxos, 1.0}, {core::Protocol::kGenPaxos, 1.0},
      {core::Protocol::kEPaxos, 1.0},     {core::Protocol::kEPaxos, 0.0},
      {core::Protocol::kM2Paxos, 1.0},    {core::Protocol::kM2Paxos, 0.0}};
  const std::vector<int> ns =
      quick ? std::vector<int>{5, 11} : std::vector<int>{5, 11, 49};
  const std::vector<int> loads =
      quick ? std::vector<int>{8, 64} : std::vector<int>{4, 16, 64};
  Grid sweep;
  for (const int n : ns)
    sweep.push_back({"Fig. 5 — latency vs throughput, " + std::to_string(n) +
                         " nodes",
                     curves, labels(loads, "load=")});
  return {
      .header = concat({"series"}, labels(loads, "load=")),
      .sweep = sweep,
      .cell = [=](std::size_t p, std::size_t r, std::size_t s) {
        return at(setups[r].first, ns[p], quick,
                  synthetic(ns[p], setups[r].second), loads[s]);
      },
      .row = [](const Runs& c, std::size_t) {
        Row out;
        for (const auto& x : c)
          out.push_back(Table::kcps(tput(x)) + "@" + us(median(x)));
        return out;
      },
      .claim = "paper: M2Paxos 0% tracks its 100% curve (cheap forwarding);\n"
               "EPaxos saturates up to 10% earlier at 0% locality\n",
  };
}

Figure fig6(bool quick) {
  const std::vector<int> ns = {3, 11};
  const std::vector<int> pcts = {0, 10, 25, 50, 75, 100};
  Grid sweep;
  for (const int n : ns)
    sweep.push_back({"Fig. 6 — throughput vs % remote commands, " +
                         std::to_string(n) + " nodes",
                     protocol_names(), labels(pcts, "", "%")});
  return {
      .header = concat({"protocol"}, labels(pcts, "", "%")),
      .sweep = sweep,
      .cell = [=](std::size_t p, std::size_t r, std::size_t s) {
        // Saturation throughput: at a fixed in-flight cap the extra
        // forwarding hop would show as a latency-driven artifact; the
        // figure measures capacity.
        return at(core::kProtocols[r], ns[p], quick,
                  synthetic(ns[p], 1.0 - pcts[s] / 100.0), 0,
                  quick ? std::vector<int>{64} : std::vector<int>{64, 192});
      },
      .after = [=](const Grid& g, std::size_t p) {
        const Runs& m2 = g[p].runs[kM2];
        double sum = 0;
        for (const auto& x : m2) sum += tput(x);
        const double first = tput(m2.front());
        const double avg = sum / static_cast<double>(m2.size());
        return strf(
            "M2Paxos average degradation across sweep (%d nodes): %.1f%%\n",
            ns[p], first > 0 ? 100.0 * (1.0 - avg / first) : 0.0);
      },
      .claim = "paper: M2Paxos loses ~4% on average; competitors are flat\n",
  };
}

// Fig. 7: a complex command accesses one object of the proposer's local
// set plus one uniformly random object; M2Paxos runs at three local-set
// sizes.
Figure fig7(bool quick) {
  const int n = quick ? 11 : 49;
  const std::vector<int> pcts = {0, 10, 25, 50, 100};
  const std::vector<std::pair<core::Protocol, std::uint64_t>> lines = {
      {core::Protocol::kM2Paxos, 10},    {core::Protocol::kM2Paxos, 100},
      {core::Protocol::kM2Paxos, 1000},  {core::Protocol::kMultiPaxos, 1000},
      {core::Protocol::kGenPaxos, 1000}, {core::Protocol::kEPaxos, 1000}};
  return {
      .header = concat({"series"}, labels(pcts, "", "%")),
      .sweep = {{"Fig. 7 — throughput vs % complex commands, " +
                     std::to_string(n) + " nodes",
                 {"M2Paxos(10)", "M2Paxos(100)", "M2Paxos(1000)",
                  "MultiPaxos", "GenPaxos", "EPaxos"},
                 labels(pcts, "", "%")}},
      .cell = [=](std::size_t, std::size_t r, std::size_t s) {
        return at(lines[r].first, n, quick,
                  synthetic(n, 1.0, pcts[s] / 100.0, lines[r].second), 32);
      },
      .claim = "paper: M2Paxos drop rate depends on local-set size "
               "(contention\nrate); MP/GP flat; EPaxos dips slightly near "
               "100%\n",
  };
}

// Fig. 8: TPC-C with 10*N warehouses.
Figure fig8(bool quick) {
  const std::vector<int> ns = {3, 5, 7, 9, 11};
  const std::vector<double> remote = {0.0, 0.15};
  return {
      .header = concat({"nodes"}, protocol_names()),
      .sweep = {{"Fig. 8(a) — TPC-C, 0% commands on a remote warehouse",
                 labels(ns), protocol_names()},
                {"Fig. 8(b) — TPC-C, 15% commands on a remote warehouse",
                 labels(ns), protocol_names()}},
      .cell = [=](std::size_t p, std::size_t r, std::size_t s) {
        return at(core::kProtocols[s], ns[r], quick,
                  wl::TpccConfig{ns[r], 10, remote[p], 1}, 64);
      },
      .summary = [](const Grid& g) {
        const Runs &a = g[0].runs.back(), &b = g[1].runs.back();  // N=11
        const char* what = "TPC-C 15% remote, 11 nodes";
        std::string out =
            speedup(what, tput(b[kM2]), tput(b[kMP]), "MultiPaxos") +
            speedup(what, tput(b[kM2]), tput(b[kEP]), "EPaxos");
        if (tput(a[kM2]) > 0)
          out += strf("remote-warehouse cost for M2Paxos at 11 nodes: %.0f%%\n",
                      100.0 * (1.0 - tput(b[kM2]) / tput(a[kM2])));
        return out;
      },
      .claim = "paper: ~2.4x over Multi-Paxos, ~5.5x over EPaxos, ~40% cost\n"
               "for the 15% remote setting\n",
  };
}

// Ablation A1: the mechanism behind Figures 5 and 6. Counts and commits
// both cover the measurement window.
Figure a1(bool quick) {
  const std::vector<int> pcts = {100, 90, 75, 50, 25, 0};
  return {
      .header = {"locality", "fast", "forwarded", "acquired", "retries/cmd",
                 "throughput"},
      .sweep = {{"Ablation A1 — M2Paxos path mix vs locality (11 nodes)",
                 labels(pcts, "", "%"), {"run"}}},
      .cell = [=](std::size_t, std::size_t r, std::size_t) {
        return at(core::Protocol::kM2Paxos, 11, quick,
                  synthetic(11, pcts[r] / 100.0), 48);
      },
      .row = [](const Runs& c, std::size_t) {
        const ExperimentResult& x = c[0];
        const std::uint64_t fast = count(x, stats::Counter::kFastPathRounds);
        const std::uint64_t fwd = count(x, stats::Counter::kForwarded);
        const std::uint64_t acq = count(x, stats::Counter::kAcquisitions);
        const double total = static_cast<double>(fast + fwd + acq);
        const auto share = [&](std::uint64_t v) {
          return Table::num(total > 0 ? 100.0 * v / total : 0, 1) + "%";
        };
        return Row{share(fast), share(fwd), share(acq),
                   counter_per_cmd(x, stats::Counter::kRetries),
                   Table::kcps(tput(x))};
      },
      .claim = "claim: remote commands become forwards (3 delays), not\n"
               "acquisitions — ownership stays stable under the locality "
               "sweep\n",
  };
}

// Ablation A2 (§IV-C): a cold start preassigns no ownership and runs no
// warm-up, so the acquisitions that build the ownership map fall inside
// the measurement window.
Figure a2(bool quick) {
  struct Scenario {
    std::uint64_t objects_per_node;
    bool preassign;
    double complex_fraction;
  };
  const std::vector<Scenario> scenarios = {{1000, true, 0.0},
                                           {1000, false, 0.0},
                                           {1000, true, 0.25},
                                           {10, true, 0.25},
                                           {10, false, 0.25}};
  return {
      .header = {"scenario", "throughput", "acq/cmd", "retries/cmd", "nacks",
                 "noops", "p99 latency"},
      .sweep = {{"Ablation A2 — acquisition cost under contention (7 nodes)",
                 {"steady, partitioned", "cold start (no warm-up), partitioned",
                  "steady, 25% complex", "steady, 25% complex, hot set",
                  "cold start (no warm-up), hot set"},
                 {"run"}}},
      .cell = [=](std::size_t, std::size_t r, std::size_t) {
        const Scenario& s = scenarios[r];
        Cell c = at(core::Protocol::kM2Paxos, 7, quick,
                    synthetic(7, 1.0, s.complex_fraction, s.objects_per_node),
                    32);
        c.cfg.preassign_ownership = s.preassign;
        if (!s.preassign) c.cfg.warmup = 0;
        return c;
      },
      .row = [](const Runs& c, std::size_t) {
        const ExperimentResult& x = c[0];
        return Row{Table::kcps(tput(x)),
                   counter_per_cmd(x, stats::Counter::kAcquisitions),
                   counter_per_cmd(x, stats::Counter::kRetries),
                   std::to_string(count(x, stats::Counter::kAcceptNacks) +
                                  count(x, stats::Counter::kPrepareNacks)),
                   std::to_string(count(x, stats::Counter::kNoopsFilled)),
                   us(static_cast<double>(x.commit_latency.quantile(0.99)))};
      },
      .claim = "claim: acquisitions amortize after cold start; contention on "
               "a\nhot set multiplies retries — the paper's unbounded-delay "
               "regime\n",
  };
}

// Ablation A3 (§VI-A: M2Paxos exchanges no dependency information): the
// two message kinds carrying the most bytes.
Figure a3(bool quick) {
  const std::vector<double> complex_fraction = {0.0, 0.5};
  return {
      .header = {"protocol", "bytes/cmd", "msgs/cmd", "top message kinds"},
      .sweep = {{"Ablation A3 — bytes per command (partitioned, "
                 "single-object)",
                 protocol_names(), {"run"}},
                {"Ablation A3 — bytes per command (50% complex commands)",
                 protocol_names(), {"run"}}},
      .cell = [=](std::size_t p, std::size_t r, std::size_t) {
        return at(core::kProtocols[r], 11, quick,
                  synthetic(11, 1.0, complex_fraction[p]), 48);
      },
      .row = [](const Runs& c, std::size_t) {
        const ExperimentResult& x = c[0];
        std::vector<std::pair<std::uint64_t, std::string>> kinds;
        for (const auto& [name, bytes] : x.bytes_by_kind)
          kinds.emplace_back(bytes, name);
        std::sort(kinds.rbegin(), kinds.rend());
        std::string top;
        for (std::size_t i = 0; i < kinds.size() && i < 2; ++i) {
          if (i > 0) top += ", ";
          top += kinds[i].second + "=" +
                 Table::num(per_cmd(x, kinds[i].first), 0) + "B";
        }
        return Row{Table::num(x.bytes_per_command, 0),
                   Table::num(per_cmd(x, x.traffic.messages_sent), 1), top};
      },
      .claim = "claim: M2Paxos bytes/cmd stay flat with conflicts; EPaxos "
               "and\nGenPaxos messages grow with dependency/c-struct "
               "metadata\n",
  };
}

// Ablation A4: command batching (multi-command slot values, pipelined
// accept rounds) exists only in the leader-ful M2Paxos and Multi-Paxos; the
// GenPaxos and EPaxos cmd columns are a control.
Figure a4(bool quick) {
  const Row modes = {"none", "net", "cmd", "net+cmd"};
  return {
      .header = concat({"protocol"}, modes,
                       {"net gain", "cmd gain", "combined"}),
      .sweep = {{"Ablation A4 — net envelope batching x protocol command "
                 "batching (11 nodes, 100% locality)",
                 protocol_names(), modes}},
      .cell = [=](std::size_t, std::size_t r, std::size_t s) {
        // Saturating load: batching trades per-command latency for
        // throughput, so an inflight-bound run would only show the latency
        // side. 192 outstanding per node keeps every cell pipeline-bound.
        Cell c = at(core::kProtocols[r], 11, quick, synthetic(11), 192);
        c.cfg.network.batching = s == 1 || s == 3;
        c.cfg.cluster.batching.enabled = s == 2 || s == 3;
        // Batched cells must admit at least as many commands in flight as
        // the unbatched ones (depth x max_commands >= max_inflight), or the
        // cmd column measures a concurrency clamp instead of batching.
        c.cfg.cluster.batching.batch_max_commands = 32;
        c.cfg.cluster.batching.pipeline_depth = 8;
        c.cfg.cluster.batching.batch_window = 100 * sim::kMicrosecond;
        return c;
      },
      .row = [](const Runs& c, std::size_t) {
        const double none = tput(c[0]);
        return concat(kcps_row(c), {times(tput(c[1]), none),
                                    times(tput(c[2]), none),
                                    times(tput(c[3]), none)});
      },
      .claim = "claim: command batching amortizes whole accept rounds and "
               "beats\nenvelope batching for the leader-ful protocols; the "
               "two do not\nstack at saturation -- each adds its own "
               "hold-back window, so\nnet+cmd pays both latency costs for "
               "one amortization\n",
  };
}

// Ablation A5: an extension; the paper draws objects uniformly.
Figure a5(bool quick) {
  const std::vector<double> thetas = {0.0, 0.5, 0.8, 0.99};
  Row names;
  for (const double t : thetas) names.push_back("theta=" + Table::num(t, 2));
  return {
      .header = concat({"protocol"}, names),
      .sweep = {{"Ablation A5 — Zipfian skew (11 nodes, 10% complex "
                 "commands)",
                 protocol_names(), names}},
      .cell = [=](std::size_t, std::size_t r, std::size_t s) {
        wl::SyntheticConfig w = synthetic(11, 1.0, 0.10);
        w.zipf_theta = thetas[s];
        return at(core::kProtocols[r], 11, quick, w, 48);
      },
      .claim = "claim: same-owner conflicts stay on the fast path, so "
               "M2Paxos\ntolerates skew until hot objects attract cross-node "
               "traffic\n",
  };
}

constexpr std::pair<const char*, Figure (*)(bool)> kFigures[] = {
    {"fig1", fig1}, {"fig2", fig2}, {"fig3", fig3}, {"fig4", fig4},
    {"fig5", fig5}, {"fig6", fig6}, {"fig7", fig7}, {"fig8", fig8},
    {"a1", a1},     {"a2", a2},     {"a3", a3},     {"a4", a4},
    {"a5", a5}};

std::unique_ptr<wl::Workload> make_workload(const wl::SyntheticConfig& w) {
  return std::make_unique<wl::SyntheticWorkload>(w);
}
std::unique_ptr<wl::Workload> make_workload(const wl::TpccConfig& w) {
  return std::make_unique<wl::TpccWorkload>(w);
}

ExperimentResult measure(const Cell& c) {
  const auto make = [&c] {
    return std::visit([](const auto& w) { return make_workload(w); },
                      c.workload);
  };
  if (c.levels.empty()) return harness::run_experiment(c.cfg, *make());
  auto levels =
      harness::find_max_throughput(c.cfg, make, c.levels).all_levels;
  // The best level: the first with the highest throughput.
  return std::move(*std::max_element(
      levels.begin(), levels.end(),
      [](const auto& a, const auto& b) { return tput(a) < tput(b); }));
}

}  // namespace

std::vector<std::string> figure_names() {
  std::vector<std::string> out;
  for (const auto& [name, make] : kFigures) out.push_back(name);
  return out;
}

std::optional<Figure> find_figure(const std::string& name, bool quick) {
  for (const auto& [n, make] : kFigures)
    if (n == name) return make(quick);
  return std::nullopt;
}

Grid run_figure(const Figure& f) {
  Grid grid = f.sweep;
  for (std::size_t p = 0; p < grid.size(); ++p) {
    Panel& panel = grid[p];
    panel.runs.assign(panel.rows.size(), {});
    for (std::size_t r = 0; r < panel.rows.size(); ++r)
      for (std::size_t s = 0; s < panel.series.size(); ++s)
        panel.runs[r].push_back(measure(f.cell(p, r, s)));
  }
  return grid;
}

void print_figure(const Figure& f, const Grid& grid, std::ostream& os) {
  for (std::size_t p = 0; p < grid.size(); ++p) {
    const Panel& panel = grid[p];
    if (f.before) os << f.before(grid, p);
    Table table(panel.title);
    table.set_header(f.header);
    for (std::size_t r = 0; r < panel.rows.size(); ++r) {
      const Runs& runs = panel.runs[r];
      table.add_row(
          concat({panel.rows[r]}, f.row ? f.row(runs, r) : kcps_row(runs)));
    }
    table.print(os);
    if (f.after) os << f.after(grid, p);
  }
  if (f.summary) os << f.summary(grid);
  os << f.claim;
}

}  // namespace m2::bench
