// Simulator workload "sim-fig1": the paper's Fig. 1 point at N = 5 (100 %
// locality, one object per command, batching on, 64 clients per node),
// run through harness::Cluster for M²Paxos, Multi-Paxos, EPaxos and
// Generalized Paxos in turn, each for a fixed virtual window.
#include <algorithm>
#include <string>
#include <vector>

#include "common.hpp"
#include "harness/experiment.hpp"
#include "workload/synthetic.hpp"

namespace m2perf {
namespace {

namespace core = m2::core;
namespace harness = m2::harness;
namespace stats = m2::stats;
using m2::NodeId;

constexpr int kNodes = 5;
constexpr int kClientsPerNode = 64;
/// setup_s is the median of this many setup samples, taken on each CPU in
/// turn: the simulator is single-threaded, and on a shared host one core
/// can run half again as slow as another for a whole run (sets of runs
/// otherwise read setup medians of 0.53 or 0.80 ms by where they ran).
constexpr int kSetupSamples = 40;
/// Each protocol's run is repeated this many times per pass; the virtual
/// results must be identical, and the fastest repetition's wall time is
/// reported (the host's speed drifts by tens of percent, and a slowdown
/// only ever adds time).
constexpr int kRepeats = 3;
constexpr m2::sim::Time kWarmup = 10 * m2::sim::kMillisecond;
/// Virtual time after the clients stop in which every in-flight command
/// must commit and every node must catch up.
constexpr m2::sim::Time kDrain = 100 * m2::sim::kMillisecond;

struct ProtocolSpec {
  core::Protocol protocol;
  const char* key;  // metric prefix
  /// Virtual measurement window per wall second of --seconds, sized so
  /// that the four runs together take about --seconds at today's speed.
  m2::sim::Time measure_per_second;
};

const std::vector<ProtocolSpec>& protocols() {
  static const std::vector<ProtocolSpec> specs = {
      {core::Protocol::kM2Paxos, "m2paxos", 6 * m2::sim::kMillisecond},
      {core::Protocol::kMultiPaxos, "multipaxos", 6 * m2::sim::kMillisecond},
      {core::Protocol::kEPaxos, "epaxos", 6 * m2::sim::kMillisecond},
      {core::Protocol::kGenPaxos, "genpaxos", 6 * m2::sim::kMillisecond},
  };
  return specs;
}

harness::ExperimentConfig config_for(const ProtocolSpec& p,
                                     std::uint64_t seed, double seconds) {
  harness::ExperimentConfig cfg =
      harness::default_config(p.protocol, kNodes, seed);
  cfg.load.clients_per_node = kClientsPerNode;
  cfg.load.max_inflight_per_node = kClientsPerNode;
  cfg.warmup = kWarmup;
  cfg.measure = static_cast<m2::sim::Time>(
      static_cast<double>(p.measure_per_second) * seconds);
  return cfg;
}

m2::wl::SyntheticConfig synthetic(std::uint64_t seed) {
  m2::wl::SyntheticConfig cfg;
  cfg.n_nodes = kNodes;
  cfg.locality = 1.0;
  cfg.payload_bytes = 16;
  cfg.seed = seed;
  return cfg;
}

/// Decorator timing every next() call of the generator it wraps.
class TimedWorkload final : public m2::wl::Workload {
 public:
  explicit TimedWorkload(m2::wl::Workload& inner) : inner_(inner) {}

  core::Command next(NodeId proposer) override {
    const std::int64_t t = now_ns();
    core::Command c = inner_.next(proposer);
    ns_ += now_ns() - t;
    ++calls_;
    return c;
  }
  NodeId default_owner(core::ObjectId object) const override {
    return inner_.default_owner(object);
  }
  core::OwnerMap owner_map() const override { return inner_.owner_map(); }

  std::int64_t ns() const { return ns_; }
  std::uint64_t calls() const { return calls_; }

 private:
  m2::wl::Workload& inner_;
  std::int64_t ns_ = 0;
  std::uint64_t calls_ = 0;
};

/// Snapshots the modelled CPU time of every node when the first command
/// commits after the warm-up, so that the measured window's share of it
/// can be taken once the run ends.
class WarmupMark final : public harness::ClusterObserver {
 public:
  WarmupMark(harness::Cluster& cluster, m2::sim::Time warmup)
      : cluster_(cluster), warmup_(warmup) {}

  void on_committed(m2::sim::Time t, NodeId, const core::Command&) override {
    if (t >= warmup_ && busy_ < 0) busy_ = busy_now();
  }
  /// Modelled CPU time of all nodes since the mark.
  m2::sim::Time busy_since() const {
    return busy_now() - std::max<m2::sim::Time>(busy_, 0);
  }

 private:
  m2::sim::Time busy_now() const {
    m2::sim::Time busy = 0;
    for (NodeId n = 0; n < static_cast<NodeId>(cluster_.n_nodes()); ++n)
      busy += cluster_.cpu(n).busy_time();
    return busy;
  }

  harness::Cluster& cluster_;
  m2::sim::Time warmup_;
  m2::sim::Time busy_ = -1;
};

/// One setup sample: build each protocol's cluster and run it until every
/// node has committed one command. Returns wall seconds for all four.
double setup_sample(std::uint64_t seed, double seconds, Report& report) {
  const std::int64_t t0 = now_ns();
  for (const ProtocolSpec& p : protocols()) {
    m2::wl::SyntheticWorkload gen(synthetic(seed));
    harness::Cluster cluster(config_for(p, seed, seconds), gen);
    cluster.set_measuring(true);
    for (NodeId n = 0; n < kNodes; ++n) cluster.propose(n, gen.next(n));
    for (int step = 0; step < 1000 && cluster.committed_count() < kNodes;
         ++step)
      cluster.run_for(10 * m2::sim::kMicrosecond);
    if (cluster.committed_count() < kNodes)
      report.fail(std::string("setup: ") + p.key +
                  " did not commit its first commands");
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

struct Run {
  harness::ExperimentResult result;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  double wall_s = 0;
  m2::sim::Time busy = 0;  // modelled CPU time of all nodes, measured window
  std::uint64_t proposals = 0;
  std::uint64_t uncommitted = 0;
  std::int64_t next_ns = 0;
  std::uint64_t next_calls = 0;
};

/// Runs one protocol's experiment, drains it, and checks that every
/// proposal committed and that all nodes delivered the same commands.
Run run_protocol(const ProtocolSpec& p, std::uint64_t seed, double seconds,
                 SpanTracer* tracer, Report& report) {
  m2::wl::SyntheticWorkload gen(synthetic(seed));
  TimedWorkload timed(gen);
  harness::ExperimentConfig cfg = config_for(p, seed, seconds);
  cfg.audit = tracer != nullptr;
  m2::wl::Workload& workload =
      tracer != nullptr ? static_cast<m2::wl::Workload&>(timed) : gen;
  harness::Cluster cluster(cfg, workload);
  WarmupMark mark(cluster, kWarmup);
  cluster.set_observer(tracer != nullptr
                           ? static_cast<harness::ClusterObserver*>(tracer)
                           : &mark);

  Run run;
  const std::uint64_t allocs0 = allocations();
  const std::int64_t t0 = now_ns();
  run.result = cluster.run();
  run.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  run.busy = mark.busy_since();
  run.allocs = allocations() - allocs0;
  run.events = cluster.simulator().events_executed();
  run.next_ns = timed.ns();
  run.next_calls = timed.calls();

  cluster.run_for(kDrain);
  run.proposals = run.result.proposals;
  for (NodeId n = 0; n < kNodes; ++n) run.uncommitted += cluster.inflight(n);
  if (run.uncommitted > 0)
    report.fail(std::string(p.key) + ": " + std::to_string(run.uncommitted) +
                " commands never committed");
  for (NodeId n = 1; n < kNodes; ++n) {
    if (cluster.delivered_at(n) != cluster.delivered_at(0))
      report.fail(std::string(p.key) + ": node " + std::to_string(n) +
                  " delivered " + std::to_string(cluster.delivered_at(n)) +
                  " commands, node 0 " +
                  std::to_string(cluster.delivered_at(0)));
  }
  if (tracer != nullptr) {
    const core::ConsistencyReport audit = cluster.audit_consistency();
    if (!audit.ok) report.fail(std::string(p.key) + ": audit: " + audit.violation);
  }
  cluster.set_observer(nullptr);
  return run;
}

struct Pass {
  std::vector<Run> runs;  // in protocols() order
  std::uint64_t committed = 0;
  double wall_s = 0;
  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
  m2::sim::Time busy = 0;

  double committed_per_wall_s() const {
    return safe_div(static_cast<double>(committed), wall_s);
  }
};

/// Runs every protocol once, or (untraced) kRepeats times, keeping the
/// fastest repetition.
Pass run_pass(std::uint64_t seed, double seconds, SpanTracer* tracer,
              Report& report) {
  Pass pass;
  const int repeats = tracer != nullptr ? 1 : kRepeats;
  for (const ProtocolSpec& p : protocols()) {
    // Only M²Paxos is traced: its spans are the ones the figure is about.
    SpanTracer* t = p.protocol == core::Protocol::kM2Paxos ? tracer : nullptr;
    std::vector<Run> reps;
    for (int i = 0; i < repeats; ++i) {
      reps.push_back(run_protocol(p, seed, seconds, t, report));
      if (reps.back().result.committed != reps.front().result.committed ||
          reps.back().events != reps.front().events)
        report.fail(std::string(p.key) +
                    ": repeated run with the same seed diverged");
    }
    pass.runs.push_back(std::move(*std::min_element(
        reps.begin(), reps.end(),
        [](const Run& a, const Run& b) { return a.wall_s < b.wall_s; })));
    const Run& r = pass.runs.back();
    pass.committed += r.result.committed;
    pass.wall_s += r.wall_s;
    pass.busy += r.busy;
    pass.allocs += r.allocs;
    pass.events += r.events;
  }
  return pass;
}

}  // namespace

void run_sim_workload(const Options& opt, Report& report) {
  const double rss_base = rss_mb();
  std::vector<double> setups;
  {
    CpuRotation cpus;
    for (int i = 0; i < kSetupSamples; ++i) {
      cpus.next();
      setups.push_back(setup_sample(opt.seed, opt.seconds, report));
    }
  }
  const Pass pass = run_pass(opt.seed, opt.seconds, nullptr, report);
  for (const Run& r : pass.runs) {
    report.attempted += r.proposals;
    report.failed += r.uncommitted;
  }
  const Run& m2 = pass.runs.front();
  const stats::Histogram& lat = m2.result.commit_latency;
  const double samples = static_cast<double>(lat.count());

  if (!opt.trace) {
    report.add("setup_s", median(setups),
               "median of " + std::to_string(setups.size()) +
                   " setups of the four clusters");
    report.add("peak_rss_mb", peak_rss_mb() - rss_base,
               "peak " + human(peak_rss_mb()) + " MB - base " +
                   human(rss_base) + " MB");
    // The modelled CPU time the simulated nodes spend per commit, over the
    // four protocols' measured windows. The simulator's own speed
    // (sim.committed_per_wall_s) is per-layer: on a shared host a
    // single-threaded run's speed drifts by a third within minutes, more
    // than any end-to-end bound allows.
    const double busy_us = static_cast<double>(pass.busy) / 1e3;
    report.add("cpu_us_per_cmd",
               safe_div(busy_us, static_cast<double>(pass.committed)),
               ratio_base("modelled node cpu us", busy_us, "commits",
                          static_cast<double>(pass.committed)) +
                   ", virtual time, four protocols");
    return;
  }

  for (std::size_t i = 0; i < pass.runs.size(); ++i) {
    const Run& r = pass.runs[i];
    const std::string key = protocols()[i].key;
    const double commits = static_cast<double>(r.result.committed);
    report.add(key + ".wall_s", r.wall_s,
               human(commits) + " commits, " +
                   human(static_cast<double>(r.events)) + " events");
    report.add(key + ".virt_committed_per_s", r.result.committed_per_sec);
    if (i == 0) continue;
    const double msgs = static_cast<double>(r.result.traffic.messages_sent);
    report.add(key + ".msgs_per_cmd", safe_div(msgs, commits),
               ratio_base("msgs", msgs, "commits", commits));
  }
  const double m2_commits = static_cast<double>(m2.result.committed);
  const double m2_msgs = static_cast<double>(m2.result.traffic.messages_sent);
  const double m2_bytes = static_cast<double>(m2.result.traffic.bytes_sent);
  report.add("m2paxos.virt_commit_p50_us",
             static_cast<double>(lat.quantile(0.5)) / 1e3,
             human(samples) + " samples");
  report.add("m2paxos.virt_commit_p99_us",
             static_cast<double>(lat.quantile(0.99)) / 1e3,
             human(samples) + " samples");
  report.add("net.msgs_per_cmd", safe_div(m2_msgs, m2_commits),
             ratio_base("msgs", m2_msgs, "commits", m2_commits));
  report.add("net.bytes_per_cmd", safe_div(m2_bytes, m2_commits),
             ratio_base("bytes", m2_bytes, "commits", m2_commits));
  add_m2paxos_metrics(m2.result.metrics, m2_commits, report);
  const Run& ep = pass.runs[2];
  const double dep_bytes = static_cast<double>(
      ep.result.metrics.counter(stats::Counter::kDepBytesSent));
  report.add("epaxos.dep_bytes_per_cmd",
             safe_div(dep_bytes, static_cast<double>(ep.result.committed)),
             ratio_base("dep bytes", dep_bytes, "commits",
                        static_cast<double>(ep.result.committed)));

  const double commits = static_cast<double>(pass.committed);
  const double events = static_cast<double>(pass.events);
  report.add("sim.committed_per_wall_s", pass.committed_per_wall_s(),
             ratio_base("simulated commits", commits, "wall s", pass.wall_s) +
                 " (fastest of " + std::to_string(kRepeats) +
                 " runs per protocol)");
  report.add("process.allocs_per_cmd",
             safe_div(static_cast<double>(pass.allocs), commits),
             ratio_base("allocs", static_cast<double>(pass.allocs),
                        "commits", commits));
  report.add("sim.events_per_cmd", safe_div(events, commits),
             ratio_base("events", events, "commits", commits));
  report.add("sim.events_per_wall_s", safe_div(events, pass.wall_s),
             ratio_base("events", events, "wall s", pass.wall_s));
  report.add("sim.cpu_util", m2.result.avg_cpu_utilization, "M2Paxos run");
  const double skipped = static_cast<double>(m2.result.skipped);
  const double issues = skipped + static_cast<double>(m2.result.proposals);
  report.add("harness.skipped_frac", safe_div(skipped, issues),
             ratio_base("skipped", skipped, "client issues", issues));

  // The traced pass: spans of the M²Paxos run (virtual time), the audit,
  // the timed generator, and the tracing overhead.
  // The traced pass proposes exactly the untraced pass's commands (same
  // seed); clients issue about evenly, so 10 % slack per node covers all.
  SpanTracer tracer(kNodes, m2.proposals / kNodes * 11 / 10 + 1000);
  const Pass traced = run_pass(opt.seed, opt.seconds, &tracer, report);
  const Run& tm2 = traced.runs.front();
  report.add("workload.next_ns",
             safe_div(static_cast<double>(tm2.next_ns),
                      static_cast<double>(tm2.next_calls)),
             ratio_base("ns", static_cast<double>(tm2.next_ns), "next() calls",
                        static_cast<double>(tm2.next_calls)));
  const SpanTracer::Summary s = tracer.summarize();
  report.add("trace.commit_p99_us", quantile(s.commit_us, 0.99),
             "M2Paxos, virtual time, " +
                 human(static_cast<double>(s.commit_us.size())) + " samples");
  report.add("trace.commit_p999_us", quantile(s.commit_us, 0.999),
             human(static_cast<double>(s.commit_us.size())) + " samples");
  report.add("trace.decide_remote_p50_us", median(s.decide_remote_us),
             human(static_cast<double>(s.decide_remote_us.size())) +
                 " samples");
  report.add("trace.deliver_lag_p99_us", quantile(s.deliver_lag_us, 0.99),
             human(static_cast<double>(s.deliver_lag_us.size())) +
                 " samples");
  const double untraced = pass.committed_per_wall_s();
  report.add("trace.overhead_frac",
             safe_div(untraced - traced.committed_per_wall_s(), untraced),
             "traced " + human(traced.committed_per_wall_s()) +
                 " vs untraced " + human(untraced) + " cmds/wall-s");
  if (!opt.trace_dir.empty()) {
    const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    if (!tracer.write(path, 20'000))
      std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
  }
}

}  // namespace m2perf
