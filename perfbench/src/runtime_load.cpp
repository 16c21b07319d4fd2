// Runtime workloads: a 3-node M²Paxos cluster over the loopback transport,
// driven from one thread through runtime::Runtime's public API.
//
//   fast-path    synthetic, 100 % locality, one owned object per command
//   tpcc-remote  wl::TpccWorkload with remote_warehouse_prob 0.15
//
// Each run has two phases on fresh clusters: an open-loop rate phase at a
// fixed rate (latency) and a closed-loop capacity phase with 16 commands in
// flight per node (throughput and CPU cost per command). All commands are
// generated from the seed before any cluster is built.
#include <time.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common.hpp"
#include "m2paxos/messages.hpp"
#include "net/serde.hpp"
#include "runtime/runtime.hpp"
#include "workload/synthetic.hpp"
#include "workload/tpcc.hpp"

namespace m2perf {
namespace {

namespace core = m2::core;
namespace rt = m2::runtime;
namespace stats = m2::stats;
using m2::NodeId;

constexpr int kNodes = 3;
constexpr int kInflightPerNode = 16;
/// While the capacity window is full, the driver naps this long instead of
/// spinning: the three node threads then leave one of four cores free, and
/// other load on the host takes that core rather than a node's. (Waking
/// the driver from the node threads through await_committed costs them
/// about a third of capacity.)
constexpr long kDriverNapNs = 20'000;
constexpr std::int64_t kLatencyLimitNs = 1'000'000'000;
constexpr std::int64_t kDrainTimeoutNs = 10'000'000'000;
/// How long finish_cluster waits for every node to deliver what committed.
/// A healthy cluster takes milliseconds; a stuck frontier never catches up.
constexpr std::int64_t kDeliverTimeoutNs = 2'000'000'000;
constexpr std::int64_t kStallTimeoutNs = 30'000'000'000;
/// Slots kept per object behind the delivery frontier. The default (1024)
/// is more than a run fills, so every decided slot would stay in memory;
/// with this margin log memory is bounded and the capacity phase measures
/// the steady state, truncation included.
constexpr std::size_t kGcMargin = 64;
/// Throwaway clusters built back to back before the phases, only to sample
/// setup time; setup_s is their median. (A cluster built right after a
/// loaded one has stopped takes several times longer to set up; the phase
/// clusters' setups are printed but not counted.)
constexpr int kExtraSetups = 21;
/// The capacity phase runs on this many fresh clusters in turn. Under
/// TPC-C a cluster settles into an ownership layout that holds for its
/// lifetime and sets its throughput and CPU cost per command (about
/// +-12 % from one cluster to the next), so a run pools many.
constexpr int kCapacityClusters = 16;
/// Each capacity cluster's measured commands are split into this many
/// windows (see capacity_rate and cpu_us_per_cmd). One more window's worth
/// of commands before them is warm-up.
constexpr int kCapacityWindows = 16;
/// The rate phase's latency quantiles are the medians of the quantiles of
/// this many consecutive windows (a burst of slow commands then moves one
/// window, not the whole phase). The first kRateWarmupWindows are warm-up:
/// on tpcc-remote, ownership takes about a second to settle.
constexpr int kRateWindows = 12;
constexpr int kRateWarmupWindows = 2;

struct WorkloadSpec {
  bool tpcc = false;
  double rate = 0;  // open-loop rate phase, cmds/s
  /// Sizes the capacity phase's fixed command count so it lasts about
  /// capacity_share of --seconds at today's speed on a 4-core host.
  double nominal_capacity = 0;  // cmds/s
  /// Shares of --seconds spent in the two phases (the rest is generation,
  /// setup and drain).
  double rate_share = 0;
  double capacity_share = 0;
};

WorkloadSpec spec_for(const std::string& name) {
  // The tpcc-remote rate sits far below the open-loop collapse knee, which
  // is metastable (README.md). The capacity phase carries the end-to-end
  // metric, so it gets most of the run.
  if (name == "tpcc-remote") return {true, 5'000, 30'000, 0.2, 0.6};
  return {false, 100'000, 340'000, 0.2, 0.6};
}

std::unique_ptr<m2::wl::Workload> make_generator(const WorkloadSpec& spec,
                                                 std::uint64_t seed) {
  if (spec.tpcc) {
    m2::wl::TpccConfig cfg;
    cfg.n_nodes = kNodes;
    cfg.remote_warehouse_prob = 0.15;
    cfg.seed = seed;
    return std::make_unique<m2::wl::TpccWorkload>(cfg);
  }
  m2::wl::SyntheticConfig cfg;
  cfg.n_nodes = kNodes;
  cfg.locality = 1.0;
  cfg.payload_bytes = 16;
  cfg.seed = seed;
  return std::make_unique<m2::wl::SyntheticWorkload>(cfg);
}

/// Everything a run proposes, generated before any cluster exists.
struct Inputs {
  core::OwnerMap owner_map;
  /// One command per node on an object that node owns: each new cluster
  /// commits these before it counts as set up.
  std::vector<core::Command> probes;
  std::vector<core::Command> rate;  // command i goes to node i % 3
  /// One command stream per capacity cluster, routed likewise.
  std::vector<std::vector<core::Command>> capacity;
};

std::vector<core::Command> generate(m2::wl::Workload& gen, std::size_t n) {
  std::vector<core::Command> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(gen.next(static_cast<NodeId>(i % kNodes)));
  return out;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   double seconds) {
  const auto count = [](double x) {
    return static_cast<std::size_t>(std::max(x, 30.0)) / kNodes * kNodes;
  };
  Inputs in;
  // The rate phase and each capacity cluster draw from independent streams
  // of the seed, so each numbers its commands from 1 per proposer.
  auto rate_gen = make_generator(spec, seed);
  in.owner_map = rate_gen->owner_map();
  for (NodeId n = 0; n < kNodes; ++n) {
    const core::ObjectId obj =
        spec.tpcc ? m2::wl::TpccWorkload::warehouse_obj(
                        static_cast<int>(n) * m2::wl::TpccConfig{}.warehouses_per_node)
                  : static_cast<core::ObjectId>(n) *
                        m2::wl::SyntheticConfig{}.objects_per_node;
    in.probes.emplace_back(core::CommandId::make(n, 1ULL << 40), core::ObjectList{obj});
  }
  in.rate = generate(*rate_gen, count(spec.rate * seconds * spec.rate_share));
  const std::size_t per_cluster =
      count(spec.nominal_capacity * seconds * spec.capacity_share /
            kCapacityClusters);
  for (int k = 0; k < kCapacityClusters; ++k) {
    auto cap_gen = make_generator(spec, seed ^ (0x5bd1e995ULL + k));
    in.capacity.push_back(generate(*cap_gen, per_cluster));
  }
  return in;
}

/// Per-phase observations.
struct Phase {
  std::uint64_t proposed = 0;
  std::uint64_t committed = 0;  // phase commands committed after drain
  std::uint64_t late = 0;       // committed, but past the latency limit
  std::uint64_t undelivered = 0;  // committed, but missing at some node
  std::vector<double> setups;  // seconds, one per cluster
  // Rate phase.
  stats::Histogram latency;   // propose -> commit at the proposer (ns)
  std::vector<double> window_p50;  // per rate window (ns)
  std::vector<double> window_p90;
  stats::Histogram lateness;  // generator lateness (ns)
  double load_s = 0;
  double drain_ms = 0;
  std::uint64_t voluntary_switches = 0;
  // Capacity phase, over the clusters' measured windows.
  std::vector<double> window_rates;    // commits per wall second
  std::vector<double> window_cpu_ns;   // node-thread CPU ns per commit
  std::uint64_t measured = 0;
  double measured_s = 0;
  std::int64_t node_cpu_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  // Both.
  std::int64_t propose_ns = 0;  // driver time inside Runtime::propose
  std::uint64_t propose_calls = 0;
  std::uint64_t tx_dropped = 0;
  std::uint64_t decode_failures = 0;
  stats::MetricsRegistry registry;
};

struct Transport {
  std::uint64_t msgs = 0, bytes = 0, dropped = 0, decode_failures = 0;
};
Transport transport_now(const rt::Runtime& runtime) {
  const rt::TransportCounters& c = runtime.transport_counters();
  return {c.messages_sent.load(), c.bytes_sent.load(),
          c.messages_dropped.load(), c.decode_failures.load()};
}

/// A running cluster, its node threads, and what its setup cost.
struct LiveCluster {
  std::unique_ptr<rt::Runtime> runtime;
  std::vector<int> node_tids;
  double setup_s = 0;
};

/// Builds and starts a cluster and waits until every node has committed
/// its probe command. Setup time covers exactly that.
LiveCluster build_cluster(const rt::RuntimeConfig& cfg, const Inputs& in,
                      Report& report) {
  LiveCluster c;
  const std::vector<int> before = task_ids();
  const std::int64_t t0 = now_ns();
  c.runtime = std::make_unique<rt::Runtime>(cfg);
  std::string error;
  if (!c.runtime->start(&error)) {
    report.fail("cluster start: " + error);
    c.runtime.reset();
    return c;
  }
  for (NodeId n = 0; n < kNodes; ++n) c.runtime->propose(n, in.probes[n]);
  if (!c.runtime->await_committed(kNodes, kDrainTimeoutNs))
    report.fail("setup: probe commands did not commit");
  c.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  for (const int tid : task_ids()) {
    if (!std::binary_search(before.begin(), before.end(), tid))
      c.node_tids.push_back(tid);
  }
  c.runtime->reset_measurement();
  return c;
}

/// Waits for every node to deliver `expected` commands, checks the
/// transport, stops the cluster, and audits it when auditing is on.
///
/// A node still short of `expected` after the drain timeout is reported
/// (runtime.undelivered, standard error), not failed: those commands did
/// commit at their proposers, and under tpcc-remote a node's delivery
/// frontier occasionally stays stuck for good once the load stops (about
/// one run in 20; see README.md). Delivering more than `expected` is a
/// failed check (exactly-once delivery).
void finish_cluster(LiveCluster& c, std::uint64_t expected, bool audit,
                    const char* phase, Phase& p, Report& report) {
  rt::Runtime& runtime = *c.runtime;
  const std::int64_t deadline = now_ns() + kDeliverTimeoutNs;
  const auto converged = [&] {
    for (NodeId n = 0; n < kNodes; ++n)
      if (runtime.delivered(n) != expected) return false;
    return true;
  };
  while (!converged() && now_ns() < deadline) wait_until(now_ns() + 200'000);
  for (NodeId n = 0; n < kNodes; ++n) {
    const std::uint64_t delivered = runtime.delivered(n);
    if (delivered == expected) continue;
    const std::string what = std::string(phase) + ": node " +
                             std::to_string(n) + " delivered " +
                             std::to_string(delivered) + " of " +
                             std::to_string(expected) + " commands";
    if (delivered > expected) {
      report.fail(what);
    } else {
      std::fprintf(stderr, "%s after the drain\n", what.c_str());
      p.undelivered = std::max(p.undelivered, expected - delivered);
    }
  }
  const Transport t = transport_now(runtime);
  p.tx_dropped += t.dropped;
  p.decode_failures += t.decode_failures;
  runtime.stop();
  p.registry.merge(runtime.merged_metrics());
  if (audit) {
    const core::ConsistencyReport r = runtime.audit_consistency();
    if (!r.ok) report.fail(std::string(phase) + ": audit: " + r.violation);
  }
}

/// q-quantile of the samples `after` holds beyond `before` (a snapshot of
/// the same histogram taken earlier), interpolated within the bucket.
double window_quantile(const stats::Histogram& before,
                       const stats::Histogram& after, double q) {
  std::vector<std::uint64_t> counts(stats::Histogram::bucket_count());
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    counts[b] = after.bucket_value(b) - before.bucket_value(b);
    total += counts[b];
  }
  const double target = q * static_cast<double>(total);
  double seen = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const double c = static_cast<double>(counts[b]);
    if (seen + c >= target) {
      const auto [lo, hi] = stats::Histogram::bucket_bounds(b);
      return static_cast<double>(lo) +
             (target - seen) / c * static_cast<double>(hi - lo);
    }
    seen += c;
  }
  return 0;
}

/// Commands of `h` at or above `threshold` (whole buckets).
std::uint64_t count_at_least(const stats::Histogram& h, std::int64_t threshold) {
  std::uint64_t n = 0;
  for (std::size_t b = 0; b < stats::Histogram::bucket_count(); ++b) {
    if (stats::Histogram::bucket_bounds(b).first >= threshold)
      n += h.bucket_value(b);
  }
  return n;
}

/// Open loop: command i is due at start + i / rate and goes to node i % 3.
void rate_phase(const rt::RuntimeConfig& cfg, Inputs& in, double rate,
                const Options& opt, SpanTracer* tracer, Phase& p,
                Report& report) {
  LiveCluster c = build_cluster(cfg, in, report);
  if (!c.runtime) return;
  rt::Runtime& runtime = *c.runtime;
  p.setups.push_back(c.setup_s);
  const std::int64_t origin = now_ns() - runtime.clock().now();
  const std::uint64_t switches0 = voluntary_switches(c.node_tids);
  const double gap_ns = 1e9 / rate;
  const std::size_t window = std::max<std::size_t>(in.rate.size() / kRateWindows, 1);
  std::vector<stats::Histogram> snapshots(1);
  const std::int64_t start = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < in.rate.size(); ++i) {
    if (i > 0 && i % window == 0) snapshots.push_back(runtime.commit_latency());
    const std::int64_t due =
        start + static_cast<std::int64_t>(static_cast<double>(i) * gap_ns);
    wait_until(due);
    const std::int64_t t = now_ns();
    p.lateness.record(t - due);
    const auto node = static_cast<NodeId>(i % kNodes);
    const std::uint64_t seq = in.rate[i].id.seq();
    if (tracer != nullptr) tracer->set_due(node, seq, due - origin);
    runtime.propose(node, std::move(in.rate[i]));
    const std::int64_t end = now_ns();
    if (tracer != nullptr)
      tracer->set_propose_call(node, seq, t - origin, end - origin);
    p.propose_ns += end - t;
  }
  const std::int64_t load_end = now_ns();
  p.proposed = in.rate.size();
  p.propose_calls = p.proposed;
  p.load_s = static_cast<double>(load_end - start) / 1e9;
  runtime.await_committed(p.proposed, kDrainTimeoutNs);
  p.drain_ms = static_cast<double>(now_ns() - load_end) / 1e6;
  p.voluntary_switches =
      voluntary_switches(c.node_tids) - switches0;
  p.committed = runtime.committed();
  p.latency = runtime.commit_latency();
  snapshots.push_back(p.latency);
  for (std::size_t w = kRateWarmupWindows + 1; w < snapshots.size(); ++w) {
    p.window_p50.push_back(window_quantile(snapshots[w - 1], snapshots[w], 0.5));
    p.window_p90.push_back(window_quantile(snapshots[w - 1], snapshots[w], 0.9));
  }
  // A command counts as late when propose->commit plus the generator's
  // worst lateness passes the limit (an upper bound on due->commit).
  p.late = count_at_least(p.latency, kLatencyLimitNs - p.lateness.max());

  std::uint64_t expected = kNodes + p.committed;
  if (opt.inject_uncommitted > 0) {
    // A crashed node drops proposals: these can never commit.
    const NodeId victim = kNodes - 1;
    runtime.crash(victim);
    for (std::uint64_t k = 0; k < opt.inject_uncommitted; ++k) {
      runtime.propose(victim,
                      core::Command(core::CommandId::make(victim, (1ULL << 41) + k),
                                    in.probes[victim].objects));
    }
    p.proposed += opt.inject_uncommitted;
    runtime.await_committed(p.proposed, 200'000'000);
    p.committed = runtime.committed();
    expected = kNodes + p.committed;
  }
  if (p.committed < p.proposed) {
    report.fail("rate phase: " + std::to_string(p.proposed - p.committed) +
                " of " + std::to_string(p.proposed) +
                " commands never committed");
  }
  finish_cluster(c, expected, cfg.audit, "rate phase", p, report);
}

/// Closed loop on one fresh cluster: keeps 16 commands per node in flight
/// (48 in total, issued round-robin) until every command of `cmds` has
/// committed. Adds the cluster's windows and counts to `p`.
void capacity_phase(const rt::RuntimeConfig& cfg, const Inputs& in,
                    std::vector<core::Command>& cmds, Phase& p,
                    Report& report) {
  LiveCluster c = build_cluster(cfg, in, report);
  if (!c.runtime) return;
  rt::Runtime& runtime = *c.runtime;
  p.setups.push_back(c.setup_s);
  const std::uint64_t n = cmds.size();
  const std::uint64_t cap = kInflightPerNode * kNodes;

  // Window k ends when bounds[k] commands have committed; bounds[0] ends
  // the warm-up.
  std::vector<std::uint64_t> bounds(kCapacityWindows + 1);
  for (int k = 0; k <= kCapacityWindows; ++k)
    bounds[k] = n / (kCapacityWindows + 1) * (k + 1);
  bounds[kCapacityWindows] = n;
  std::vector<std::int64_t> stamps(kCapacityWindows + 1);
  std::vector<std::int64_t> cpu_at(kCapacityWindows + 1);
  std::uint64_t allocs0 = 0;
  Transport t0;

  const std::int64_t deadline = now_ns() + kStallTimeoutNs;
  std::uint64_t issued = 0;
  int k = 0;
  while (k <= kCapacityWindows) {
    const std::uint64_t done = runtime.committed();
    while (k <= kCapacityWindows && done >= bounds[k]) {
      stamps[k] = now_ns();
      cpu_at[k] = threads_cpu_ns(c.node_tids);
      if (k == 0) {
        allocs0 = allocations();
        t0 = transport_now(runtime);
      } else if (k == kCapacityWindows) {
        p.allocs += allocations() - allocs0;
        const Transport t1 = transport_now(runtime);
        p.msgs += t1.msgs - t0.msgs;
        p.bytes += t1.bytes - t0.bytes;
      }
      ++k;
    }
    if (issued < n && issued - done < cap) {
      const std::int64_t t = now_ns();
      do {
        runtime.propose(static_cast<NodeId>(issued % kNodes),
                        std::move(cmds[issued]));
        ++issued;
        ++p.propose_calls;
      } while (issued < n && issued - done < cap);
      p.propose_ns += now_ns() - t;
    } else if (now_ns() > deadline) {
      report.fail("capacity phase: stalled at " + std::to_string(done) +
                  " of " + std::to_string(n) + " commits");
      break;
    } else {
      const timespec nap{0, kDriverNapNs};
      nanosleep(&nap, nullptr);
    }
  }
  const std::uint64_t committed = runtime.committed();
  p.proposed += issued;
  p.committed += committed;
  if (k > kCapacityWindows) {
    for (int w = 1; w <= kCapacityWindows; ++w) {
      const auto cmds = static_cast<double>(bounds[w] - bounds[w - 1]);
      p.window_rates.push_back(
          cmds / (static_cast<double>(stamps[w] - stamps[w - 1]) / 1e9));
      p.window_cpu_ns.push_back(
          static_cast<double>(cpu_at[w] - cpu_at[w - 1]) / cmds);
    }
    p.node_cpu_ns += cpu_at[kCapacityWindows] - cpu_at[0];
    p.measured += bounds[kCapacityWindows] - bounds[0];
    p.measured_s +=
        static_cast<double>(stamps[kCapacityWindows] - stamps[0]) / 1e9;
  }
  if (committed < n) {
    report.fail("capacity phase: " + std::to_string(n - committed) + " of " +
                std::to_string(n) + " commands never committed");
  }
  finish_cluster(c, kNodes + committed, cfg.audit, "capacity phase", p,
                 report);
}

/// Samples setup time on throwaway clusters.
std::vector<double> extra_setups(const rt::RuntimeConfig& cfg,
                                 const Inputs& in, Report& report) {
  std::vector<double> samples;
  for (int i = 0; i < kExtraSetups; ++i) {
    LiveCluster c = build_cluster(cfg, in, report);
    if (!c.runtime) break;
    samples.push_back(c.setup_s);
    c.runtime->stop();
  }
  return samples;
}

struct Pass {
  Phase rate;
  Phase capacity;
  std::vector<double> setups;  // the throwaway clusters'
};

Pass run_pass(const WorkloadSpec& spec, const Options& opt, double seconds,
              bool traced, Report& report, double* rss_base = nullptr) {
  Inputs in = make_inputs(spec, opt.seed, seconds);
  if (rss_base != nullptr) *rss_base = rss_mb();

  rt::RuntimeConfig cfg;
  cfg.protocol = core::Protocol::kM2Paxos;
  cfg.cluster.n_nodes = kNodes;
  cfg.cluster.batching.enabled = true;
  cfg.cluster.gc_margin = kGcMargin;
  cfg.seed = opt.seed;
  cfg.owner_map = in.owner_map;
  cfg.audit = traced;

  Pass pass;
  pass.setups = extra_setups(cfg, in, report);
  std::unique_ptr<SpanTracer> rate_tracer;
  rt::RuntimeConfig rate_cfg = cfg;
  if (traced) {
    rate_tracer = std::make_unique<SpanTracer>(kNodes, in.rate.size() / kNodes);
    rate_cfg.observer = rate_tracer.get();
  }
  rate_phase(rate_cfg, in, spec.rate, opt, rate_tracer.get(), pass.rate,
             report);
  for (std::vector<core::Command>& cmds : in.capacity) {
    // The capacity spans are not summarized: a tracer is attached so that
    // trace.overhead_frac includes the observer's cost.
    std::unique_ptr<SpanTracer> cap_tracer;
    rt::RuntimeConfig cap_cfg = cfg;
    if (traced) {
      cap_tracer = std::make_unique<SpanTracer>(kNodes, cmds.size() / kNodes);
      cap_cfg.observer = cap_tracer.get();
    }
    capacity_phase(cap_cfg, in, cmds, pass.capacity, report);
  }

  if (traced) {
    const SpanTracer::Summary s = rate_tracer->summarize();
    const double n = static_cast<double>(s.commit_us.size());
    report.add("trace.commit_p99_us", quantile(s.commit_us, 0.99),
               "due->commit p50 " + human(median(s.commit_us)) + " us, " +
                   human(n) + " samples");
    report.add("trace.commit_p999_us", quantile(s.commit_us, 0.999),
               human(n) + " samples");
    report.add("trace.decide_remote_p50_us", median(s.decide_remote_us),
               human(static_cast<double>(s.decide_remote_us.size())) +
                   " samples");
    report.add("trace.deliver_lag_p99_us", quantile(s.deliver_lag_us, 0.99),
               human(static_cast<double>(s.deliver_lag_us.size())) +
                   " samples");
    if (!opt.trace_dir.empty()) {
      const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                               std::to_string(opt.seed) + ".json";
      if (!rate_tracer->write(path, 20'000))
        std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    }
  }
  return pass;
}

/// The upper quartile of the window rates: host slowdowns only ever
/// subtract throughput, and on a shared 4-core VM they can cover half of a
/// run, which moves the median window but not the upper quartile.
double capacity_rate(const Phase& p) { return quantile(p.window_rates, 0.75); }

/// Node-thread CPU time per committed command in the capacity phase: the
/// median over its windows, which holds still while the host's speed
/// swings both ways from one stretch of a run to the next.
double cpu_us_per_cmd(const Phase& p) { return median(p.window_cpu_ns) / 1e3; }

/// Mean ns per encode and per decode over M²Paxos messages: an Accept and
/// a Decide carrying a 16-command batch, an AckAccept, and a Prepare and
/// AckPrepare covering a TPC-C NewOrder's objects. Also checks that each
/// message round-trips and that wire_size() matches the encoder.
void serde_loop(std::uint64_t seed, Report& report) {
  namespace m2p = m2::m2p;
  auto batch = std::make_shared<core::CommandBatch>();
  for (int i = 0; i < 16; ++i) {
    batch->cmds.push_back(std::make_shared<const core::Command>(
        core::CommandId::make(0, static_cast<std::uint64_t>(i) + 1),
        core::ObjectList{static_cast<core::ObjectId>(i)}, 16));
  }
  const core::CommandBatchPtr shared_batch = batch;
  m2p::SlotList slots;
  slots.push_back(m2p::SlotValue(7, 42, 3, shared_batch->cmds[0], shared_batch));

  m2::wl::TpccConfig tcfg;
  tcfg.n_nodes = kNodes;
  tcfg.seed = seed;
  m2::wl::TpccWorkload tpcc(tcfg);
  core::Command order = tpcc.next(0);
  while (tpcc.last_profile() != m2::wl::TpccProfile::kNewOrder)
    order = tpcc.next(0);
  const auto order_ptr = std::make_shared<const core::Command>(order);
  std::vector<m2p::Prepare::Entry> entries;
  auto ack_prepare = std::make_shared<m2p::AckPrepare>();
  ack_prepare->req_id = 9;
  ack_prepare->acceptor = 1;
  ack_prepare->ack = true;
  for (const core::ObjectId obj : order.objects) {
    entries.push_back({obj, 100, 5});
    ack_prepare->votes.emplace_back(obj, 100, 4, true, order_ptr);
    ack_prepare->delivered_floors.emplace_back(obj, 99);
  }
  auto ack = std::make_shared<m2p::AckAccept>();
  ack->req_id = 11;
  ack->acceptor = 2;
  ack->ack = true;

  const std::vector<m2::net::PayloadPtr> msgs = {
      m2::net::make_payload<m2p::Accept>(11, slots), ack,
      m2::net::make_payload<m2p::Decide>(slots),
      m2::net::make_payload<m2p::Prepare>(9, entries), ack_prepare};

  std::vector<std::uint8_t> buf;
  std::vector<std::uint8_t> again;
  for (const auto& m : msgs) {
    m2::net::encode_payload_into(*m, buf);
    if (buf.size() != m->wire_size())
      report.fail(std::string("serde: ") + m->name() + " encodes " +
                  std::to_string(buf.size()) + " bytes, wire_size() says " +
                  std::to_string(m->wire_size()));
    const m2::net::PayloadPtr back = m2::net::decode_payload(buf);
    if (back == nullptr) {
      report.fail(std::string("serde: ") + m->name() + " does not decode");
      continue;
    }
    m2::net::encode_payload_into(*back, again);
    if (again != buf)
      report.fail(std::string("serde: ") + m->name() + " does not round-trip");
  }

  constexpr int kReps = 5;
  constexpr int kIters = 4000;
  std::vector<double> enc, dec;
  for (int rep = 0; rep < kReps; ++rep) {
    std::int64_t enc_ns = 0, dec_ns = 0;
    for (const auto& m : msgs) {
      std::int64_t t = now_ns();
      for (int i = 0; i < kIters; ++i) m2::net::encode_payload_into(*m, buf);
      enc_ns += now_ns() - t;
      t = now_ns();
      for (int i = 0; i < kIters; ++i) {
        const m2::net::PayloadPtr p = m2::net::decode_payload(buf);
        if (p == nullptr) report.fail("serde: decode failed in the loop");
      }
      dec_ns += now_ns() - t;
    }
    const double calls = static_cast<double>(kIters) * msgs.size();
    enc.push_back(static_cast<double>(enc_ns) / calls);
    dec.push_back(static_cast<double>(dec_ns) / calls);
  }
  report.add("net.encode_ns", median(enc),
             "median of " + std::to_string(kReps) + " loops over 5 messages");
  report.add("net.decode_ns", median(dec),
             "median of " + std::to_string(kReps) + " loops over 5 messages");
}

}  // namespace

void add_m2paxos_metrics(const stats::MetricsRegistry& r, double commits,
                         Report& report) {
  using stats::Counter;
  const auto c = [&](Counter k) { return static_cast<double>(r.counter(k)); };
  const double rounds = c(Counter::kBatchedRounds);
  const double flushes = c(Counter::kBatchFlushFull) +
                         c(Counter::kBatchFlushBytes) +
                         c(Counter::kBatchFlushWindow) +
                         c(Counter::kBatchFlushPipeline);
  const double by_path = c(Counter::kCommittedFast) +
                         c(Counter::kCommittedSlow) +
                         c(Counter::kCommittedForwarded);
  report.add("m2paxos.batch_occupancy",
             safe_div(c(Counter::kBatchedCommands), rounds),
             ratio_base("batched cmds", c(Counter::kBatchedCommands),
                        "batched rounds", rounds));
  report.add("m2paxos.flush_window_frac",
             safe_div(c(Counter::kBatchFlushWindow), flushes),
             ratio_base("window flushes", c(Counter::kBatchFlushWindow),
                        "flushes", flushes));
  report.add("m2paxos.fast_frac", safe_div(c(Counter::kCommittedFast), by_path),
             ratio_base("fast", c(Counter::kCommittedFast), "commits",
                        by_path));
  report.add("m2paxos.forwarded_frac",
             safe_div(c(Counter::kCommittedForwarded), by_path),
             ratio_base("forwarded", c(Counter::kCommittedForwarded),
                        "commits", by_path));
  const auto per_k = [&](const char* name, const char* what, double v) {
    report.add(name, safe_div(1000 * v, commits),
               ratio_base(what, v, "commits", commits));
  };
  per_k("m2paxos.acquisitions_per_kcmd", "acquisitions",
        c(Counter::kAcquisitions));
  per_k("m2paxos.nacks_per_kcmd", "nacks",
        c(Counter::kAcceptNacks) + c(Counter::kPrepareNacks));
  per_k("m2paxos.timeouts_per_kcmd", "timeouts", c(Counter::kTimeouts));
  per_k("m2paxos.repair_rounds_per_kcmd", "repair rounds",
        c(Counter::kRepairRounds));
  per_k("m2paxos.fallbacks_per_kcmd", "fallbacks", c(Counter::kFallbacks));
  const stats::Histogram& acq = r.histogram(stats::Histo::kAcquisitionNs);
  report.add("m2paxos.acquisition_p50_us",
             static_cast<double>(acq.median()) / 1e3,
             human(static_cast<double>(acq.count())) + " acquisitions");
  const stats::Histogram& slow = r.histogram(stats::Histo::kDeliverSlowNs);
  report.add("m2paxos.deliver_slow_p99_us",
             static_cast<double>(slow.quantile(0.99)) / 1e3,
             human(static_cast<double>(slow.count())) + " slow deliveries");
}

void run_runtime_workload(const Options& opt, Report& report) {
  const WorkloadSpec spec = spec_for(opt.workload);
  double rss_base = 0;
  Pass pass = run_pass(spec, opt, opt.seconds, false, report, &rss_base);
  const Phase& rate = pass.rate;
  const Phase& cap = pass.capacity;
  report.attempted = rate.proposed + cap.proposed;
  report.failed = (rate.proposed - rate.committed) + rate.late +
                  (cap.proposed - cap.committed);
  const double committed_per_s = capacity_rate(cap);

  if (!opt.trace) {
    std::string samples;
    for (const double v : pass.setups) samples += " " + human(v * 1e3);
    std::string phases;
    for (const Phase* p : {&rate, &cap})
      for (const double v : p->setups) phases += " " + human(v * 1e3);
    report.add("setup_s", median(pass.setups),
               "median of " + std::to_string(pass.setups.size()) +
                   " setups, ms:" + samples + "; phase clusters, ms:" +
                   phases);
    report.add("peak_rss_mb", peak_rss_mb() - rss_base,
               "peak " + human(peak_rss_mb()) + " MB - base " +
                   human(rss_base) + " MB");
    report.add("cpu_us_per_cmd", cpu_us_per_cmd(cap),
               "over " + std::to_string(cap.window_cpu_ns.size()) +
                   " capacity windows on " +
                   std::to_string(kCapacityClusters) + " clusters; " +
                   ratio_base("node cpu s",
                              static_cast<double>(cap.node_cpu_ns) / 1e9,
                              "commits", static_cast<double>(cap.measured)));
    return;
  }

  // Per-layer numbers, from the untraced pass above.
  const double cap_commits = static_cast<double>(cap.measured);
  std::string windows;
  for (const double v : cap.window_rates) windows += " " + human(v);
  report.add("runtime.committed_per_wall_s", committed_per_s,
             "upper quartile of windows" + windows + "; " +
                 ratio_base("commits", cap_commits, "wall s", cap.measured_s));
  const double n = static_cast<double>(rate.latency.count());
  report.add("runtime.commit_p50_us", median(rate.window_p50) / 1e3,
             "median of " + std::to_string(rate.window_p50.size()) +
                 " windows, " + human(n) + " samples at " +
                 human(static_cast<double>(rate.proposed) / rate.load_s) +
                 " cmds/s");
  std::string wins;
  for (const double v : rate.window_p90) wins += " " + human(v / 1e3);
  report.add("runtime.commit_p90_us", median(rate.window_p90) / 1e3,
             "windows" + wins + "; whole phase p90 " +
                 human(static_cast<double>(rate.latency.quantile(0.9)) / 1e3) +
                 " us, p99 " +
                 human(static_cast<double>(rate.latency.quantile(0.99)) /
                       1e3) +
                 " us");
  report.add("runtime.propose_ns",
             safe_div(static_cast<double>(cap.propose_ns),
                      static_cast<double>(cap.propose_calls)),
             ratio_base("driver ns", static_cast<double>(cap.propose_ns),
                        "propose calls",
                        static_cast<double>(cap.propose_calls)));
  report.add("runtime.node_busy_frac",
             safe_div(static_cast<double>(cap.node_cpu_ns) / 1e9,
                      cap.measured_s * kNodes),
             ratio_base("node cpu s", static_cast<double>(cap.node_cpu_ns) / 1e9,
                        "wall s x nodes", cap.measured_s * kNodes));
  report.add("runtime.ctx_switches_per_cmd",
             safe_div(static_cast<double>(rate.voluntary_switches),
                      static_cast<double>(rate.committed)),
             ratio_base("voluntary switches",
                        static_cast<double>(rate.voluntary_switches),
                        "commits", static_cast<double>(rate.committed)));
  report.add("runtime.msgs_per_cmd",
             safe_div(static_cast<double>(cap.msgs), cap_commits),
             ratio_base("msgs", static_cast<double>(cap.msgs), "commits",
                        cap_commits));
  report.add("runtime.bytes_per_cmd",
             safe_div(static_cast<double>(cap.bytes), cap_commits),
             ratio_base("bytes", static_cast<double>(cap.bytes), "commits",
                        cap_commits));
  report.add("runtime.drain_ms", rate.drain_ms, "rate phase");
  report.add("runtime.tx_dropped",
             static_cast<double>(rate.tx_dropped + cap.tx_dropped));
  report.add("runtime.decode_failures",
             static_cast<double>(rate.decode_failures + cap.decode_failures));
  report.add("runtime.undelivered",
             static_cast<double>(rate.undelivered + cap.undelivered),
             "committed, but missing at a node 2 s after the last commit");
  if (rate.tx_dropped + cap.tx_dropped + rate.decode_failures +
          cap.decode_failures > 0)
    report.fail("transport dropped or failed to decode messages");
  report.add("process.allocs_per_cmd",
             safe_div(static_cast<double>(cap.allocs), cap_commits),
             ratio_base("allocs", static_cast<double>(cap.allocs), "commits",
                        cap_commits));
  report.add("bench.gen_late_p99_us",
             static_cast<double>(rate.lateness.quantile(0.99)) / 1e3,
             "max " + human(static_cast<double>(rate.lateness.max()) / 1e3) +
                 " us");
  report.add("bench.driver_busy_frac",
             safe_div(static_cast<double>(rate.propose_ns) / 1e9, rate.load_s),
             ratio_base("propose s", static_cast<double>(rate.propose_ns) / 1e9,
                        "rate phase s", rate.load_s));
  stats::MetricsRegistry merged = rate.registry;
  merged.merge(cap.registry);
  add_m2paxos_metrics(
      merged, static_cast<double>(rate.committed + cap.committed), report);
  serde_loop(opt.seed, report);

  // The traced pass: spans, the C-struct audit, and tracing overhead. It
  // runs half the untraced pass's commands so audit memory stays modest.
  Pass traced = run_pass(spec, opt, opt.seconds / 2, true, report);
  const double traced_rate = capacity_rate(traced.capacity);
  report.add("trace.overhead_frac",
             safe_div(committed_per_s - traced_rate, committed_per_s),
             "traced " + human(traced_rate) + " vs untraced " +
                 human(committed_per_s) + " cmds/s");
}

}  // namespace m2perf
