// Shared pieces of the m2perf benchmark: options, the metric catalog, the
// report every workload fills, and the process probes (allocation count,
// RSS, per-thread CPU time and context switches, span tracing).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness/cluster.hpp"

namespace m2perf {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Test hook: after the rate phase drains, propose this many commands at
  /// a crashed node, so they can never commit (the check must fail).
  std::uint64_t inject_uncommitted = 0;
  /// Where the traced run writes its spans ("" = do not write).
  std::string trace_dir;
};

// --- metric catalog --------------------------------------------------------

/// One entry of the catalog: every metric the benchmark can report, with
/// its unit. BENCHMARK.json lists the same names; the end-to-end ones are
/// printed by untraced runs, the per-layer ones by traced runs.
struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};
const std::vector<MetricDef>& metric_catalog();

/// Results of one workload run: named values (each with the base of the
/// ratio, for the human-readable table), the attempted/failed command
/// counts, and every failed correctness check.
class Report {
 public:
  /// Records `name` (which must be in the catalog). `base` says what the
  /// value was computed from, e.g. "acquisitions 38k / commits 370k".
  void add(const std::string& name, double value, std::string base = "");
  /// Records a failed correctness check.
  void fail(std::string why);

  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Prints every recorded metric (all of them, with units and bases).
  void print_table(std::FILE* out) const;
  /// One-line JSON result: the catalog's end-to-end metrics (trace off) or
  /// per-layer metrics (trace on). Per-layer metrics a workload does not
  /// exercise read 0.
  std::string json(bool trace) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string base;
  };
  const Entry* find(const std::string& name) const;

  std::vector<Entry> entries_;
  std::vector<std::string> failures_;
};

/// "38.2k"-style rendering for ratio bases.
std::string human(double v);
/// "<what> <num> / <what> <den>".
std::string ratio_base(const char* num_name, double num, const char* den_name,
                       double den);
/// num / den, 0 when den is 0.
double safe_div(double num, double den);

// --- process probes --------------------------------------------------------

/// Heap allocations made by the whole process so far (operator-new hook).
std::uint64_t allocations();

/// Resident set size now and its peak so far, in MB (/proc/self/status).
double rss_mb();
double peak_rss_mb();

/// Wall clock in nanoseconds (CLOCK_MONOTONIC).
std::int64_t now_ns();
/// Summed CPU time of threads of this process, by thread id, in ns.
std::int64_t threads_cpu_ns(const std::vector<int>& tids);

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// step per next(); the destructor restores the original CPU set.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next();

 private:
  std::vector<int> cpus_;
  std::size_t at_ = 0;
};

/// Thread ids of this process (/proc/self/task).
std::vector<int> task_ids();

/// Voluntary context switches of a set of threads (/proc/self/task).
std::uint64_t voluntary_switches(const std::vector<int>& tids);

/// Median of `v` (copied; 0 when empty), and the q-quantile by linear
/// interpolation between order statistics.
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// Sleeps (then spins for the last stretch) until now_ns() >= t.
void wait_until(std::int64_t t);

// --- tracing ---------------------------------------------------------------

/// Span recorder attached as the cluster observer in the traced run. It
/// keeps one record per traced command, indexed by (proposer, sequence
/// number), so node threads write disjoint atomics without a lock; records
/// are read after the cluster stops. Times are the cluster's clock (real ns
/// on the runtime, virtual ns in the simulator).
///
/// Spans per command (sharing its id): propose (driver call), commit
/// (due/propose -> commit at the proposer), decide at every node
/// (propose -> decided there), deliver (commit -> deliver at the proposer).
class SpanTracer final : public m2::harness::ClusterObserver {
 public:
  SpanTracer(int nodes, std::uint64_t per_node);

  /// Marks when command (node, seq) was due; spans start there.
  void set_due(m2::NodeId node, std::uint64_t seq, std::int64_t t);
  /// Records the driver's propose call, [start, end).
  void set_propose_call(m2::NodeId node, std::uint64_t seq,
                        std::int64_t start, std::int64_t end);

  void on_propose(m2::core::Time t, m2::NodeId n,
                  const m2::core::Command& c) override;
  void on_decided(m2::core::Time t, m2::NodeId n, m2::core::ObjectId,
                  m2::core::Instance, const m2::core::Command& c) override;
  void on_deliver(m2::core::Time t, m2::NodeId n,
                  const m2::core::Command& c) override;
  void on_committed(m2::core::Time t, m2::NodeId n,
                    const m2::core::Command& c) override;

  struct Summary {
    std::vector<double> commit_us;      // due -> commit at the proposer
    std::vector<double> decide_remote_us;  // propose -> decided, other nodes
    std::vector<double> deliver_lag_us;    // commit -> deliver at proposer
  };
  Summary summarize() const;

  /// Writes the spans of the first `max_commands` traced commands as
  /// Chrome trace-event JSON. Returns false if the file cannot be written.
  bool write(const std::string& path, std::uint64_t max_commands) const;

 private:
  static constexpr int kMaxNodes = 8;
  struct Rec {
    std::atomic<std::int64_t> due{0};
    std::atomic<std::int64_t> propose{0};
    std::atomic<std::int64_t> call_end{0};
    std::atomic<std::int64_t> commit{0};
    std::atomic<std::int64_t> deliver{0};
    std::atomic<std::int64_t> decided[kMaxNodes] = {};
  };
  Rec* rec(const m2::core::Command& c);
  Rec* rec(m2::NodeId node, std::uint64_t seq);

  int nodes_;
  std::uint64_t per_node_;
  std::unique_ptr<Rec[]> recs_;
};

// --- workloads -------------------------------------------------------------

/// The m2paxos.* ratios from a merged M²Paxos registry, per `commits`.
void add_m2paxos_metrics(const m2::stats::MetricsRegistry& registry,
                         double commits, Report& report);

/// Runtime workloads "fast-path" and "tpcc-remote".
void run_runtime_workload(const Options& opt, Report& report);
/// Simulator workload "sim-fig1".
void run_sim_workload(const Options& opt, Report& report);

}  // namespace m2perf
