#include <dirent.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>

#include "common.hpp"

// ---------------------------------------------------------------------------
// Allocation counting: a global operator-new hook for the whole process.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace m2perf {

// --- metric catalog --------------------------------------------------------

const std::vector<MetricDef>& metric_catalog() {
  static const std::vector<MetricDef> catalog = {
      // End to end (untraced runs).
      {"setup_s", "s", true},
      {"peak_rss_mb", "MB", true},
      {"cpu_us_per_cmd", "us", true},
      // runtime: node loop, inbox, loopback transport.
      {"runtime.committed_per_wall_s", "cmds/s", false},
      {"runtime.commit_p50_us", "us", false},
      {"runtime.commit_p90_us", "us", false},
      {"runtime.propose_ns", "ns", false},
      {"runtime.node_busy_frac", "ratio", false},
      {"runtime.ctx_switches_per_cmd", "count", false},
      {"runtime.msgs_per_cmd", "count", false},
      {"runtime.bytes_per_cmd", "bytes", false},
      {"runtime.drain_ms", "ms", false},
      {"runtime.tx_dropped", "count", false},
      {"runtime.decode_failures", "count", false},
      {"runtime.undelivered", "count", false},
      // net: serde and the modelled network.
      {"net.encode_ns", "ns", false},
      {"net.decode_ns", "ns", false},
      {"net.msgs_per_cmd", "count", false},
      {"net.bytes_per_cmd", "bytes", false},
      // m2paxos: the protocol's own registry.
      {"m2paxos.batch_occupancy", "cmds", false},
      {"m2paxos.flush_window_frac", "ratio", false},
      {"m2paxos.fast_frac", "ratio", false},
      {"m2paxos.forwarded_frac", "ratio", false},
      {"m2paxos.acquisitions_per_kcmd", "count", false},
      {"m2paxos.nacks_per_kcmd", "count", false},
      {"m2paxos.timeouts_per_kcmd", "count", false},
      {"m2paxos.repair_rounds_per_kcmd", "count", false},
      {"m2paxos.fallbacks_per_kcmd", "count", false},
      {"m2paxos.acquisition_p50_us", "us", false},
      {"m2paxos.deliver_slow_p99_us", "us", false},
      {"m2paxos.wall_s", "s", false},
      {"m2paxos.virt_committed_per_s", "cmds/s", false},
      {"m2paxos.virt_commit_p50_us", "us", false},
      {"m2paxos.virt_commit_p99_us", "us", false},
      // process.
      {"process.allocs_per_cmd", "count", false},
      // sim kernel.
      {"sim.committed_per_wall_s", "cmds/s", false},
      {"sim.events_per_cmd", "count", false},
      {"sim.events_per_wall_s", "1/s", false},
      {"sim.cpu_util", "ratio", false},
      // workload generator and harness clients.
      {"workload.next_ns", "ns", false},
      {"harness.skipped_frac", "ratio", false},
      // The other three protocols of the Fig. 1 point.
      {"multipaxos.wall_s", "s", false},
      {"multipaxos.msgs_per_cmd", "count", false},
      {"multipaxos.virt_committed_per_s", "cmds/s", false},
      {"epaxos.wall_s", "s", false},
      {"epaxos.msgs_per_cmd", "count", false},
      {"epaxos.dep_bytes_per_cmd", "bytes", false},
      {"epaxos.virt_committed_per_s", "cmds/s", false},
      {"genpaxos.wall_s", "s", false},
      {"genpaxos.msgs_per_cmd", "count", false},
      {"genpaxos.virt_committed_per_s", "cmds/s", false},
      // Spans of the traced pass.
      {"trace.commit_p99_us", "us", false},
      {"trace.commit_p999_us", "us", false},
      {"trace.decide_remote_p50_us", "us", false},
      {"trace.deliver_lag_p99_us", "us", false},
      {"trace.overhead_frac", "ratio", false},
      // The benchmark's own load generator (validity).
      {"bench.gen_late_p99_us", "us", false},
      {"bench.driver_busy_frac", "ratio", false},
  };
  return catalog;
}

namespace {
const MetricDef* lookup(const std::string& name) {
  for (const MetricDef& d : metric_catalog())
    if (name == d.name) return &d;
  return nullptr;
}
}  // namespace

void Report::add(const std::string& name, double value, std::string base) {
  if (lookup(name) == nullptr) {
    fail("internal: metric " + name + " is not in the catalog");
    return;
  }
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not a finite number");
    value = 0;
  }
  for (Entry& e : entries_) {
    if (e.name == name) {
      e = {name, value, std::move(base)};
      return;
    }
  }
  entries_.push_back({name, value, std::move(base)});
}

void Report::fail(std::string why) { failures_.push_back(std::move(why)); }

const Report::Entry* Report::find(const std::string& name) const {
  for (const Entry& e : entries_)
    if (e.name == name) return &e;
  return nullptr;
}

void Report::print_table(std::FILE* out) const {
  for (const Entry& e : entries_) {
    std::fprintf(out, "  %-34s %14.6g %-7s %s\n", e.name.c_str(), e.value,
                 lookup(e.name)->unit, e.base.c_str());
  }
  std::fprintf(out, "  %-34s %14.6g %-7s %s\n", "failed_frac",
               safe_div(static_cast<double>(failed),
                        static_cast<double>(attempted)),
               "ratio",
               ratio_base("failed", static_cast<double>(failed), "attempted",
                          static_cast<double>(attempted))
                   .c_str());
  for (const std::string& f : failures_)
    std::fprintf(out, "  CHECK FAILED: %s\n", f.c_str());
}

std::string Report::json(bool trace) const {
  std::ostringstream os;
  os.precision(10);
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : metric_catalog()) {
    if (d.end_to_end == trace) continue;
    const Entry* e = find(d.name);
    os << (first ? "" : ", ") << "\"" << d.name
       << "\": {\"value\": " << (e != nullptr ? e->value : 0.0)
       << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string human(double v) {
  char buf[32];
  const double a = std::fabs(v);
  if (a >= 1e9) std::snprintf(buf, sizeof buf, "%.3gG", v / 1e9);
  else if (a >= 1e6) std::snprintf(buf, sizeof buf, "%.3gM", v / 1e6);
  else if (a >= 1e3) std::snprintf(buf, sizeof buf, "%.3gk", v / 1e3);
  else std::snprintf(buf, sizeof buf, "%.3g", v);
  return buf;
}

std::string ratio_base(const char* num_name, double num, const char* den_name,
                       double den) {
  return std::string(num_name) + " " + human(num) + " / " + den_name + " " +
         human(den);
}

double safe_div(double num, double den) { return den == 0 ? 0 : num / den; }

// --- process probes --------------------------------------------------------

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

namespace {
/// Value of a "Key:   123 kB" line of a /proc status file (0 if absent).
double status_field(const std::string& path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0 && line.size() > len &&
        line[len] == ':')
      return std::strtod(line.c_str() + len + 1, nullptr);
  }
  return 0;
}
}  // namespace

double rss_mb() { return status_field("/proc/self/status", "VmRSS") / 1024.0; }
double peak_rss_mb() {
  return status_field("/proc/self/status", "VmHWM") / 1024.0;
}

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t threads_cpu_ns(const std::vector<int>& tids) {
  std::int64_t total = 0;
  for (const int tid : tids) {
    // The kernel's per-thread CPU clock id for `tid` (what
    // pthread_getcpuclockid returns): exact up to the call, unlike
    // /proc/<tid>/schedstat, which lags a running thread by up to a tick.
    const auto clock = static_cast<clockid_t>((~tid << 3) | 4 | 2);
    timespec ts{};
    if (clock_gettime(clock, &ts) == 0)
      total +=
          static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }
  return total;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus_) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[at_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

std::vector<int> task_ids() {
  std::vector<int> tids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* ent = readdir(dir)) {
      if (ent->d_name[0] != '.') tids.push_back(std::atoi(ent->d_name));
    }
    closedir(dir);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::uint64_t voluntary_switches(const std::vector<int>& tids) {
  std::uint64_t n = 0;
  for (const int tid : tids) {
    const std::string dir = "/proc/self/task/" + std::to_string(tid);
    n += static_cast<std::uint64_t>(
        status_field(dir + "/status", "voluntary_ctxt_switches"));
  }
  return n;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void wait_until(std::int64_t t) {
  // Sleep while the target is far; spin the last stretch so the wake-up
  // latency of the sleep does not make the generator late.
  constexpr std::int64_t kSpin = 60'000;
  std::int64_t now = now_ns();
  if (t - now > kSpin) {
    const std::int64_t wake = t - kSpin;
    const timespec ts{static_cast<time_t>(wake / 1'000'000'000),
                      static_cast<long>(wake % 1'000'000'000)};
    clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
  }
  while (now_ns() < t) {
  }
}

// --- tracing ---------------------------------------------------------------

SpanTracer::SpanTracer(int nodes, std::uint64_t per_node)
    : nodes_(std::min(nodes, kMaxNodes)),
      per_node_(per_node),
      recs_(new Rec[static_cast<std::size_t>(nodes_) * per_node]) {}

SpanTracer::Rec* SpanTracer::rec(m2::NodeId node, std::uint64_t seq) {
  // Generated commands number their sequence from 1 per proposer.
  if (node >= static_cast<m2::NodeId>(nodes_) || seq == 0 || seq > per_node_)
    return nullptr;
  return &recs_[node * per_node_ + (seq - 1)];
}

SpanTracer::Rec* SpanTracer::rec(const m2::core::Command& c) {
  return rec(c.id.proposer(), c.id.seq());
}

namespace {
/// First write wins: node threads may report the same event twice.
void set_once(std::atomic<std::int64_t>& slot, std::int64_t t) {
  std::int64_t expected = 0;
  slot.compare_exchange_strong(expected, t, std::memory_order_relaxed);
}
}  // namespace

void SpanTracer::set_due(m2::NodeId node, std::uint64_t seq, std::int64_t t) {
  if (Rec* r = rec(node, seq)) r->due.store(t, std::memory_order_relaxed);
}

void SpanTracer::set_propose_call(m2::NodeId node, std::uint64_t seq,
                                  std::int64_t start, std::int64_t end) {
  if (Rec* r = rec(node, seq)) {
    set_once(r->propose, start);
    r->call_end.store(end, std::memory_order_relaxed);
  }
}

void SpanTracer::on_propose(m2::core::Time t, m2::NodeId,
                            const m2::core::Command& c) {
  if (Rec* r = rec(c)) set_once(r->propose, t);
}

void SpanTracer::on_decided(m2::core::Time t, m2::NodeId n,
                            m2::core::ObjectId, m2::core::Instance,
                            const m2::core::Command& c) {
  Rec* r = rec(c);
  if (r != nullptr && n < static_cast<m2::NodeId>(nodes_))
    set_once(r->decided[n], t);
}

void SpanTracer::on_deliver(m2::core::Time t, m2::NodeId n,
                            const m2::core::Command& c) {
  if (n != c.id.proposer()) return;
  if (Rec* r = rec(c)) set_once(r->deliver, t);
}

void SpanTracer::on_committed(m2::core::Time t, m2::NodeId,
                              const m2::core::Command& c) {
  if (Rec* r = rec(c)) set_once(r->commit, t);
}

SpanTracer::Summary SpanTracer::summarize() const {
  Summary s;
  const auto load = [](const std::atomic<std::int64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  for (int node = 0; node < nodes_; ++node) {
    for (std::uint64_t i = 0; i < per_node_; ++i) {
      const Rec& r = recs_[static_cast<std::uint64_t>(node) * per_node_ + i];
      const std::int64_t propose = load(r.propose);
      if (propose == 0) continue;
      const std::int64_t start = load(r.due) != 0 ? load(r.due) : propose;
      const std::int64_t commit = load(r.commit);
      if (commit != 0) s.commit_us.push_back((commit - start) / 1e3);
      for (int m = 0; m < nodes_; ++m) {
        const std::int64_t d = load(r.decided[m]);
        if (m != node && d != 0)
          s.decide_remote_us.push_back((d - propose) / 1e3);
      }
      const std::int64_t deliver = load(r.deliver);
      if (commit != 0 && deliver != 0)
        s.deliver_lag_us.push_back((deliver - commit) / 1e3);
    }
  }
  return s;
}

bool SpanTracer::write(const std::string& path,
                       std::uint64_t max_commands) const {
  std::ofstream out(path);
  if (!out) return false;
  const auto load = [](const std::atomic<std::int64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  out << "{\"traceEvents\": [\n";
  bool first = true;
  const auto span = [&](const char* name, int node, std::uint64_t id,
                        std::int64_t start, std::int64_t end) {
    if (start == 0 || end == 0 || end < start) return;
    out << (first ? "" : ",\n") << "{\"name\": \"" << name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << node
        << ", \"ts\": " << start / 1e3 << ", \"dur\": " << (end - start) / 1e3
        << ", \"args\": {\"cmd\": " << id << "}}";
    first = false;
  };
  const std::uint64_t per_node =
      std::min(per_node_, max_commands / static_cast<std::uint64_t>(nodes_));
  for (int node = 0; node < nodes_; ++node) {
    for (std::uint64_t i = 0; i < per_node; ++i) {
      const Rec& r = recs_[static_cast<std::uint64_t>(node) * per_node_ + i];
      const std::uint64_t id =
          m2::core::CommandId::make(static_cast<m2::NodeId>(node), i + 1)
              .value;
      const std::int64_t propose = load(r.propose);
      const std::int64_t start = load(r.due) != 0 ? load(r.due) : propose;
      span("propose", node, id, propose, load(r.call_end));
      span("commit", node, id, start, load(r.commit));
      for (int m = 0; m < nodes_; ++m)
        span("decide", m, id, propose, load(r.decided[m]));
      span("deliver", node, id, load(r.commit), load(r.deliver));
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace m2perf
