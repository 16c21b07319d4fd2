// m2node — one consensus node (or a whole cluster) on the threaded
// real-transport runtime.
//
// Serve mode: run this process' share of a TCP cluster described by a JSON
// spec (see m2::Config::parse). Every participating process gets the same
// spec and serves its own node id(s):
//
//   m2node --spec cluster.json --node 0 [--load 64] [--duration-ms 5000]
//
// Loopback bench mode: all nodes in-process over the loopback transport,
// an open-loop driver keeping --inflight proposals outstanding per node on
// owned objects (the M²Paxos fast path), exporting an m2bench-v1 JSON
// document. The CI throughput gate runs this with --min-throughput.
//
//   m2node --loopback --protocol m2paxos --nodes 5 --measure-ms 1000
//          --json BENCH_runtime.json --min-throughput 50000
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "m2/runtime_config.hpp"
#include "runtime/tcp_transport.hpp"
#include "stats/export.hpp"

using namespace m2;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

struct Options {
  // Common.
  std::string spec_path;
  std::string json_path;
  std::uint64_t seed = 1;
  bool audit = false;

  // Serve mode.
  std::vector<NodeId> local_nodes;
  int load_inflight = 0;     // 0 = passive replica
  long duration_ms = 0;      // 0 = until SIGINT/SIGTERM

  // Loopback bench mode.
  bool loopback = false;
  core::Protocol protocol = core::Protocol::kM2Paxos;
  int nodes = 5;
  std::uint64_t objects = 1024;
  int inflight = 64;
  long warmup_ms = 200;
  long measure_ms = 1000;
  bool batching = true;
  double min_throughput = 0;
};

void usage() {
  std::fprintf(
      stderr,
      "m2node — threaded real-transport consensus node\n\n"
      "Serve a TCP cluster node:\n"
      "  m2node --spec FILE --node I [--node J ...]\n"
      "    --load N         keep N self-proposals in flight per local node\n"
      "    --duration-ms MS exit after MS (default: until SIGINT)\n\n"
      "All-local loopback benchmark:\n"
      "  m2node --loopback [--protocol m2paxos] [--nodes 5]\n"
      "    --objects N        owned objects per node    (default 1024)\n"
      "    --inflight N       proposals in flight/node  (default 64)\n"
      "    --warmup-ms MS     warm-up window            (default 200)\n"
      "    --measure-ms MS    measurement window        (default 1000)\n"
      "    --no-batching      disable command batching\n"
      "    --min-throughput X fail (exit 1) below X committed/sec\n"
      "    --audit            collect C-structs and audit consistency\n\n"
      "Common:\n"
      "    --seed S           run seed (default 1)\n"
      "    --json FILE        write an m2bench-v1 document\n");
}

bool parse_args(int argc, char** argv, Options* opt) {
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* v = nullptr;
    if (flag == "--spec") {
      if ((v = need(i)) == nullptr) return false;
      opt->spec_path = v;
    } else if (flag == "--node") {
      if ((v = need(i)) == nullptr) return false;
      opt->local_nodes.push_back(static_cast<NodeId>(std::atoi(v)));
    } else if (flag == "--load") {
      if ((v = need(i)) == nullptr) return false;
      opt->load_inflight = std::atoi(v);
    } else if (flag == "--duration-ms") {
      if ((v = need(i)) == nullptr) return false;
      opt->duration_ms = std::atol(v);
    } else if (flag == "--loopback") {
      opt->loopback = true;
    } else if (flag == "--protocol") {
      if ((v = need(i)) == nullptr) return false;
      const auto p = core::parse_protocol(v);
      if (!p) {
        std::fprintf(stderr, "unknown protocol %s\n", v);
        return false;
      }
      opt->protocol = *p;
    } else if (flag == "--nodes") {
      if ((v = need(i)) == nullptr) return false;
      opt->nodes = std::atoi(v);
    } else if (flag == "--objects") {
      if ((v = need(i)) == nullptr) return false;
      opt->objects = static_cast<std::uint64_t>(std::atoll(v));
    } else if (flag == "--inflight") {
      if ((v = need(i)) == nullptr) return false;
      opt->inflight = std::atoi(v);
    } else if (flag == "--warmup-ms") {
      if ((v = need(i)) == nullptr) return false;
      opt->warmup_ms = std::atol(v);
    } else if (flag == "--measure-ms") {
      if ((v = need(i)) == nullptr) return false;
      opt->measure_ms = std::atol(v);
    } else if (flag == "--no-batching") {
      opt->batching = false;
    } else if (flag == "--min-throughput") {
      if ((v = need(i)) == nullptr) return false;
      opt->min_throughput = std::atof(v);
    } else if (flag == "--audit") {
      opt->audit = true;
    } else if (flag == "--seed") {
      if ((v = need(i)) == nullptr) return false;
      opt->seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (flag == "--json") {
      if ((v = need(i)) == nullptr) return false;
      opt->json_path = v;
    } else if (flag == "--help" || flag == "-h") {
      usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (opt->loopback == opt->spec_path.empty()) return true;
  std::fprintf(stderr, "pick one mode: --spec FILE (serve) or --loopback\n");
  return false;
}

/// Open-loop driver against `rt`: keeps `inflight` proposals outstanding
/// per driven node, each touching one object the node owns (fast path).
/// Runs until `deadline` (runtime-clock ns) or g_stop. Returns proposals.
std::uint64_t drive(runtime::Runtime& rt, const std::vector<NodeId>& nodes,
                    std::uint64_t objects_per_node, int inflight,
                    core::Time deadline, std::uint64_t* proposed,
                    std::uint64_t committed_base) {
  const std::uint64_t cap =
      static_cast<std::uint64_t>(inflight) * nodes.size();
  std::uint64_t round = 0;
  while (!g_stop && rt.clock().now() < deadline) {
    const std::uint64_t done = committed_base + rt.committed();
    std::uint64_t outstanding = *proposed - done;
    bool progressed = false;
    while (outstanding < cap && !g_stop) {
      for (const NodeId n : nodes) {
        const core::ObjectId object =
            static_cast<core::ObjectId>(n) * objects_per_node +
            round % objects_per_node;
        core::Command c(core::CommandId::make(n, ++*proposed), {object});
        rt.propose(n, std::move(c));
        progressed = true;
      }
      ++round;
      outstanding = *proposed - (committed_base + rt.committed());
    }
    if (!progressed)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return *proposed;
}

stats::Json bench_results(const runtime::Runtime& rt, double seconds,
                          std::uint64_t committed, std::uint64_t proposed) {
  const stats::Histogram lat = rt.commit_latency();
  const auto& tc = rt.transport_counters();
  stats::Json results = stats::Json::object();
  results.set("throughput_per_sec",
              seconds > 0 ? static_cast<double>(committed) / seconds : 0.0);
  results.set("latency_median_us",
              static_cast<double>(lat.median()) / 1000.0);
  results.set("latency_p99_us",
              static_cast<double>(lat.quantile(0.99)) / 1000.0);
  results.set("committed", committed);
  results.set("proposals", proposed);
  results.set("messages_sent", tc.messages_sent.load());
  results.set("bytes_sent", tc.bytes_sent.load());
  results.set("bytes_per_command",
              committed > 0 ? static_cast<double>(tc.bytes_sent.load()) /
                                  static_cast<double>(committed)
                            : 0.0);
  results.set("decode_failures", tc.decode_failures.load());
  return results;
}

int run_loopback_bench(const Options& opt) {
  Config cfg;
  cfg.protocol = opt.protocol;
  cfg.backend = Backend::kLoopback;
  cfg.nodes = opt.nodes;
  cfg.objects_per_node = opt.objects;
  cfg.tuning.batching.enabled = opt.batching;
  cfg.seed = opt.seed;
  cfg.audit = opt.audit;

  runtime::Runtime rt(to_runtime_config(cfg));
  std::string error;
  if (!rt.start(&error)) {
    std::fprintf(stderr, "start failed: %s\n", error.c_str());
    return 1;
  }

  std::vector<NodeId> all;
  for (NodeId n = 0; n < static_cast<NodeId>(opt.nodes); ++n)
    all.push_back(n);
  std::uint64_t proposed = 0;

  // Warmup, then a clean measurement window (counters and latency reset).
  drive(rt, all, opt.objects, opt.inflight,
        rt.clock().now() + opt.warmup_ms * core::kMillisecond, &proposed, 0);
  const std::uint64_t base = rt.committed();
  rt.reset_measurement();
  const core::Time t0 = rt.clock().now();
  drive(rt, all, opt.objects, opt.inflight,
        t0 + opt.measure_ms * core::kMillisecond, &proposed, base);
  const core::Time t1 = rt.clock().now();
  const std::uint64_t committed = rt.committed();
  // Let the tail drain so the audit sees complete logs, then shut down.
  rt.await_committed(proposed - base, 2 * core::kSecond);
  rt.stop();

  const double seconds = core::to_seconds(t1 - t0);
  const double throughput =
      seconds > 0 ? static_cast<double>(committed) / seconds : 0.0;
  std::printf("%s x%d loopback: %.0f committed/sec (%llu in %.2fs), "
              "median %.0f us\n",
              core::lower_name(opt.protocol).c_str(), opt.nodes,
              throughput, static_cast<unsigned long long>(committed),
              seconds,
              static_cast<double>(rt.commit_latency().median()) / 1000.0);

  if (opt.audit) {
    const auto report = rt.audit_consistency();
    std::printf("consistency audit: %s\n",
                report.ok ? "OK" : report.violation.c_str());
    if (!report.ok) return 1;
  }

  if (!opt.json_path.empty()) {
    stats::Json doc = stats::make_bench_doc("m2node_loopback", false);
    doc.set("protocol", core::lower_name(opt.protocol));
    doc.set("nodes", opt.nodes);
    doc.set("batching", opt.batching);
    doc.set("seed", opt.seed);
    doc.set("results", bench_results(rt, seconds, committed, proposed));
    doc.set("metrics", stats::export_registry(rt.merged_metrics()));
    if (!stats::write_json_file(opt.json_path, doc)) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
      return 1;
    }
  }

  if (opt.min_throughput > 0 && throughput < opt.min_throughput) {
    std::fprintf(stderr, "FAIL: %.0f committed/sec < gate %.0f\n",
                 throughput, opt.min_throughput);
    return 1;
  }
  return 0;
}

int run_serve(const Options& opt) {
  Config cfg;
  std::string error;
  if (!Config::load(opt.spec_path, &cfg, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (opt.local_nodes.empty()) {
    std::fprintf(stderr, "serve mode needs at least one --node\n");
    return 1;
  }
  for (const NodeId n : opt.local_nodes) {
    if (n >= cfg.addresses.size()) {
      std::fprintf(stderr, "--node %u out of range (cluster has %zu)\n", n,
                   cfg.addresses.size());
      return 1;
    }
  }

  cfg.local_nodes = opt.local_nodes;
  cfg.seed = opt.seed != 1 ? opt.seed : cfg.seed;
  cfg.audit = opt.audit;
  runtime::Runtime rt(to_runtime_config(cfg),
                      std::make_unique<runtime::TcpTransport>(cfg.addresses,
                                                              cfg.transport),
                      cfg.local_nodes);
  if (!rt.start(&error)) {
    std::fprintf(stderr, "start failed: %s\n", error.c_str());
    return 1;
  }
  for (const NodeId n : cfg.local_nodes)
    std::printf("serving node %u on %s:%u\n", n,
                cfg.addresses[n].host.c_str(), cfg.addresses[n].port);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  const core::Time deadline =
      opt.duration_ms > 0 ? rt.clock().now() +
                                opt.duration_ms * core::kMillisecond
                          : core::kTimeNever;
  std::uint64_t proposed = 0;
  if (opt.load_inflight > 0) {
    drive(rt, cfg.local_nodes,
          cfg.objects_per_node > 0 ? cfg.objects_per_node : 1024,
          opt.load_inflight, deadline, &proposed, 0);
  } else {
    // Passive replica: participate until the deadline or a signal.
    while (!g_stop && rt.clock().now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const std::uint64_t committed = rt.committed();
  const double seconds = core::to_seconds(rt.clock().now());
  rt.await_committed(proposed, core::kSecond);
  rt.stop();

  std::printf("done: %llu proposed, %llu committed\n",
              static_cast<unsigned long long>(proposed),
              static_cast<unsigned long long>(committed));
  if (!opt.json_path.empty()) {
    stats::Json doc = stats::make_bench_doc("m2node_serve", false);
    doc.set("protocol", core::lower_name(cfg.protocol));
    doc.set("nodes", rt.n_nodes());
    doc.set("results", bench_results(rt, seconds, committed, proposed));
    doc.set("metrics", stats::export_registry(rt.merged_metrics()));
    if (!stats::write_json_file(opt.json_path, doc)) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) {
    usage();
    return 2;
  }
  return opt.loopback ? run_loopback_bench(opt) : run_serve(opt);
}
