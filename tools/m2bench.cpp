// m2bench — command-line experiment runner.
//
// Runs one simulated-cluster experiment with everything configurable from
// flags and prints a single result row (or CSV with --csv for scripting).
//
//   m2bench --protocol m2paxos --nodes 11 --locality 90 --clients 64
//   m2bench --protocol epaxos --tpcc --nodes 5 --remote 15 --csv
//   m2bench --protocol multipaxos --nodes 49 --no-batching --measure-ms 200
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "harness/experiment.hpp"
#include "stats/export.hpp"
#include "workload/synthetic.hpp"
#include "workload/tpcc.hpp"

using namespace m2;

namespace {

struct Options {
  core::Protocol protocol = core::Protocol::kM2Paxos;
  int nodes = 5;
  int cores = 16;
  bool tpcc = false;
  double locality = 1.0;
  double complex_fraction = 0.0;
  double zipf_theta = 0.0;
  double remote_warehouse = 0.0;
  std::uint64_t objects_per_node = 1000;
  int clients = 64;
  int inflight = 64;
  long think_us = 0;
  long warmup_ms = 30;
  long measure_ms = 80;
  std::uint64_t seed = 1;
  bool batching = true;
  double loss = 0.0;
  bool csv = false;
  bool json = false;
  bool metrics = true;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [flags]\n"
      "  --protocol multipaxos|genpaxos|epaxos|m2paxos   (default m2paxos)\n"
      "  --nodes N            cluster size            (default 5)\n"
      "  --cores N            cores per node          (default 16)\n"
      "  --tpcc               TPC-C workload instead of synthetic\n"
      "  --remote PCT         TPC-C: %% remote home warehouse\n"
      "  --locality PCT       synthetic: %% local commands (default 100)\n"
      "  --complex PCT        synthetic: %% complex commands\n"
      "  --zipf THETA         synthetic: Zipfian skew in [0,1)\n"
      "  --objects N          synthetic: objects per node (default 1000)\n"
      "  --clients N          client threads per node  (default 64)\n"
      "  --inflight N         in-flight cap per node   (default 64)\n"
      "  --think-us US        client think time\n"
      "  --warmup-ms MS       warm-up window           (default 30)\n"
      "  --measure-ms MS      measurement window       (default 80)\n"
      "  --seed S             RNG seed                 (default 1)\n"
      "  --loss P             message drop probability\n"
      "  --no-batching        disable network batching\n"
      "  --no-metrics         disable the metrics registries (overhead A/B)\n"
      "  --csv                machine-readable output\n"
      "  --json               m2bench-v1 JSON document on stdout\n",
      argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--protocol") {
      const auto p = core::parse_protocol(need_value(i));
      if (!p) usage(argv[0]);
      opt.protocol = *p;
    } else if (flag == "--nodes") {
      opt.nodes = std::atoi(need_value(i));
    } else if (flag == "--cores") {
      opt.cores = std::atoi(need_value(i));
    } else if (flag == "--tpcc") {
      opt.tpcc = true;
    } else if (flag == "--remote") {
      opt.remote_warehouse = std::atof(need_value(i)) / 100.0;
    } else if (flag == "--locality") {
      opt.locality = std::atof(need_value(i)) / 100.0;
    } else if (flag == "--complex") {
      opt.complex_fraction = std::atof(need_value(i)) / 100.0;
    } else if (flag == "--zipf") {
      opt.zipf_theta = std::atof(need_value(i));
    } else if (flag == "--objects") {
      opt.objects_per_node = std::strtoull(need_value(i), nullptr, 10);
    } else if (flag == "--clients") {
      opt.clients = std::atoi(need_value(i));
    } else if (flag == "--inflight") {
      opt.inflight = std::atoi(need_value(i));
    } else if (flag == "--think-us") {
      opt.think_us = std::atol(need_value(i));
    } else if (flag == "--warmup-ms") {
      opt.warmup_ms = std::atol(need_value(i));
    } else if (flag == "--measure-ms") {
      opt.measure_ms = std::atol(need_value(i));
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(need_value(i), nullptr, 10);
    } else if (flag == "--loss") {
      opt.loss = std::atof(need_value(i));
    } else if (flag == "--no-batching") {
      opt.batching = false;
    } else if (flag == "--no-metrics") {
      opt.metrics = false;
    } else if (flag == "--csv") {
      opt.csv = true;
    } else if (flag == "--json") {
      opt.json = true;
    } else {
      usage(argv[0]);
    }
  }
  if (opt.nodes < 1 || opt.clients < 0 || opt.inflight < 1) usage(argv[0]);
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  harness::ExperimentConfig cfg;
  cfg.protocol = opt.protocol;
  cfg.cluster.n_nodes = opt.nodes;
  cfg.cluster.cores_per_node = opt.cores;
  cfg.network.batching = opt.batching;
  cfg.network.loss_probability = opt.loss;
  cfg.load.clients_per_node = opt.clients;
  cfg.load.max_inflight_per_node = opt.inflight;
  cfg.load.think_time = opt.think_us * sim::kMicrosecond;
  cfg.warmup = opt.warmup_ms * sim::kMillisecond;
  cfg.measure = opt.measure_ms * sim::kMillisecond;
  cfg.seed = opt.seed;
  cfg.cluster.metrics.enabled = opt.metrics;

  std::unique_ptr<wl::Workload> workload;
  if (opt.tpcc) {
    workload = std::make_unique<wl::TpccWorkload>(
        wl::TpccConfig{opt.nodes, 10, opt.remote_warehouse, opt.seed});
  } else {
    wl::SyntheticConfig wcfg{opt.nodes,    opt.objects_per_node,
                             opt.locality, opt.complex_fraction,
                             16,           opt.seed};
    wcfg.zipf_theta = opt.zipf_theta;
    workload = std::make_unique<wl::SyntheticWorkload>(wcfg);
  }

  const auto r = harness::run_experiment(cfg, *workload);

  const double med_us = static_cast<double>(r.commit_latency.median()) / 1e3;
  const double p99_us =
      static_cast<double>(r.commit_latency.quantile(0.99)) / 1e3;
  if (opt.json) {
    stats::Json results = stats::Json::object();
    results.set("throughput_per_sec", r.committed_per_sec);
    results.set("latency_median_us", med_us);
    results.set("latency_p99_us", p99_us);
    results.set("bytes_per_command", r.bytes_per_command);
    results.set("msgs_per_command",
                r.committed > 0
                    ? static_cast<double>(r.traffic.messages_sent) /
                          static_cast<double>(r.committed)
                    : 0.0);
    results.set("cpu_utilization", r.avg_cpu_utilization);
    results.set("committed", r.committed);
    results.set("proposals", r.proposals);
    results.set("skipped", r.skipped);

    stats::Json doc = stats::make_bench_doc("m2bench", false);
    doc.set("protocol", core::to_string(opt.protocol));
    doc.set("nodes", opt.nodes);
    doc.set("workload", opt.tpcc ? "tpcc" : "synthetic");
    doc.set("seed", opt.seed);
    doc.set("results", std::move(results));
    doc.set("metrics", stats::export_registry(r.metrics));
    std::fputs(doc.dump(2).c_str(), stdout);
  } else if (opt.csv) {
    std::printf(
        "protocol,nodes,throughput_cps,median_us,p99_us,bytes_per_cmd,"
        "msgs_per_cmd,cpu_util\n");
    std::printf("%s,%d,%.0f,%.1f,%.1f,%.0f,%.2f,%.3f\n",
                core::to_string(opt.protocol).c_str(), opt.nodes,
                r.committed_per_sec, med_us, p99_us, r.bytes_per_command,
                r.committed > 0 ? static_cast<double>(r.traffic.messages_sent) /
                                      static_cast<double>(r.committed)
                                : 0.0,
                r.avg_cpu_utilization);
  } else {
    std::printf("%s on %d nodes (%s)\n",
                core::to_string(opt.protocol).c_str(), opt.nodes,
                opt.tpcc ? "TPC-C" : "synthetic");
    std::printf("  throughput  : %.0f cmds/s\n", r.committed_per_sec);
    std::printf("  latency     : median %.0f us, p99 %.0f us\n", med_us, p99_us);
    std::printf("  network     : %.0f bytes/cmd, %.1f msgs/cmd\n",
                r.bytes_per_command,
                r.committed > 0 ? static_cast<double>(r.traffic.messages_sent) /
                                      static_cast<double>(r.committed)
                                : 0.0);
    std::printf("  cpu         : %.1f%% average utilization\n",
                r.avg_cpu_utilization * 100.0);
    std::printf("  committed   : %llu commands (%llu skipped at cap)\n",
                static_cast<unsigned long long>(r.committed),
                static_cast<unsigned long long>(r.skipped));
  }
  return 0;
}
