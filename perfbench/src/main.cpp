// m2perf — the repository's end-to-end benchmark (see ../README.md).
//
//   m2perf --workload fast-path|tpcc-remote|sim-fig1 --seed N
//          --seconds S --trace 0|1 [--trace-dir DIR]
//
// Prints every metric by name with its unit and the base of each ratio,
// then, as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when a correctness check fails, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace {

bool parse(int argc, char** argv, m2perf::Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      opt->workload = v;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      opt->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--trace-dir") {
      opt->trace_dir = v;
    } else if (flag == "--inject-uncommitted") {
      opt->inject_uncommitted = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return opt->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  m2perf::Options opt;
  if (!parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: m2perf --workload fast-path|tpcc-remote|sim-fig1 "
                 "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n");
    return 2;
  }

  m2perf::Report report;
  if (opt.workload == "fast-path" || opt.workload == "tpcc-remote") {
    m2perf::run_runtime_workload(opt, report);
  } else if (opt.workload == "sim-fig1") {
    m2perf::run_sim_workload(opt, report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }

  std::printf("%s seed %llu (%s run):\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "untraced");
  report.print_table(stdout);
  std::printf("%s\n", report.json(opt.trace).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
