#pragma once

// Shared plumbing for the figure-reproduction benches. Each bench binary
// regenerates one figure of the paper: it sweeps the figure's x-axis,
// runs the four protocols through the simulated cluster, and prints the
// series as a table plus a short comparison against the paper's claims.
//
// Scale note: set M2_BENCH_QUICK=1 in the environment to shrink windows
// and node counts for smoke runs.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "workload/synthetic.hpp"
#include "workload/tpcc.hpp"

namespace m2::bench {

/// Wall-clock self-timing for the benches: measures real elapsed seconds
/// (simulated time is free; what the perf trajectory tracks is how fast the
/// simulator itself runs on the host).
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  double elapsed_seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Minimal JSON emitter for bench result files (BENCH_*.json). Flat or
/// one-level-nested objects of numbers/strings are all the benches need;
/// nothing here escapes exotic strings, so keep keys and values simple.
class JsonWriter {
 public:
  void number(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    fields_.emplace_back(key, buf);
  }
  void integer(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void string(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + value + "\"");
  }
  void object(const std::string& key, const JsonWriter& nested) {
    fields_.emplace_back(key, nested.str());
  }

  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

  /// Writes the document to `path`; returns false (and warns) on failure.
  bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    const std::string doc = str() + "\n";
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    return true;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

inline bool quick_mode() {
  const char* env = std::getenv("M2_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

/// Node counts for the scalability sweeps (paper: 3..49).
inline std::vector<int> node_counts() {
  if (quick_mode()) return {3, 7, 11};
  return {3, 5, 7, 11, 25, 49};
}

/// Measurement windows (simulated time). Large deployments use shorter
/// windows: the event volume per simulated second grows with N, while the
/// per-window sample count stays in the tens of thousands either way.
inline sim::Time warmup(int n = 0) {
  if (quick_mode()) return 10 * sim::kMillisecond;
  return (n >= 25 ? 10 : 30) * sim::kMillisecond;
}
inline sim::Time measure(int n = 0) {
  if (quick_mode()) return 20 * sim::kMillisecond;
  return (n >= 25 ? 20 : 80) * sim::kMillisecond;
}

/// Baseline experiment config matching the paper's testbed defaults.
inline harness::ExperimentConfig base_config(core::Protocol p, int n,
                                             std::uint64_t seed = 1) {
  auto cfg = harness::default_config(p, n, seed);
  cfg.warmup = warmup(n);
  cfg.measure = measure(n);
  return cfg;
}

/// Offered-load levels for saturation searches.
inline std::vector<int> saturation_levels(int n = 0) {
  if (quick_mode()) return {32};
  if (n >= 25) return {16, 96};
  return {16, 64, 160};
}

inline std::string fmt_kcps(double v) { return harness::Table::kcps(v); }
inline std::string fmt_ms(double ns) {
  return harness::Table::num(ns / 1e6, 2) + "ms";
}
inline std::string fmt_us(double ns) {
  return harness::Table::num(ns / 1e3, 0) + "us";
}

/// Prints the "who wins / by how much" line the paper's text claims, so
/// EXPERIMENTS.md can quote paper-vs-measured directly.
inline void print_speedup(const std::string& what, double m2paxos,
                          double competitor, const std::string& versus) {
  std::printf("%s: M2Paxos/%s = %.2fx\n", what.c_str(), versus.c_str(),
              competitor > 0 ? m2paxos / competitor : 0.0);
}

}  // namespace m2::bench
