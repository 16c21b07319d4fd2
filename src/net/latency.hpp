#pragma once

#include <cstdint>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace m2::net {

/// Parameters of the point-to-point latency model.
///
/// One-way delay of a transmission of `bytes` is
///     propagation + bytes * 8 / bandwidth + jitter
/// where jitter is lognormally distributed around 1 (heavy-tailed, as
/// datacenter RTT distributions are). Defaults approximate the paper's
/// testbed: EC2 c3.4xlarge in one placement group, ~10 GbE, ~200 µs RTT.
struct LatencyConfig {
  sim::Time propagation = 90 * sim::kMicrosecond;  // one-way base
  double bandwidth_gbps = 7.9;                     // paper: "in excess of 7900mbps"
  double jitter_sigma = 0.15;                      // lognormal sigma
  sim::Time jitter_floor = 0;                      // added after sampling
};

/// Samples one-way network delays.
class LatencyModel {
 public:
  explicit LatencyModel(LatencyConfig cfg) : cfg_(cfg) {}

  /// One-way delay for a transmission of `bytes`, sampled with `rng`, its
  /// propagation component multiplied by `scale` (a latency spike).
  sim::Time one_way(std::size_t bytes, sim::Rng& rng,
                    double scale = 1.0) const;

  /// Pure serialization time of `bytes` at the configured bandwidth.
  sim::Time serialization(std::size_t bytes) const;

  const LatencyConfig& config() const { return cfg_; }

 private:
  LatencyConfig cfg_;
};

}  // namespace m2::net
