#include "net/latency.hpp"

#include <algorithm>
#include <cmath>

namespace m2::net {

sim::Time LatencyModel::serialization(std::size_t bytes) const {
  const double bits = static_cast<double>(bytes) * 8.0;
  const double seconds = bits / (cfg_.bandwidth_gbps * 1e9);
  return static_cast<sim::Time>(seconds * static_cast<double>(sim::kSecond));
}

sim::Time LatencyModel::one_way(std::size_t bytes, sim::Rng& rng,
                                double scale) const {
  const double jitter =
      cfg_.jitter_sigma > 0 ? rng.lognormal(1.0, cfg_.jitter_sigma) : 1.0;
  const auto base = static_cast<sim::Time>(
      static_cast<double>(cfg_.propagation) * jitter * scale);
  return std::max<sim::Time>(cfg_.jitter_floor, base) + serialization(bytes);
}

}  // namespace m2::net
