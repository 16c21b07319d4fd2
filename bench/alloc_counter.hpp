#pragma once

// Self-timing for the micro benches: heap allocations and wall-clock time.

#include <chrono>
#include <cstdint>

namespace m2::bench {

/// Global operator-new calls since process start. Linking alloc_counter.cpp
/// replaces the global operator new/delete with counting versions; they
/// live in their own translation unit, so callers see opaque calls and the
/// compiler never pairs an inlined free() with the standard operator new.
std::uint64_t allocations();

/// Real elapsed seconds since construction (simulated time is free; what
/// the perf trajectory tracks is how fast the code runs on the host).
class WallTimer {
 public:
  double elapsed_seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_ = clock::now();
};

}  // namespace m2::bench
