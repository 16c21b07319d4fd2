#pragma once

#include <cstdint>

namespace m2::bench {

/// Global operator-new calls since process start. Linking alloc_counter.cpp
/// replaces the global operator new/delete with counting versions; they
/// live in their own translation unit, so callers see opaque calls and the
/// compiler never pairs an inlined free() with the standard operator new.
std::uint64_t allocations();

}  // namespace m2::bench
