#pragma once

/// \file
/// Internal: the one mapping from the public cluster recipe (m2::Config)
/// to the threaded runtime's configuration. ClusterBuilder and both m2node
/// modes build their runtime::Runtime through it.

#include "m2/config.hpp"
#include "runtime/runtime.hpp"

namespace m2 {

/// The runtime configuration `cfg` describes: its cluster size (nodes, or
/// addresses.size() under Backend::kTcp), protocol knobs, seed, and the
/// initial ownership map (contiguous ranges of objects_per_node, or
/// modulo N when objects_per_node is 0).
runtime::RuntimeConfig to_runtime_config(const Config& cfg);

}  // namespace m2
