#pragma once

#include "fuzz/fuzzer.hpp"

namespace m2::runtime {

/// Executes one fault case on a real-clock cluster (c.backend kLoopback or
/// kTcp; see fuzz::Case). kLoopback: one in-process cluster over
/// ChaosTransport(Loopback). kTcp: one Runtime per node, each over
/// ChaosTransport(TcpTransport) on 127.0.0.1 with ephemeral ports — real
/// sockets, real reconnects. Applies the fault schedule at real-time
/// offsets while proposing an open-loop workload, calms every fault,
/// drains, stops, and audits the full trace with the SafetyAuditor.
fuzz::Result run_case(const fuzz::Case& c);

}  // namespace m2::runtime
