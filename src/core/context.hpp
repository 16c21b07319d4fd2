#pragma once

#include <cstdint>

#include "core/command.hpp"
#include "core/event_queue.hpp"
#include "core/inline_fn.hpp"
#include "core/time.hpp"
#include "net/payload.hpp"

namespace m2::sim {
class Rng;  // xoshiro256**; definition in sim/rng.hpp
}  // namespace m2::sim

namespace m2::stats {
class MetricsRegistry;  // definition in stats/metrics.hpp
}  // namespace m2::stats

namespace m2::core {

// Timers: Context::set_timer takes a core::TimerFn (core/inline_fn.hpp:
// move-only, small-buffer, invoked at most once) and returns a
// core::TimerHandle (core/event_queue.hpp). Both backends arm timers on an
// EventQueue, the simulator on its event loop and the threaded runtime on
// each node's own queue. Replicas only store and return handles;
// kInvalidTimer is never minted, so it serves as their "no timer armed"
// sentinel.

/// Monotonic nanosecond clock. The simulator implements it with virtual
/// (event-driven) time; the threaded runtime with CLOCK_MONOTONIC rebased
/// to run start. Replicas must treat now() as opaque monotonic nanoseconds
/// and never assume it advances only at event boundaries.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual Time now() const = 0;
};

/// Environment a replica runs in — the seam between the sans-I/O protocol
/// state machines and whichever backend executes them.
///
/// Implemented by the simulation harness (harness::Cluster on top of the
/// DES), by the threaded real-clock runtime (runtime::Node), and by
/// lightweight test doubles. Replicas are sans-I/O state machines: all
/// effects go through this interface, which is what makes protocol runs
/// deterministic and replayable under the simulator and thread-confined
/// under the runtime.
///
/// Threading contract: every method is invoked from — and must only be
/// invoked from — the replica's serialization point (the simulator's
/// single thread, or the owning node thread in the runtime). Backends may
/// do thread-safe work inside (e.g. push onto another node's inbox) but
/// callers never need locks.
class Context : public Clock {
 public:
  /// Source of protocol randomness (timer jitter, backoff). Deterministic
  /// per node under both backends: seeded from the run seed and node id.
  virtual sim::Rng& rng() = 0;

  /// Queues `payload` for delivery to node `to`. Ownership of the payload
  /// is shared; the backend serializes it (runtime) or charges its
  /// wire_size() (simulator).
  virtual void send(NodeId to, net::PayloadPtr payload) = 0;

  /// Sends to every node in the cluster; `include_self` loops the message
  /// back through this node's own delivery path (not a direct call), so
  /// self-handling keeps the same reentrancy guarantees as remote
  /// handling.
  virtual void broadcast(net::PayloadPtr payload, bool include_self) = 0;

  /// One-shot timer firing `fn` no earlier than `delay` from now();
  /// returns a handle usable with cancel_timer. Timers fire at the
  /// replica's serialization point.
  virtual TimerHandle set_timer(Time delay, TimerFn fn) = 0;

  /// Cancels a pending timer. Cancelling an already-fired, already-
  /// cancelled, or kInvalidTimer handle is a harmless no-op.
  virtual void cancel_timer(TimerHandle id) = 0;

  /// Reports that this node appended `c` to its C-struct (C-DECIDE). The
  /// harness records ordering and throughput from these calls.
  virtual void deliver(const Command& c) = 0;

  /// Reports, at the proposer only and at most once per command, that the
  /// command's outcome is known (its position is agreed). This is the
  /// client-visible commit point the paper's latency numbers measure — on
  /// the M²Paxos fast path it fires after two communication delays.
  virtual void committed(const Command& c) = 0;

  // --- observation hooks (default no-op; the harness and the runtime
  // --- forward them to the cluster's ClusterObserver) --------------------

  /// Reports that this node learned the decision of consensus slot
  /// ⟨object, instance⟩. Protocols without per-object logs report their
  /// native slot key: Multi-Paxos and Generalized Paxos use object 0 with
  /// the log/sequence index, EPaxos uses (command-leader, instance).
  /// Fired once per slot per node; firing twice for one slot (a rebind)
  /// is itself a safety violation the auditor detects.
  virtual void decided(ObjectId object, Instance slot, const Command& c) {
    (void)object;
    (void)slot;
    (void)c;
  }

  /// Reports an authoritative local ownership observation for `object`:
  /// either this node completed an acquisition at `epoch` (`acquired`
  /// true) or it accepted a value from `owner` coordinating at `epoch`.
  /// M²Paxos-specific; other protocols never call it.
  virtual void ownership(ObjectId object, Epoch epoch, NodeId owner,
                         bool acquired) {
    (void)object;
    (void)epoch;
    (void)owner;
    (void)acquired;
  }

  /// Per-node metrics registry, or nullptr when observability is off
  /// (Config::Metrics runtime kill switch). Replicas cache the pointer at
  /// construction; a null registry makes every instrumentation helper a
  /// single predictable branch.
  virtual stats::MetricsRegistry* metrics() { return nullptr; }
};

}  // namespace m2::core
