#pragma once

#include "core/command.hpp"
#include "core/time.hpp"

namespace m2::core {

/// Observer of cluster-level protocol events. The simulator harness calls
/// it synchronously from the simulation; the threaded runtime calls it from
/// node threads concurrently (see runtime::RuntimeConfig::observer). The
/// fuzzing safety auditor implements this; all methods default to no-ops
/// so tests can override selectively.
class ClusterObserver {
 public:
  virtual ~ClusterObserver() = default;
  virtual void on_propose(Time, NodeId, const Command&) {}
  virtual void on_decided(Time, NodeId, ObjectId, Instance, const Command&) {}
  virtual void on_ownership(Time, NodeId, ObjectId, Epoch, NodeId /*owner*/,
                            bool /*acquired*/) {}
  virtual void on_deliver(Time, NodeId, const Command&) {}
  virtual void on_committed(Time, NodeId, const Command&) {}
  virtual void on_crash(Time, NodeId) {}
  virtual void on_recover(Time, NodeId) {}
};

}  // namespace m2::core
