#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <thread>

#include "core/config.hpp"
#include "core/context.hpp"
#include "core/event_queue.hpp"
#include "core/replica.hpp"
#include "runtime/inbox.hpp"
#include "runtime/transport.hpp"
#include "sim/rng.hpp"
#include "stats/metrics.hpp"

namespace m2::runtime {

/// Cluster-side observer of one node's protocol callbacks (deliver,
/// committed, decided, ownership). Implemented by runtime::Runtime.
/// Methods are invoked from the node's own thread; implementations do
/// their own synchronization for any cross-thread state.
class NodeCallbacks {
 public:
  virtual ~NodeCallbacks() = default;
  virtual void node_deliver(NodeId node, const core::Command& c) = 0;
  virtual void node_committed(NodeId node, const core::Command& c) = 0;
  virtual void node_decided(NodeId, core::ObjectId, core::Instance,
                            const core::Command&) {}
  virtual void node_ownership(NodeId, core::ObjectId, core::Epoch,
                              NodeId /*owner*/, bool /*acquired*/) {}
};

/// One replica on one OS thread: the runtime analogue of the simulator's
/// per-node event stream.
///
/// The replica state machine — including its single-threaded allocation
/// pool — is constructed, driven, and destroyed entirely on the node
/// thread; every external input (protocol message, local proposal, fault
/// injection, control closure) arrives through the MPSC inbox, and timers
/// fire from the node's own EventQueue between inbox drains. That makes
/// the node loop the same serialization point core::Context documents for
/// the simulator, with real time instead of virtual time.
class Node {
 public:
  /// Runs on the node thread right after the replica is constructed
  /// (protocol-specific wiring: Multi-Paxos start(), M²Paxos ownership
  /// preassignment).
  using Setup = std::function<void(core::Replica&)>;

  Node(NodeId id, core::Protocol protocol, const core::ClusterConfig& cfg,
       Transport& transport, const core::Clock& clock, std::uint64_t seed,
       NodeCallbacks& callbacks, stats::MetricsRegistry* metrics,
       Setup setup);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Spawns the node thread. attach() this node's inbox to the transport
  /// before starting.
  void start();

  /// Stops the node loop (processing whatever is already queued first) and
  /// joins the thread. Idempotent.
  void stop();

  Inbox& inbox() { return inbox_; }
  NodeId id() const { return id_; }

  // Thread-safe drivers (any thread).
  void propose(core::Command c) { inbox_.push(Event::propose(std::move(c))); }
  void crash() { inbox_.push(Event::of(Event::Kind::kCrash)); }
  void recover() { inbox_.push(Event::of(Event::Kind::kRecover)); }
  /// Runs `fn` on the node thread between events.
  void run_on_node(core::InlineFn fn) {
    inbox_.push(Event::control(std::move(fn)));
  }

 private:
  class Context;

  void run();
  void handle(Event& e);

  NodeId id_;
  core::Protocol protocol_;
  core::ClusterConfig cfg_;
  Transport& transport_;
  const core::Clock& clock_;
  NodeCallbacks& callbacks_;
  stats::MetricsRegistry* metrics_;
  Setup setup_;

  Inbox inbox_;
  core::EventQueue timers_;  // node-thread local
  sim::Rng rng_;
  std::unique_ptr<Context> ctx_;
  std::unique_ptr<core::Replica> replica_;  // lives on the node thread only
  std::thread thread_;
  bool running_ = false;   // node-thread local
  bool crashed_ = false;   // node-thread local: drop rx/tx while set
  std::atomic<bool> started_{false};
};

}  // namespace m2::runtime
