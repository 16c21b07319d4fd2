#pragma once

#include "core/command.hpp"
#include "core/config.hpp"
#include "core/context.hpp"
#include "core/time.hpp"
#include "net/payload.hpp"
#include "stats/metrics.hpp"

namespace m2::core {

/// Cost of handling one received message, split into the part that must run
/// under the node's serialization point and the part that parallelizes
/// across cores. Consumed by the simulator's CPU model (sim::NodeCpu); the
/// threaded runtime ignores it — real handling cost is real.
struct RxCost {
  Time serial = 0;
  Time parallel = 0;
};

/// Base class of all four protocol replicas.
///
/// Life cycle: the backend constructs N replicas, wires delivery callbacks,
/// then drives them with propose() (C-PROPOSE) and on_message(). A replica
/// may be crashed (stops reacting) and restarted with empty volatile state;
/// durable state persistence is modelled by each protocol as needed.
///
/// All environment access goes through core::Context (see context.hpp),
/// which both the simulator and the threaded runtime implement — this
/// header deliberately includes nothing from sim/.
class Replica {
 public:
  Replica(NodeId id, const ClusterConfig& cfg, Context& ctx)
      : id_(id), cfg_(cfg), ctx_(ctx), metrics_(ctx.metrics()) {}
  virtual ~Replica() = default;

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// C-PROPOSE(c): submit a command at this node.
  virtual void propose(const Command& c) = 0;

  /// Delivery of a protocol message from `from`.
  virtual void on_message(NodeId from, const net::Payload& payload) = 0;

  /// CPU cost of handling `payload` at this node; protocols override to
  /// mark their serialization points. Default: fully parallel rx cost.
  virtual RxCost rx_cost(const net::Payload& payload) const;

  /// Fault hooks driven by the harness.
  virtual void on_crash() {}
  virtual void on_recover() {}

  NodeId id() const { return id_; }
  const ClusterConfig& config() const { return cfg_; }

 protected:
  Context& ctx() { return ctx_; }
  const Context& ctx() const { return ctx_; }

  // --- instrumentation helpers -------------------------------------------
  // No-ops when the registry is absent (the ClusterConfig::Metrics kill
  // switch). Hot-path safe: inc/set/record on a live registry touch fixed
  // arrays only and never allocate.
  void m_inc(stats::Counter c, std::uint64_t by = 1) {
    if (metrics_ != nullptr) metrics_->inc(c, by);
  }
  void m_set(stats::Gauge g, std::int64_t v) {
    if (metrics_ != nullptr) metrics_->set(g, v);
  }
  void m_record(stats::Histo h, std::int64_t v) {
    if (metrics_ != nullptr) metrics_->record(h, v);
  }
  /// Propose→commit span at the proposer; `proposed_at` < 0 means the
  /// command was never stamped locally (e.g. learned remotely) — skip.
  void m_span_commit(stats::Path p, Time proposed_at) {
    if (metrics_ != nullptr && proposed_at >= 0) {
      metrics_->inc(stats::committed_counter(p));
      metrics_->record(stats::commit_histo(p), ctx_.now() - proposed_at);
    }
  }
  void m_span_deliver(stats::Path p, Time proposed_at) {
    if (metrics_ != nullptr && proposed_at >= 0)
      metrics_->record(stats::deliver_histo(p), ctx_.now() - proposed_at);
  }

  NodeId id_;
  ClusterConfig cfg_;
  Context& ctx_;
  stats::MetricsRegistry* metrics_;
};

}  // namespace m2::core
