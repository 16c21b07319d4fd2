#pragma once

#include <memory>
#include <vector>

#include "core/command.hpp"
#include "core/context.hpp"
#include "core/cstruct.hpp"
#include "harness/cluster.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"

namespace m2::test {

/// Builds a command `proposer:seq` over the given objects.
core::Command cmd(NodeId proposer, std::uint64_t seq,
                  core::ObjectList objects, std::uint32_t payload = 16);

/// An ExperimentConfig tuned for unit tests: small, deterministic, fast
/// timers, auditing on.
harness::ExperimentConfig test_config(core::Protocol protocol, int n_nodes,
                                      std::uint64_t seed = 1);

/// Collects each node's audited C-struct from the cluster.
std::vector<core::CStruct> collect_cstructs(const harness::Cluster& cluster);

/// True iff every node delivered exactly `expected` non-noop commands.
bool all_delivered(const harness::Cluster& cluster, std::uint64_t expected);

/// Node n's count of `c` in the cluster's registry: since construction, or
/// since run() ended its warm-up. Test configs keep metrics on.
std::uint64_t count(harness::Cluster& cluster, NodeId n, stats::Counter c);

/// One message a replica handed to its context; `to` is kNoNode for a
/// broadcast.
struct Sent {
  NodeId to = kNoNode;
  net::PayloadPtr payload;
};

/// Context for message-precise replica unit tests: no network, no harness.
/// Every send is captured in `sent`, timers run on a private simulator,
/// and counts land in `registry`.
class ScriptedContext final : public core::Context {
 public:
  explicit ScriptedContext(std::uint64_t seed) : rng_(seed) {}

  sim::Time now() const override { return sim.now(); }
  sim::Rng& rng() override { return rng_; }
  stats::MetricsRegistry* metrics() override { return &registry; }
  void send(NodeId to, net::PayloadPtr p) override {
    sent.push_back({to, std::move(p)});
  }
  void broadcast(net::PayloadPtr p, bool) override {
    sent.push_back({kNoNode, std::move(p)});
  }
  sim::EventId set_timer(sim::Time delay, sim::InlineFn fn) override {
    return sim.after(delay, std::move(fn));
  }
  void cancel_timer(sim::EventId id) override { sim.cancel(id); }
  void deliver(const core::Command& c) override { delivered.push_back(c); }
  void committed(const core::Command& c) override { committed_.push_back(c); }

  sim::Simulator sim;
  stats::MetricsRegistry registry;
  std::vector<Sent> sent;
  std::vector<core::Command> delivered;
  std::vector<core::Command> committed_;

 private:
  sim::Rng rng_;
};

/// The most recent payload of the given kind `ctx` sent, or null.
const net::Payload* find_last(const ScriptedContext& ctx, std::uint32_t kind);

}  // namespace m2::test
