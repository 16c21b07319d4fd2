#include "runtime/node.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "harness/cluster.hpp"  // make_replica factory

namespace m2::runtime {

namespace {

/// Derives node `id`'s deterministic random stream from the run seed
/// (splitmix-style mix, so adjacent ids land far apart in seed space).
std::uint64_t node_seed(std::uint64_t seed, NodeId id) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (id + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

/// core::Context against the real-clock substrate: transport for I/O, the
/// node's EventQueue for timers, the shared monotonic clock for now().
/// Only ever called from the node thread (the Context threading contract).
class Node::Context final : public core::Context {
 public:
  explicit Context(Node& node) : node_(node) {}

  core::Time now() const override { return node_.clock_.now(); }
  sim::Rng& rng() override { return node_.rng_; }
  stats::MetricsRegistry* metrics() override { return node_.metrics_; }

  void send(NodeId to, net::PayloadPtr payload) override {
    if (node_.crashed_) return;  // a crashed node is silent
    node_.transport_.send(node_.id_, to, *payload);
    // `payload` (possibly pool-backed) is released here, on its own thread;
    // only the serialized bytes crossed to the receiver.
  }

  void broadcast(net::PayloadPtr payload, bool include_self) override {
    if (node_.crashed_) return;
    node_.transport_.broadcast(node_.id_, *payload, include_self);
  }

  core::TimerHandle set_timer(core::Time delay, core::TimerFn fn) override {
    return node_.timers_.schedule(now() + std::max<core::Time>(delay, 0),
                                  std::move(fn));
  }
  void cancel_timer(core::TimerHandle id) override {
    node_.timers_.cancel(id);
  }

  void deliver(const core::Command& c) override {
    node_.callbacks_.node_deliver(node_.id_, c);
  }
  void committed(const core::Command& c) override {
    node_.callbacks_.node_committed(node_.id_, c);
  }
  void decided(core::ObjectId object, core::Instance slot,
               const core::Command& c) override {
    node_.callbacks_.node_decided(node_.id_, object, slot, c);
  }
  void ownership(core::ObjectId object, core::Epoch epoch, NodeId owner,
                 bool acquired) override {
    node_.callbacks_.node_ownership(node_.id_, object, epoch, owner,
                                    acquired);
  }

 private:
  Node& node_;
};

Node::Node(NodeId id, core::Protocol protocol,
           const core::ClusterConfig& cfg, Transport& transport,
           const core::Clock& clock, std::uint64_t seed,
           NodeCallbacks& callbacks, stats::MetricsRegistry* metrics,
           Setup setup)
    : id_(id),
      protocol_(protocol),
      cfg_(cfg),
      transport_(transport),
      clock_(clock),
      callbacks_(callbacks),
      metrics_(metrics),
      setup_(std::move(setup)),
      rng_(node_seed(seed, id)) {
  ctx_ = std::make_unique<Context>(*this);
}

Node::~Node() { stop(); }

void Node::start() {
  if (started_.exchange(true)) return;
  thread_ = std::thread([this] { run(); });
}

void Node::stop() {
  if (!started_.load()) return;
  inbox_.push(Event::of(Event::Kind::kStop));
  inbox_.close();
  if (thread_.joinable()) thread_.join();
}

void Node::run() {
  // The replica (and its single-threaded pool) is born and dies on this
  // thread; nothing pool-backed ever leaves it except as serialized bytes.
  replica_ = harness::make_replica(protocol_, id_, cfg_, *ctx_);
  if (setup_) setup_(*replica_);

  running_ = true;
  // Scratch for the batched drain: its storage ping-pongs with the inbox's
  // backlog vector, so one mutex round trips N events allocation-free.
  std::vector<Event> batch;
  while (running_) {
    // One pass: fire the timers due now (a timer they arm waits for the
    // next pass, even at zero delay), then drain the inbox until the next
    // deadline.
    timers_.run_due(clock_.now());
    batch.clear();
    inbox_.drain_until(timers_.next_time(), clock_, batch);
    for (Event& e : batch) {
      handle(e);
      if (!running_) break;
    }
  }
  replica_.reset();
}

void Node::handle(Event& e) {
  switch (e.kind) {
    case Event::Kind::kMessage:
      // Mirrors the simulator's fault model: the network delivers nothing
      // to a crashed node. Timers keep firing (replica callbacks carry
      // their own crashed checks), exactly as the DES does.
      if (!crashed_) replica_->on_message(e.from, *e.payload);
      break;
    case Event::Kind::kPropose:
      if (!crashed_) replica_->propose(e.cmd);
      break;
    case Event::Kind::kCrash:
      if (!crashed_) {
        crashed_ = true;
        replica_->on_crash();
      }
      break;
    case Event::Kind::kRecover:
      if (crashed_) {
        crashed_ = false;
        replica_->on_recover();
      }
      break;
    case Event::Kind::kControl:
      if (e.fn) e.fn();
      break;
    case Event::Kind::kStop:
      running_ = false;
      break;
  }
}

}  // namespace m2::runtime
