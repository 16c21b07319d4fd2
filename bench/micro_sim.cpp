// Simulator hot-path microbenchmark: events/sec through the EventQueue
// (schedule-fire and schedule-fire-cancel mixes) and sends/sec through a
// 9-node Network with and without batching. Emits BENCH_sim.json with the
// current numbers next to the recorded pre-overhaul baseline so the perf
// trajectory is tracked from PR 1 onward.
//
// The binary also verifies the tentpole claim directly: a global
// operator-new hook counts heap allocations, and the steady-state portion
// of the schedule-fire mix must perform ZERO allocations per event (all
// callbacks fit InlineFn's inline buffer). The process exits nonzero if
// that regresses.
//
// M2_BENCH_QUICK=1 shrinks the event counts for smoke runs (<5 s).

#include <cstdint>
#include <cstdio>

#include "alloc_counter.hpp"
#include "bench_common.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "stats/export.hpp"

namespace m2::bench {
namespace {

// Pre-overhaul numbers, measured at the growth seed (commit 8de3dd6,
// std::function callbacks + std::map link tables) on the reference machine
// with the same workloads and build flags. They contextualize `current`;
// absolute values are machine-dependent, the before/after ratio is not.
constexpr double kBaselineScheduleFire = 15.34e6;        // events/sec
constexpr double kBaselineScheduleFireCancel = 20.41e6;  // scheduled events/sec
constexpr double kBaselineSendsNoBatch = 1.44e6;         // sends/sec
constexpr double kBaselineSendsBatch = 8.10e6;           // sends/sec

/// Self-rescheduling chain task: a copyable function object re-wrapped at
/// every schedule. 32 bytes — must ride InlineFn's inline buffer.
struct ChainTask {
  sim::Simulator* sim;
  std::uint64_t* fired;
  std::uint64_t target;
  sim::Time delay;
  void operator()() const {
    if (++*fired >= target) return;
    sim->after(delay, ChainTask{*this});
  }
};
static_assert(core::InlineFn::stored_inline<ChainTask>(),
              "chain task must stay on the allocation-free path");

/// Chain task for the cancel mix: every firing schedules two events and
/// cancels one of them (>=50% of scheduled events are cancelled overall,
/// counting the cancelled victim against the rescheduled chain).
struct CancelMixTask {
  sim::Simulator* sim;
  std::uint64_t* fired;
  std::uint64_t target;
  void operator()() const {
    if (++*fired >= target) return;
    const core::TimerHandle victim = sim->after(5, [] {});
    sim->cancel(victim);
    sim->after(1, CancelMixTask{*this});
  }
};
static_assert(core::InlineFn::stored_inline<CancelMixTask>(),
              "cancel-mix task must stay on the allocation-free path");

struct Ping final : net::Payload {
  std::uint32_t kind() const override { return 1; }
  std::size_t wire_size() const override { return 100; }
  const char* name() const override { return "Ping"; }
};

/// Round-robin unicast pump over a 9-node network, refilled in blocks so
/// the event queue stays shallow (as a real client injector does).
struct SendPump {
  sim::Simulator* sim;
  net::Network* net;
  const net::PayloadPtr* ping;
  std::uint64_t* sent;
  std::uint64_t target;
  void operator()() const {
    for (int i = 0; i < 64 && *sent < target; ++i, ++*sent)
      net->send(*sent % 9, (*sent + 1 + *sent / 9) % 9, *ping);
    if (*sent < target) sim->after(10, SendPump{*this});
  }
};
static_assert(core::InlineFn::stored_inline<SendPump>(),
              "send pump must stay on the allocation-free path");

struct MixResult {
  double events_per_sec = 0;
  std::uint64_t steady_allocations = 0;
  std::uint64_t steady_events = 0;
};

/// Schedule-fire mix: 8 interleaved chains. Warm up the queue's slot table
/// and heap first, then require the steady state to be allocation-free.
MixResult run_schedule_fire(std::uint64_t target) {
  sim::Simulator sim(1);
  std::uint64_t fired = 0;
  for (int c = 0; c < 8; ++c)
    sim.after(1 + c, ChainTask{&sim, &fired, target, 1 + c});

  WallTimer timer;
  sim.run(target / 8);  // warmup: vectors reach steady-state capacity
  const std::uint64_t allocs_before = allocations();
  const std::uint64_t events_before = sim.events_executed();
  sim.run();
  MixResult r;
  r.events_per_sec = static_cast<double>(fired) / timer.elapsed_seconds();
  r.steady_allocations = allocations() - allocs_before;
  r.steady_events = sim.events_executed() - events_before;
  return r;
}

MixResult run_schedule_fire_cancel(std::uint64_t target) {
  sim::Simulator sim(1);
  std::uint64_t fired = 0;
  sim.after(1, CancelMixTask{&sim, &fired, target});

  WallTimer timer;
  sim.run(target / 8);
  const std::uint64_t allocs_before = allocations();
  const std::uint64_t events_before = sim.events_executed();
  sim.run();
  MixResult r;
  // Two schedules per firing: report scheduled events/sec like the
  // baseline measurement did.
  r.events_per_sec = 2.0 * static_cast<double>(fired) / timer.elapsed_seconds();
  r.steady_allocations = allocations() - allocs_before;
  r.steady_events = sim.events_executed() - events_before;
  return r;
}

double run_network_sends(std::uint64_t sends, bool batching,
                         std::uint64_t* delivered_out) {
  sim::Simulator sim(1);
  net::NetworkConfig cfg;
  cfg.batching = batching;
  net::Network net(sim, cfg, 9);
  std::uint64_t delivered = 0;
  for (NodeId n = 0; n < 9; ++n)
    net.set_delivery(n, [&delivered](const net::Envelope&) { ++delivered; });
  const net::PayloadPtr ping = net::make_payload<Ping>();
  std::uint64_t sent = 0;
  sim.after(0, SendPump{&sim, &net, &ping, &sent, sends});
  WallTimer timer;
  sim.run();
  const double dt = timer.elapsed_seconds();
  *delivered_out = delivered;
  return static_cast<double>(sends) / dt;
}

int bench_main() {
  const bool quick = quick_mode();
  // Quick mode feeds the CI perf gate: the windows must stay large enough
  // (>100 ms of wall time each) that run-to-run wall-clock noise sits well
  // inside the gate's 10% warn threshold.
  const std::uint64_t fire_target = quick ? 4'000'000 : 8'000'000;
  const std::uint64_t cancel_target = quick ? 2'000'000 : 4'000'000;
  const std::uint64_t send_target = quick ? 1'000'000 : 2'000'000;

  const MixResult fire = run_schedule_fire(fire_target);
  std::printf("schedule_fire:        %10.0f events/sec  (baseline %10.0f, %4.2fx)\n",
              fire.events_per_sec, kBaselineScheduleFire,
              fire.events_per_sec / kBaselineScheduleFire);
  std::printf("  steady-state heap allocations: %llu over %llu events\n",
              static_cast<unsigned long long>(fire.steady_allocations),
              static_cast<unsigned long long>(fire.steady_events));

  const MixResult cancel = run_schedule_fire_cancel(cancel_target);
  std::printf("schedule_fire_cancel: %10.0f events/sec  (baseline %10.0f, %4.2fx)\n",
              cancel.events_per_sec, kBaselineScheduleFireCancel,
              cancel.events_per_sec / kBaselineScheduleFireCancel);
  std::printf("  steady-state heap allocations: %llu over %llu events\n",
              static_cast<unsigned long long>(cancel.steady_allocations),
              static_cast<unsigned long long>(cancel.steady_events));

  std::uint64_t delivered_nobatch = 0, delivered_batch = 0;
  const double sends_nobatch =
      run_network_sends(send_target, false, &delivered_nobatch);
  std::printf("network_sends:        %10.0f sends/sec   (baseline %10.0f, %4.2fx)\n",
              sends_nobatch, kBaselineSendsNoBatch,
              sends_nobatch / kBaselineSendsNoBatch);
  const double sends_batch =
      run_network_sends(send_target, true, &delivered_batch);
  std::printf("network_sends_batched:%10.0f sends/sec   (baseline %10.0f, %4.2fx)\n",
              sends_batch, kBaselineSendsBatch,
              sends_batch / kBaselineSendsBatch);

  stats::Json baseline = stats::Json::object();
  baseline.set("note",
               "pre-overhaul seed (std::function events, std::map links), "
               "reference machine");
  baseline.set("schedule_fire_events_per_sec", kBaselineScheduleFire);
  baseline.set("schedule_fire_cancel_events_per_sec",
               kBaselineScheduleFireCancel);
  baseline.set("network_sends_per_sec", kBaselineSendsNoBatch);
  baseline.set("network_sends_batched_per_sec", kBaselineSendsBatch);

  stats::Json results = stats::Json::object();
  results.set("schedule_fire_events_per_sec", fire.events_per_sec);
  results.set("schedule_fire_cancel_events_per_sec", cancel.events_per_sec);
  results.set("network_sends_per_sec", sends_nobatch);
  results.set("network_sends_batched_per_sec", sends_batch);
  results.set("speedup_schedule_fire",
              fire.events_per_sec / kBaselineScheduleFire);
  results.set("speedup_schedule_fire_cancel",
              cancel.events_per_sec / kBaselineScheduleFireCancel);
  results.set("speedup_network_sends", sends_nobatch / kBaselineSendsNoBatch);
  results.set("speedup_network_sends_batched",
              sends_batch / kBaselineSendsBatch);
  results.set("schedule_fire_steady_allocations",
              static_cast<std::int64_t>(fire.steady_allocations));
  results.set("schedule_fire_steady_events",
              static_cast<std::int64_t>(fire.steady_events));
  results.set("cancel_mix_steady_allocations",
              static_cast<std::int64_t>(cancel.steady_allocations));

  stats::Json doc = stats::make_bench_doc("micro_sim", quick);
  doc.set("baseline", std::move(baseline));
  doc.set("results", std::move(results));
  if (!stats::write_json_file("BENCH_sim.json", doc)) {
    std::fprintf(stderr, "cannot write BENCH_sim.json\n");
    return 1;
  }
  std::printf("wrote BENCH_sim.json\n");

  // Sanity: every send must be delivered (links healthy, no loss).
  if (delivered_nobatch != send_target || delivered_batch != send_target) {
    std::fprintf(stderr, "FAIL: deliveries %llu/%llu != sends %llu\n",
                 static_cast<unsigned long long>(delivered_nobatch),
                 static_cast<unsigned long long>(delivered_batch),
                 static_cast<unsigned long long>(send_target));
    return 1;
  }
  // The tentpole claim: steady-state event processing is allocation-free.
  if (fire.steady_allocations != 0 || cancel.steady_allocations != 0) {
    std::fprintf(stderr,
                 "FAIL: expected zero steady-state allocations, got "
                 "%llu (fire) / %llu (cancel)\n",
                 static_cast<unsigned long long>(fire.steady_allocations),
                 static_cast<unsigned long long>(cancel.steady_allocations));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace m2::bench

int main() { return m2::bench::bench_main(); }
