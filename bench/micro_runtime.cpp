// Runtime wire-path microbenchmark: transport messages/sec and steady-state
// heap allocations per delivered message, measured through the real
// runtime plumbing (serde encode -> transport -> inbox -> serde decode)
// with no protocol logic in the loop. Three mixes isolate the layers the
// wire-path overhaul targets:
//
//   loopback       unicast through LoopbackTransport: encode on the sender,
//                  decode per recipient, MPSC inbox handoff, all on one
//                  thread (the steady state of the in-process backend)
//   loopback_bcast broadcast to a 5-node loopback cluster: one encode,
//                  four decodes + four inbox pushes per call
//   tcp            localhost TCP between two transport instances: framing,
//                  CRC32C, syscalls, reader-thread decode, cross-thread
//                  inbox handoff
//
// Emits BENCH_runtime.json (m2bench-v1) with current numbers next to the
// recorded pre-overhaul baseline so the perf trajectory is pinned
// in-branch. The payload is a representative M²Paxos fast-path Accept
// (one slot, one-object command, 16-byte application payload).
//
// A global operator-new hook counts heap allocations across the steady
// state of each mix. Once the wire-path overhaul lands (pooled frames,
// arena-backed decode, vector-swap inbox drain) the loopback mix must be
// allocation-free per delivered message; kRequireZeroAllocLoopback turns
// that into a failing exit code. Gates run in full mode only.
//
// M2_BENCH_QUICK=1 shrinks the message counts for smoke runs (<5 s).

#include <cstdint>
#include <cstdio>
#include <vector>

#include "alloc_counter.hpp"
#include "figures.hpp"
#include "m2paxos/messages.hpp"
#include "net/serde.hpp"
#include "runtime/clock.hpp"
#include "runtime/inbox.hpp"
#include "runtime/tcp_transport.hpp"
#include "runtime/transport.hpp"
#include "stats/export.hpp"

namespace m2::bench {
namespace {

// Pre-overhaul numbers, measured at the commit that introduced this bench
// (fresh std::vector per encode, per-recipient re-encode on TCP local
// delivery, two send() syscalls per frame under the peer mutex, bitwise
// software CRC32C, deque-based inbox drain) on the reference machine with
// the same mixes and build flags. They contextualize `current`; absolute
// values are machine-dependent, the before/after ratio is not.
constexpr double kBaselineLoopback = 1900739;    // msgs/sec
constexpr double kBaselineBcast = 2937263;       // delivered msgs/sec
constexpr double kBaselineTcp = 235184;          // delivered msgs/sec
constexpr double kBaselineLoopbackAllocs = 12.0; // allocs/delivered msg

// The overhaul's gates, enforced in full mode: >= 2x loopback, >= 1.5x
// TCP, zero steady-state allocations per message on the loopback path.
constexpr bool kRequireSpeedups = true;
constexpr double kRequiredLoopbackSpeedup = 2.0;
constexpr double kRequiredTcpSpeedup = 1.5;
constexpr bool kRequireZeroAllocLoopback = true;

/// Representative fast-path message: an M²Paxos Accept carrying one slot
/// with a one-object command and 16 bytes of application payload.
net::PayloadPtr make_accept() {
  core::Command cmd(core::CommandId::make(0, 1), {7}, 16);
  m2p::SlotList slots;
  slots.push_back(m2p::SlotValue(7, 42, 3, std::move(cmd)));
  return net::make_payload<m2p::Accept>(1, std::move(slots));
}

struct MixResult {
  double msgs_per_sec = 0;     // delivered messages/sec, wall-clock
  double allocs_per_msg = 0;   // steady-state heap allocs / delivered msg
  std::uint64_t msgs = 0;
  std::uint64_t steady_allocations = 0;
};

/// Drains `inbox` non-blockingly into `out` (deadline 0 = return at once
/// when empty) and returns the number of events moved.
std::size_t drain_now(runtime::Inbox& inbox, const core::Clock& clock,
                      std::vector<runtime::Event>& out) {
  return inbox.drain_until(0, clock, out);
}

/// Blocks until `inbox` has delivered `want` more events (appended to
/// `out`), or `timeout` elapses. Returns events received.
std::size_t drain_count(runtime::Inbox& inbox, const core::Clock& clock,
                        std::size_t want, core::Time timeout,
                        std::vector<runtime::Event>& out) {
  std::size_t got = 0;
  const core::Time deadline = clock.now() + timeout;
  while (got < want && clock.now() < deadline)
    got += inbox.drain_until(deadline, clock, out);
  return got;
}

/// Unicast loopback: send a burst, drain it, release the decoded payloads;
/// sender and receiver side both run on this thread, as they do for a
/// self-send in the real loopback backend.
MixResult run_loopback(std::uint64_t warmup_msgs, std::uint64_t measure_msgs) {
  runtime::MonotonicClock clock;
  runtime::LoopbackTransport transport(2);
  runtime::Inbox rx;
  transport.attach(1, &rx);
  const net::PayloadPtr payload = make_accept();

  constexpr std::uint64_t kBurst = 64;
  std::vector<runtime::Event> events;
  auto pump = [&](std::uint64_t msgs) {
    for (std::uint64_t done = 0; done < msgs; done += kBurst) {
      const std::uint64_t n = std::min(kBurst, msgs - done);
      for (std::uint64_t i = 0; i < n; ++i)
        transport.send(0, 1, *payload);
      drain_now(rx, clock, events);
      events.clear();  // releases the decoded payloads
    }
  };

  pump(warmup_msgs);
  MixResult r;
  const std::uint64_t allocs_before = allocations();
  WallTimer timer;
  pump(measure_msgs);
  const double dt = timer.elapsed_seconds();
  r.msgs = measure_msgs;
  r.steady_allocations = allocations() - allocs_before;
  r.msgs_per_sec = static_cast<double>(r.msgs) / dt;
  r.allocs_per_msg =
      static_cast<double>(r.steady_allocations) / static_cast<double>(r.msgs);
  return r;
}

/// Broadcast loopback: one encode fans out to four recipients on a 5-node
/// cluster (include_self=false), the shape of an Accept/Decide round.
MixResult run_loopback_bcast(std::uint64_t warmup_calls,
                             std::uint64_t measure_calls) {
  constexpr int kNodes = 5;
  runtime::MonotonicClock clock;
  runtime::LoopbackTransport transport(kNodes);
  std::vector<std::unique_ptr<runtime::Inbox>> inboxes;
  for (int n = 0; n < kNodes; ++n) {
    inboxes.push_back(std::make_unique<runtime::Inbox>());
    transport.attach(static_cast<NodeId>(n), inboxes.back().get());
  }
  const net::PayloadPtr payload = make_accept();

  constexpr std::uint64_t kBurst = 16;
  std::vector<runtime::Event> events;
  auto pump = [&](std::uint64_t calls) {
    for (std::uint64_t done = 0; done < calls; done += kBurst) {
      const std::uint64_t n = std::min(kBurst, calls - done);
      for (std::uint64_t i = 0; i < n; ++i)
        transport.broadcast(0, *payload, /*include_self=*/false);
      for (auto& inbox : inboxes) {
        drain_now(*inbox, clock, events);
        events.clear();
      }
    }
  };

  pump(warmup_calls);
  MixResult r;
  const std::uint64_t allocs_before = allocations();
  WallTimer timer;
  pump(measure_calls);
  const double dt = timer.elapsed_seconds();
  r.msgs = measure_calls * (kNodes - 1);  // delivered messages
  r.steady_allocations = allocations() - allocs_before;
  r.msgs_per_sec = static_cast<double>(r.msgs) / dt;
  r.allocs_per_msg =
      static_cast<double>(r.steady_allocations) / static_cast<double>(r.msgs);
  return r;
}

/// Localhost TCP: two TcpTransport instances in one process, each serving
/// one node, connected over real sockets. The sender pushes windows of
/// frames and the receiving side's reader thread decodes and hands off to
/// the inbox; throughput counts delivered messages at the receiver.
MixResult run_tcp(std::uint64_t warmup_msgs, std::uint64_t measure_msgs) {
  runtime::MonotonicClock clock;
  const std::uint16_t port_a = runtime::free_port();
  const std::uint16_t port_b = runtime::free_port();
  if (port_a == 0 || port_b == 0 || port_a == port_b) {
    std::fprintf(stderr, "FAIL: cannot allocate bench ports\n");
    return {};
  }
  const std::vector<core::NodeAddress> endpoints = {
      {"127.0.0.1", port_a}, {"127.0.0.1", port_b}};
  runtime::TcpTransport sender(endpoints);
  runtime::TcpTransport receiver(endpoints);
  runtime::Inbox rx0;
  runtime::Inbox rx1;
  sender.attach(0, &rx0);
  receiver.attach(1, &rx1);
  sender.start();
  receiver.start();
  MixResult r;
  if (!sender.error().empty() || !receiver.error().empty()) {
    std::fprintf(stderr, "FAIL: tcp bench transport: %s%s\n",
                 sender.error().c_str(), receiver.error().c_str());
    return r;
  }
  const net::PayloadPtr payload = make_accept();

  constexpr std::uint64_t kWindow = 256;
  constexpr core::Time kDrainTimeout = 5 * core::kSecond;
  std::vector<runtime::Event> events;
  bool ok = true;
  auto pump = [&](std::uint64_t msgs) {
    for (std::uint64_t done = 0; ok && done < msgs; done += kWindow) {
      const std::uint64_t n = std::min(kWindow, msgs - done);
      for (std::uint64_t i = 0; i < n; ++i)
        sender.send(0, 1, *payload);
      const std::size_t got = drain_count(rx1, clock, n, kDrainTimeout, events);
      events.clear();
      if (got < n) ok = false;
    }
  };

  pump(warmup_msgs);
  const std::uint64_t allocs_before = allocations();
  WallTimer timer;
  pump(measure_msgs);
  const double dt = timer.elapsed_seconds();
  sender.stop();
  receiver.stop();
  if (!ok) {
    std::fprintf(stderr, "FAIL: tcp bench lost messages (connection drop?)\n");
    return {};
  }
  r.msgs = measure_msgs;
  r.steady_allocations = allocations() - allocs_before;
  r.msgs_per_sec = static_cast<double>(r.msgs) / dt;
  r.allocs_per_msg =
      static_cast<double>(r.steady_allocations) / static_cast<double>(r.msgs);
  return r;
}

/// Best-of-N: reruns a mix and keeps the fastest run. Single-core runners
/// time-slice the bench against the OS and sibling jobs, which only ever
/// subtracts throughput — the max over a few runs is the stable estimate
/// of the code's actual rate, where a single sample can be 40% low.
template <typename Fn>
MixResult best_of(int repeats, Fn&& run) {
  MixResult best;
  for (int i = 0; i < repeats; ++i) {
    MixResult r = run();
    if (r.msgs_per_sec > best.msgs_per_sec) best = r;
  }
  return best;
}

void print_mix(const char* name, const MixResult& r, double baseline) {
  std::printf("%-15s %9.0f msgs/sec  (baseline %9.0f, %5.2fx)   "
              "%7.2f allocs/msg  (%llu over %llu)\n",
              name, r.msgs_per_sec, baseline, r.msgs_per_sec / baseline,
              r.allocs_per_msg,
              static_cast<unsigned long long>(r.steady_allocations),
              static_cast<unsigned long long>(r.msgs));
}

int bench_main() {
  const bool quick = quick_mode();
  const std::uint64_t lb_warmup = quick ? 4096 : 65536;
  const std::uint64_t lb_measure = quick ? 16384 : 262144;
  const std::uint64_t bc_warmup = quick ? 1024 : 16384;
  const std::uint64_t bc_measure = quick ? 4096 : 65536;
  const std::uint64_t tcp_warmup = quick ? 1024 : 8192;
  const std::uint64_t tcp_measure = quick ? 4096 : 32768;

  const int repeats = quick ? 1 : 3;
  const MixResult lb =
      best_of(repeats, [&] { return run_loopback(lb_warmup, lb_measure); });
  print_mix("loopback", lb, kBaselineLoopback);
  const MixResult bc = best_of(
      repeats, [&] { return run_loopback_bcast(bc_warmup, bc_measure); });
  print_mix("loopback_bcast", bc, kBaselineBcast);
  const MixResult tcp =
      best_of(repeats, [&] { return run_tcp(tcp_warmup, tcp_measure); });
  print_mix("tcp", tcp, kBaselineTcp);

  stats::Json baseline = stats::Json::object();
  baseline.set("note",
               "pre-overhaul (fresh vector per encode, two syscalls per "
               "frame under the peer mutex, bitwise software CRC32C, deque "
               "inbox), reference machine");
  baseline.set("loopback_msgs_per_sec", kBaselineLoopback);
  baseline.set("loopback_bcast_msgs_per_sec", kBaselineBcast);
  baseline.set("tcp_msgs_per_sec", kBaselineTcp);
  baseline.set("loopback_allocs_per_msg", kBaselineLoopbackAllocs);

  stats::Json results = stats::Json::object();
  results.set("loopback_msgs_per_sec", lb.msgs_per_sec);
  results.set("loopback_bcast_msgs_per_sec", bc.msgs_per_sec);
  results.set("tcp_msgs_per_sec", tcp.msgs_per_sec);
  results.set("loopback_allocs_per_msg", lb.allocs_per_msg);
  results.set("loopback_bcast_allocs_per_msg", bc.allocs_per_msg);
  results.set("tcp_allocs_per_msg", tcp.allocs_per_msg);
  results.set("speedup_loopback", lb.msgs_per_sec / kBaselineLoopback);
  results.set("speedup_loopback_bcast", bc.msgs_per_sec / kBaselineBcast);
  results.set("speedup_tcp", tcp.msgs_per_sec / kBaselineTcp);
  results.set("loopback_msgs", static_cast<std::int64_t>(lb.msgs));
  results.set("loopback_bcast_msgs", static_cast<std::int64_t>(bc.msgs));
  results.set("tcp_msgs", static_cast<std::int64_t>(tcp.msgs));
  results.set("payload_wire_bytes",
              static_cast<std::int64_t>(make_accept()->wire_size()));
  results.set("repeats_best_of", static_cast<std::int64_t>(repeats));

  stats::Json doc = stats::make_bench_doc("micro_runtime", quick);
  doc.set("baseline", std::move(baseline));
  doc.set("results", std::move(results));
  if (!stats::write_json_file("BENCH_runtime.json", doc)) {
    std::fprintf(stderr, "cannot write BENCH_runtime.json\n");
    return 1;
  }
  std::printf("wrote BENCH_runtime.json\n");

  // Sanity: every mix must have moved real messages.
  if (lb.msgs == 0 || bc.msgs == 0 || tcp.msgs == 0 ||
      tcp.msgs_per_sec == 0) {
    std::fprintf(stderr, "FAIL: a mix moved zero messages\n");
    return 1;
  }
  // The overhaul's headline gates, full mode only (quick windows are too
  // short for stable ratios on a loaded runner).
  if (!quick && kRequireSpeedups) {
    const double lb_speedup = lb.msgs_per_sec / kBaselineLoopback;
    if (lb_speedup < kRequiredLoopbackSpeedup) {
      std::fprintf(stderr, "FAIL: loopback %.2fx vs baseline, need %.2fx\n",
                   lb_speedup, kRequiredLoopbackSpeedup);
      return 1;
    }
    const double tcp_speedup = tcp.msgs_per_sec / kBaselineTcp;
    if (tcp_speedup < kRequiredTcpSpeedup) {
      std::fprintf(stderr, "FAIL: tcp %.2fx vs baseline, need %.2fx\n",
                   tcp_speedup, kRequiredTcpSpeedup);
      return 1;
    }
  }
  if (!quick && kRequireZeroAllocLoopback && lb.steady_allocations != 0) {
    std::fprintf(stderr,
                 "FAIL: expected zero steady-state allocations on the "
                 "loopback path, got %llu over %llu messages\n",
                 static_cast<unsigned long long>(lb.steady_allocations),
                 static_cast<unsigned long long>(lb.msgs));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace m2::bench

int main() { return m2::bench::bench_main(); }
