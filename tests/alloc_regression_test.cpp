// Allocation-regression gate (standalone, no gtest: gtest's assertion
// machinery itself allocates, which would pollute the counter this test
// exists to pin).
//
// Drives a 3-node M²Paxos cluster on the owned-object fast path (synthetic
// workload, locality 1.0) to steady state — hash maps at capacity, pools
// primed, the delivered-id window full and evicting — then asserts that a
// further measurement window performs ZERO heap allocations while deciding
// thousands of commands. Any operator-new hit in the steady-state hot path
// is a regression: the protocol layer recycles every per-command structure
// (pending entries, payloads, slot handles, latency tracking) through
// freelist pools.
//
// It also pins the wire decoder's bound on hostile element counts: a frame
// that claims more list elements than its bytes can hold must fail before
// it sizes a buffer from the claim.
//
// Debug aid: M2_ALLOC_TRACE=1 prints a symbolized backtrace for the first
// few offending allocations instead of just the count.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#if defined(__GLIBC__)
#include <execinfo.h>
#endif

#include "harness/cluster.hpp"
#include "m2paxos/m2paxos.hpp"
#include "net/codec.hpp"
#include "net/serde.hpp"
#include "sim/simulator.hpp"
#include "workload/synthetic.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};
std::atomic<bool> g_trace{false};
std::atomic<int> g_traces_left{8};

void maybe_trace() {
#if defined(__GLIBC__)
  if (!g_trace.load(std::memory_order_relaxed)) return;
  if (g_traces_left.fetch_sub(1, std::memory_order_relaxed) <= 0) return;
  // Suppress tracing while backtrace_symbols itself allocates.
  g_trace.store(false, std::memory_order_relaxed);
  void* frames[32];
  const int n = backtrace(frames, 32);
  char** syms = backtrace_symbols(frames, n);
  std::fprintf(stderr, "--- steady-state allocation ---\n");
  if (syms != nullptr) {
    for (int i = 0; i < n; ++i) std::fprintf(stderr, "  %s\n", syms[i]);
    std::free(syms);
  }
  g_trace.store(true, std::memory_order_relaxed);
#endif
}

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  maybe_trace();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace m2 {
namespace {

/// Runs one mix to steady state and counts allocations over a measurement
/// window. `mutate` adjusts the workload/experiment configs (the batched
/// mix flips the protocol-batching knobs and shrinks the object set so the
/// accumulator actually fills).
int run_mix(const char* name,
            void (*mutate)(wl::SyntheticConfig&, harness::ExperimentConfig&)) {
  wl::SyntheticConfig wl_cfg;
  wl_cfg.n_nodes = 3;
  wl_cfg.objects_per_node = 1024;
  wl_cfg.locality = 1.0;  // every command touches one locally-owned object

  harness::ExperimentConfig cfg;
  cfg.protocol = core::Protocol::kM2Paxos;
  cfg.cluster.n_nodes = 3;
  cfg.seed = 1;
  // Small dedup window so it fills (and starts evicting) during warmup;
  // otherwise its growth phase would extend past the measurement start.
  cfg.cluster.delivered_id_window = 4096;
  // Small GC margin so per-object frontiers cross it during warmup: slot
  // logs must be truncating (and recycling command blocks through the
  // pool) before the measurement window, as they would be in any
  // long-running deployment.
  cfg.cluster.gc_margin = 16;
  if (mutate != nullptr) mutate(wl_cfg, cfg);
  wl::SyntheticWorkload workload(wl_cfg);

  harness::Cluster cluster(cfg, workload);
  cluster.start_clients();
  // Warmup: long enough for every pool and hash map to reach its
  // high-water mark (pools grow on new simultaneous-live maxima, so the
  // warmup must see the largest in-flight population) and for the
  // delivered-id FIFO to wrap. The simulation is deterministic, so
  // "long enough" is stable across runs.
  cluster.run_for(500 * sim::kMillisecond);
  // Provision pool slack: the live-command population drifts to rare new
  // maxima (queueing tail); each new maximum would otherwise cost one
  // heap block inside the counted window.
  for (NodeId n = 0; n < 3; ++n)
    cluster.replica_as<m2p::M2PaxosReplica>(n).prewarm_commands(4096);

  const std::uint64_t decided_before = cluster.delivered_at(0);
  if (std::getenv("M2_ALLOC_TRACE") != nullptr)
    g_trace.store(true, std::memory_order_relaxed);
  const std::uint64_t allocs_before = g_allocations.load();
  cluster.run_for(300 * sim::kMillisecond);
  const std::uint64_t allocs = g_allocations.load() - allocs_before;
  g_trace.store(false, std::memory_order_relaxed);
  const std::uint64_t decided = cluster.delivered_at(0) - decided_before;
  cluster.stop_clients();

  std::printf("alloc_regression[%s]: %llu decided, %llu steady-state "
              "allocations\n",
              name, static_cast<unsigned long long>(decided),
              static_cast<unsigned long long>(allocs));
  if (decided < 1000) {
    std::fprintf(stderr,
                 "FAIL[%s]: expected >= 1000 decided commands, got %llu\n",
                 name, static_cast<unsigned long long>(decided));
    return 1;
  }
  if (allocs != 0) {
    std::fprintf(stderr,
                 "FAIL[%s]: steady-state fast path allocated %llu times over "
                 "%llu decided commands (expected zero; rerun with "
                 "M2_ALLOC_TRACE=1 for backtraces)\n",
                 name, static_cast<unsigned long long>(allocs),
                 static_cast<unsigned long long>(decided));
    return 1;
  }
  std::printf("PASS[%s]: zero steady-state allocations per decided command\n",
              name);
  return 0;
}

/// Decodes one short frame whose last field is a count of 2^20 elements
/// and checks that decoding fails having requested at most a few kB.
int run_hostile_count(const char* name, void (*fields)(net::Writer&)) {
  constexpr std::uint64_t kClaimed = 1 << 20;
  constexpr std::uint64_t kMaxBytes = 4096;
  net::Writer w;
  fields(w);
  w.varint(kClaimed);
  // The first decode warms the wire arena, which takes a slab per size
  // class on first use; the second one is measured.
  (void)net::decode_payload(w.data());
  const std::uint64_t before = g_allocated_bytes.load();
  const bool decoded = net::decode_payload(w.data()) != nullptr;
  const std::uint64_t bytes = g_allocated_bytes.load() - before;
  std::printf("hostile_count[%s]: %zu-byte frame, %llu bytes requested\n",
              name, w.size(), static_cast<unsigned long long>(bytes));
  if (decoded || bytes > kMaxBytes) {
    std::fprintf(stderr,
                 "FAIL[%s]: a frame claiming %llu elements %s and requested "
                 "%llu bytes (limit %llu)\n",
                 name, static_cast<unsigned long long>(kClaimed),
                 decoded ? "decoded" : "was rejected",
                 static_cast<unsigned long long>(bytes),
                 static_cast<unsigned long long>(kMaxBytes));
    return 1;
  }
  return 0;
}

/// Command prefix up to its object count: id, payload bytes, flags.
void command_prefix(net::Writer& w, std::uint8_t flags) {
  w.u64(1);
  w.u32(0);
  w.u8(flags);
}

int run_hostile_counts() {
  int rc = 0;
  rc |= run_hostile_count("m2_accept_slots", [](net::Writer& w) {
    w.varint(net::kKindM2Paxos + 2);
    w.u64(1);  // req_id
  });
  rc |= run_hostile_count("command_objects", [](net::Writer& w) {
    w.varint(net::kKindM2Paxos + 1);  // Propose
    command_prefix(w, 0);
  });
  rc |= run_hostile_count("command_body", [](net::Writer& w) {
    w.varint(net::kKindM2Paxos + 1);
    command_prefix(w, 1u << 1);  // attached body
    w.varint(0);                 // no objects
  });
  rc |= run_hostile_count("mp_accept_tail", [](net::Writer& w) {
    w.varint(net::kKindMultiPaxos + 4);
    w.u64(1);  // ballot
    w.u64(1);  // slot
    command_prefix(w, 0);
    w.varint(0);
  });
  rc |= run_hostile_count("m2_ack_accept_hints", [](net::Writer& w) {
    w.varint(net::kKindM2Paxos + 3);
    w.u64(1);  // req_id
    w.u32(0);  // acceptor
    w.u8(0);   // nack
  });
  rc |= run_hostile_count("ep_attrs_deps", [](net::Writer& w) {
    w.varint(net::kKindEPaxos + 2);  // PreAcceptReply
    w.u64(1);  // inst
    w.u32(0);  // acceptor
    w.u8(0);   // changed
    w.u64(1);  // seq
  });
  if (rc == 0)
    std::printf("PASS[hostile_count]: oversized counts rejected before "
                "allocating\n");
  return rc;
}

int run() {
  int rc = run_hostile_counts();
  rc |= run_mix("fast_path", nullptr);
  // Batched mix: protocol-level command batching over a hot object set, so
  // the steady state exercises multi-command slot values, pooled batch
  // blocks, and pipelined accept rounds — all of which must recycle.
  rc |= run_mix("batched", [](wl::SyntheticConfig& wl_cfg,
                              harness::ExperimentConfig& cfg) {
    wl_cfg.objects_per_node = 128;
    cfg.cluster.batching.enabled = true;
  });
  return rc;
}

}  // namespace
}  // namespace m2

int main() { return m2::run(); }
