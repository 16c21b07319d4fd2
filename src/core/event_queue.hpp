#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/inline_fn.hpp"
#include "core/time.hpp"

namespace m2::core {

/// Handle to a scheduled event or timer; usable for cancellation. Both
/// backends mint these from an EventQueue, and 0 is never minted, so
/// replicas use kInvalidTimer as their "no timer armed" sentinel.
using TimerHandle = std::uint64_t;
inline constexpr TimerHandle kInvalidTimer = 0;

/// Min-heap of timestamped callbacks with stable FIFO ordering for equal
/// timestamps (insertion order breaks ties), which keeps runs deterministic.
/// The one timer queue of the tree: the simulator's event loop, each
/// runtime node's timers and the chaos transport's hold-back queue.
///
/// Designed for the simulator's hot path: heap entries are 16-byte PODs
/// (time, plus sequence number and slot index packed into one word);
/// callbacks are InlineFn (small-buffer storage, no heap allocation for
/// ordinary captures) living in a slot table with generation counters, so
/// schedule/cancel/pop are O(log n) with no hashing and cancellation is an
/// O(1) tombstone. Stale ids (already fired or cancelled) are detected via
/// the generation and ignored. The heap is 4-ary: half the depth of a
/// binary heap, so pops move half as many entries, and the four children
/// scanned per level sit in one-and-a-bit cache lines. Slots live in
/// fixed-size chunks whose addresses never move, so growing the table never
/// relocates live callbacks, and pop_run can invoke a callback directly
/// from its slot — zero InlineFn relocations per event: the callable is
/// constructed in its slot by schedule() and fired from it by pop_run().
class EventQueue {
 public:
  /// Slot indices share a word with the FIFO sequence number (low 24 bits
  /// slot, high 40 bits seq), capping concurrently-scheduled events at
  /// ~16.7M and total schedules at ~1.1T — both beyond what a simulated
  /// cluster or a runtime node generates (checked by assert in schedule()).
  static constexpr std::uint32_t kMaxLiveEvents = 1u << 24;
  /// Schedules a callable at absolute time `at`, constructing it directly
  /// in the slot table. Returns a cancellable handle.
  template <typename F>
  TimerHandle schedule(Time at, F&& fn) {
    assert(at >= 0);
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = n_slots_++;
      assert(slot < kMaxLiveEvents);
      if ((slot & (kChunkSize - 1)) == 0) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
        // Every heap entry / free-list entry refers to a distinct slot, so
        // neither vector can outgrow the slot table. Reserving alongside it
        // (geometrically, to keep growth amortized) keeps release_slot and
        // push_back allocation-free afterwards — in particular during the
        // end-of-run drain, whose free-list high-water mark (all slots
        // released, none reused) a steady run never hits.
        const std::size_t cap = chunks_.size() * std::size_t{kChunkSize};
        if (free_slots_.capacity() < cap)
          free_slots_.reserve(std::max(cap, 2 * free_slots_.capacity()));
        if (heap_.capacity() < cap)
          heap_.reserve(std::max(cap, 2 * heap_.capacity()));
      }
    }
    Slot& s = slot_ref(slot);
    s.fn.emplace(std::forward<F>(fn));
    s.armed = true;

    heap_push(HeapEntry{at, (next_seq_++ << kSlotBits) | slot});
    ++live_;
    return encode(s.gen, slot);
  }

  /// Cancels a pending event. Cancelling an already-fired or unknown id is
  /// a no-op.
  void cancel(TimerHandle id) {
    if (id == kInvalidTimer) return;
    const auto slot = static_cast<std::uint32_t>((id & 0xffffffffu) - 1);
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    if (slot >= n_slots_) return;
    Slot& s = slot_ref(slot);
    if (s.gen != gen || !s.armed) return;  // stale or already fired
    s.armed = false;
    s.fn = nullptr;  // free captured state immediately
    --live_;
    // The heap entry stays and is discarded when it surfaces; the slot is
    // only recycled then (a reuse before that would alias the stale entry).
  }

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Timestamp of the earliest live event; kTimeNever when empty.
  /// (Non-const: lazily discards cancelled heap tops.)
  Time next_time() {
    drop_cancelled();
    return heap_.empty() ? kTimeNever : heap_.front().at;
  }

  /// Fires the earliest live event in place: advances `clock` to the
  /// event's timestamp, then invokes the callback directly from its slot
  /// (stable chunk storage, no relocate). Requires !empty(). The slot is
  /// disarmed and the event counted as consumed before the call, so the
  /// callback may freely schedule new events or cancel its own (now stale)
  /// id; the slot itself is only recycled after the callback returns.
  void pop_run(Time& clock) {
    drop_cancelled();
    assert(!heap_.empty());
    const HeapEntry top = heap_.front();
    heap_pop();
    const std::uint32_t slot = entry_slot(top);
    Slot& s = slot_ref(slot);
    s.armed = false;
    --live_;
    assert(top.at >= clock);
    clock = top.at;
    s.fn();
    s.fn = nullptr;
    ++s.gen;
    free_slots_.push_back(slot);
  }

  /// Fires in place, in (time, schedule order), every live event with
  /// timestamp <= `now` that was scheduled before this call; returns the
  /// count fired. An event a callback schedules waits for the next call,
  /// even at a timestamp <= now, so the caller's other work (a runtime
  /// node's inbox) runs between passes.
  std::size_t run_due(Time now) {
    const std::uint64_t first_new = next_seq_ << kSlotBits;
    std::size_t fired = 0;
    Time clock = 0;  // pop_run's clock; timestamps are >= 0
    while (next_time() <= now && heap_.front().seq_slot < first_new) {
      pop_run(clock);
      ++fired;
    }
    return fired;
  }

  /// Moves the earliest live event's callback into `out` (one relocate)
  /// and returns its timestamp. Requires !empty(). The slot is released
  /// before returning, so the callback may freely schedule new events.
  Time pop_into(InlineFn& out) {
    drop_cancelled();
    assert(!heap_.empty());
    const HeapEntry top = heap_.front();
    heap_pop();
    const std::uint32_t slot = entry_slot(top);
    out = std::move(slot_ref(slot).fn);
    release_slot(slot);
    --live_;
    return top.at;
  }

  /// Pops and returns the earliest live event. Requires !empty().
  std::pair<Time, InlineFn> pop() {
    InlineFn fn;
    const Time at = pop_into(fn);
    return {at, std::move(fn)};
  }

 private:
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  struct HeapEntry {
    Time at;
    /// (seq << kSlotBits) | slot. Comparing seq_slot compares seq: two
    /// entries never share a seq, so the slot bits cannot decide.
    std::uint64_t seq_slot;
  };
  struct Slot {
    InlineFn fn;
    std::uint32_t gen = 1;
    bool armed = false;
  };

  static std::uint32_t entry_slot(const HeapEntry& e) {
    return static_cast<std::uint32_t>(e.seq_slot) & (kMaxLiveEvents - 1);
  }

  // Id layout: generation in the high 32 bits, slot index + 1 below (so an
  // id is never 0 == kInvalidTimer).
  static TimerHandle encode(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<TimerHandle>(gen) << 32) | (slot + 1);
  }

  /// (at, seq_slot) as one 128-bit key: the comparison compiles to a
  /// branchless cmp/sbb pair. Times are non-negative (asserted in
  /// schedule()), so the signed->unsigned cast preserves order.
  static unsigned __int128 key(const HeapEntry& e) {
    return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(e.at))
            << 64) |
           e.seq_slot;
  }

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return key(a) < key(b);
  }

  /// 4-ary sift-up insertion with a hole (entries are copied down once,
  /// the new entry written once, instead of pairwise swaps).
  void heap_push(HeapEntry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  /// Removes the heap root: the last entry is sifted down into the hole.
  void heap_pop() {
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = (i << 2) + 1;
      if (first >= n) break;
      std::size_t best = first;
      if (first + 4 <= n) {  // full fan-out: unrolled branchless scan
        if (earlier(heap_[first + 1], heap_[best])) best = first + 1;
        if (earlier(heap_[first + 2], heap_[best])) best = first + 2;
        if (earlier(heap_[first + 3], heap_[best])) best = first + 3;
      } else {
        for (std::size_t c = first + 1; c < n; ++c)
          if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

  /// Recycles a slot whose heap entry has been popped. Every caller has
  /// already emptied the callback (pop_into moves it out, cancel nulls it),
  /// so no destruction happens here.
  void release_slot(std::uint32_t slot) {
    Slot& s = slot_ref(slot);
    assert(!s.fn);
    ++s.gen;
    s.armed = false;
    free_slots_.push_back(slot);
  }

  /// Pops cancelled entries off the heap top. Every armed slot has exactly
  /// one heap entry, so heap size == live count means no tombstones and the
  /// per-pop slot-table probe can be skipped entirely.
  void drop_cancelled() {
    if (heap_.size() == live_) return;
    while (!heap_.empty() && !slot_ref(entry_slot(heap_.front())).armed) {
      const std::uint32_t slot = entry_slot(heap_.front());
      heap_pop();
      release_slot(slot);
    }
  }

  Slot& slot_ref(std::uint32_t i) {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }

  std::vector<HeapEntry> heap_;
  /// Slot storage: fixed chunks, stable addresses (see class comment).
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t n_slots_ = 0;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace m2::core
