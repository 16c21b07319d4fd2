// Differential test: the slot-based EventQueue against a trivially correct
// reference (multimap keyed by (time, seq)) under randomized interleavings
// of schedule / cancel / pop, including adversarial cancels of fired and
// bogus ids.
#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "core/event_queue.hpp"
#include "sim/rng.hpp"

namespace m2::core {
namespace {

class ReferenceQueue {
 public:
  TimerHandle schedule(Time at) {
    const TimerHandle id = next_id_++;
    entries_.emplace(std::make_pair(at, id), id);
    by_id_.emplace(id, at);
    return id;
  }
  bool cancel(TimerHandle id) {
    auto it = by_id_.find(id);
    if (it == by_id_.end()) return false;
    entries_.erase({it->second, id});
    by_id_.erase(it);
    return true;
  }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  Time next_time() const {
    return entries_.empty() ? kTimeNever : entries_.begin()->first.first;
  }
  TimerHandle pop() {
    const TimerHandle id = entries_.begin()->second;
    by_id_.erase(id);
    entries_.erase(entries_.begin());
    return id;
  }

 private:
  // Seq == id here: both queues assign ids in schedule order, so the
  // (time, id) tie-break matches EventQueue's (time, seq) FIFO order.
  std::map<std::pair<Time, TimerHandle>, TimerHandle> entries_;
  std::map<TimerHandle, Time> by_id_;
  TimerHandle next_id_ = 1;
};

struct Param {
  std::uint64_t seed;
  int ops;
};

// Names the test cases (gtest_discover_tests prints the parameter into each
// name). gtest's default byte dump would include the struct's padding,
// which is uninitialized, so the names would differ between builds.
void PrintTo(const Param& p, std::ostream* os) {
  *os << "s" << p.seed << "_ops" << p.ops;
}

class EventQueueDifferential : public ::testing::TestWithParam<Param> {};

TEST_P(EventQueueDifferential, MatchesReference) {
  const auto p = GetParam();
  sim::Rng rng(p.seed);
  EventQueue q;
  ReferenceQueue ref;
  // Map from reference id -> (queue id, payload marker).
  std::map<TimerHandle, std::pair<TimerHandle, std::uint64_t>> live;
  std::vector<TimerHandle> fired_ids;  // for cancel-after-fire probes
  std::uint64_t fired_marker = 0;

  for (int op = 0; op < p.ops; ++op) {
    const auto roll = rng.uniform(10);
    if (roll < 5) {
      // schedule
      const Time at = static_cast<Time>(rng.uniform(1000));
      const std::uint64_t marker = rng.next();
      const TimerHandle rid = ref.schedule(at);
      const TimerHandle qid =
          q.schedule(at, [marker, &fired_marker] { fired_marker = marker; });
      live[rid] = {qid, marker};
    } else if (roll < 7 && !live.empty()) {
      // cancel a live event
      auto it = live.begin();
      std::advance(it, rng.uniform(live.size()));
      EXPECT_TRUE(ref.cancel(it->first));
      q.cancel(it->second.first);
      live.erase(it);
    } else if (roll == 7) {
      // adversarial cancels: bogus and already-fired ids must be no-ops
      q.cancel(kInvalidTimer);
      q.cancel(0xdeadbeefULL << 32);
      if (!fired_ids.empty())
        q.cancel(fired_ids[rng.uniform(fired_ids.size())]);
    } else if (!ref.empty()) {
      // pop and compare
      ASSERT_FALSE(q.empty());
      EXPECT_EQ(q.next_time(), ref.next_time());
      const TimerHandle rid = ref.pop();
      auto [t, fn] = q.pop();
      fn();
      ASSERT_TRUE(live.count(rid));
      EXPECT_EQ(fired_marker, live[rid].second) << "pop order diverged";
      fired_ids.push_back(live[rid].first);
      live.erase(rid);
    }
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
  }

  // Drain both; order must match exactly.
  while (!ref.empty()) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.next_time(), ref.next_time());
    const TimerHandle rid = ref.pop();
    auto [t, fn] = q.pop();
    fn();
    EXPECT_EQ(fired_marker, live[rid].second);
    live.erase(rid);
  }
  EXPECT_TRUE(q.empty());
}

INSTANTIATE_TEST_SUITE_P(Sweep, EventQueueDifferential,
                         ::testing::Values(Param{1, 2000}, Param{2, 2000},
                                           Param{3, 5000}, Param{4, 5000},
                                           Param{5, 10000}));

// Cancel-heavy workload: more than half of all scheduled events are
// cancelled, times are drawn from a tiny range so most heap entries tie on
// timestamp, and the queue is periodically drained to force slot reuse
// through the free list. Asserts (a) survivors fire in exact FIFO schedule
// order among equal times, (b) every survivor fires exactly once, and
// (c) no cancelled event's callback ever runs — i.e. a recycled slot never
// resurrects a stale callback.
class EventQueueCancelHeavy : public ::testing::TestWithParam<Param> {};

TEST_P(EventQueueCancelHeavy, FifoAndSlotReuseSurviveMassCancellation) {
  const auto p = GetParam();
  sim::Rng rng(p.seed);
  EventQueue q;
  ReferenceQueue ref;
  std::map<TimerHandle, TimerHandle> live;  // reference id -> queue id
  std::vector<int> fire_count;              // indexed by reference id
  std::vector<TimerHandle> stale_ids;       // cancelled/fired queue ids
  std::uint64_t scheduled = 0, cancelled = 0;
  fire_count.push_back(0);  // reference ids start at 1

  const auto drain_one = [&] {
    ASSERT_FALSE(q.empty());
    ASSERT_EQ(q.next_time(), ref.next_time());
    const TimerHandle rid = ref.pop();
    auto [t, fn] = q.pop();
    fn();
    ASSERT_EQ(fire_count[rid], 1) << "FIFO tie-break diverged at id " << rid;
    stale_ids.push_back(live[rid]);
    live.erase(rid);
  };

  for (int op = 0; op < p.ops; ++op) {
    const auto roll = rng.uniform(10);
    if (roll < 4) {
      // schedule; times in [0, 4) so ~25% of live events tie
      const Time at = static_cast<Time>(rng.uniform(4));
      const TimerHandle rid = ref.schedule(at);
      fire_count.push_back(0);
      live[rid] = q.schedule(at, [rid, &fire_count] { ++fire_count[rid]; });
      ++scheduled;
    } else if (roll < 8 && !live.empty()) {
      // cancel a random live event (dominant operation)
      auto it = live.begin();
      std::advance(it, rng.uniform(live.size()));
      ASSERT_TRUE(ref.cancel(it->first));
      q.cancel(it->second);
      stale_ids.push_back(it->second);
      live.erase(it);
      ++cancelled;
    } else if (roll == 8 && !stale_ids.empty()) {
      // stale cancels must not disturb whatever now occupies the slot
      for (int i = 0; i < 3 && i < static_cast<int>(stale_ids.size()); ++i)
        q.cancel(stale_ids[rng.uniform(stale_ids.size())]);
    } else if (!ref.empty()) {
      drain_one();
    }
    // Periodic full drain: empties the free list back to maximum, so the
    // next schedule burst reuses every slot.
    if (op % 257 == 256)
      while (!ref.empty()) drain_one();
    ASSERT_EQ(q.size(), ref.size());
  }
  while (!ref.empty()) drain_one();
  EXPECT_TRUE(q.empty());

  // The workload really was cancel-heavy.
  EXPECT_GE(2 * cancelled, scheduled)
      << cancelled << " cancels for " << scheduled << " schedules";
  // Survivors fired exactly once; cancelled events never fired.
  for (std::size_t rid = 1; rid < fire_count.size(); ++rid)
    EXPECT_LE(fire_count[rid], 1) << "event " << rid << " fired twice";
}

INSTANTIATE_TEST_SUITE_P(Sweep, EventQueueCancelHeavy,
                         ::testing::Values(Param{11, 4000}, Param{12, 4000},
                                           Param{13, 8000}));

// Directed slot-reuse probe: cancel an event, force its slot through the
// free list, schedule a new event into the recycled slot, then cancel the
// stale id. The stale cancel must be a no-op (generation mismatch) and the
// new event must still fire.
TEST(EventQueueSlotReuse, StaleCancelCannotKillRecycledSlot) {
  EventQueue q;
  for (int round = 0; round < 100; ++round) {
    bool stale_fired = false;
    const TimerHandle old_id =
        q.schedule(1, [&stale_fired] { stale_fired = true; });
    q.cancel(old_id);
    // Surfacing the tombstone recycles the slot into the free list.
    EXPECT_EQ(q.next_time(), kTimeNever);
    bool new_fired = false;
    const TimerHandle new_id =
        q.schedule(2, [&new_fired] { new_fired = true; });
    ASSERT_NE(new_id, old_id) << "generation must advance on reuse";
    q.cancel(old_id);  // stale: must not disarm the recycled slot
    ASSERT_FALSE(q.empty());
    auto [t, fn] = q.pop();
    fn();
    EXPECT_TRUE(new_fired);
    EXPECT_FALSE(stale_fired);
    q.cancel(new_id);  // fired: must be a no-op for the next round
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace m2::core
