// Stress tests for the calendar-queue event core (src/sim/simulator.cc).
//
// The queue replaced a binary heap and must preserve its observable
// contract exactly: pop order is ascending (time, seq) with FIFO among
// equal timestamps, cancellation is precise (stale generation-tagged
// handles never touch a reused slot), and none of this may depend on how
// events are distributed across ring buckets, the overflow ladder, or
// bucket-width retunes. The main test drives the Simulator and a
// std::priority_queue reference model through one deterministic script of
// interleaved schedule / cancel / reschedule / RunUntil operations --
// including callback-driven scheduling, which inserts at the scan point
// mid-drain -- and requires identical fire sequences.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <vector>

#include "src/common/time.h"
#include "src/obs/profiler.h"
#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

// ---------------------------------------------------------------------------
// Reference model: the old heap's semantics in ~40 lines.
// ---------------------------------------------------------------------------

struct RefEvent {
  int64_t when_us = 0;
  uint64_t seq = 0;   // schedule order; FIFO tie-break
  int id = 0;         // test-assigned identity, echoed into the fire log
  bool cancelled = false;
};

class ReferenceScheduler {
 public:
  // Returns an index usable with Cancel (mirrors EventHandle).
  size_t Schedule(int64_t when_us, int id) {
    RefEvent ev;
    ev.when_us = std::max(when_us, now_us_);  // past schedules run at Now()
    ev.seq = next_seq_++;
    ev.id = id;
    events_.push_back(ev);
    queue_.push(events_.size() - 1);
    return events_.size() - 1;
  }

  void Cancel(size_t handle) { events_[handle].cancelled = true; }

  // Pops events with when <= deadline in (when, seq) order; `on_fire` may
  // schedule more. Clock then advances to the deadline.
  void RunUntil(int64_t deadline_us,
                const std::function<void(int id)>& on_fire) {
    while (!queue_.empty() && events_[queue_.top()].when_us <= deadline_us) {
      const RefEvent ev = events_[queue_.top()];
      queue_.pop();
      if (ev.cancelled) {
        continue;
      }
      now_us_ = ev.when_us;
      fired_.push_back(ev.id);
      on_fire(ev.id);
    }
    now_us_ = std::max(now_us_, deadline_us);
  }

  int64_t now_us() const { return now_us_; }
  const std::vector<int>& fired() const { return fired_; }

 private:
  // Min-order on (when, seq): `a` sorts after `b` when it fires later.
  struct Later {
    const std::vector<RefEvent>* events;
    bool operator()(size_t a, size_t b) const {
      const RefEvent& ea = (*events)[a];
      const RefEvent& eb = (*events)[b];
      if (ea.when_us != eb.when_us) {
        return ea.when_us > eb.when_us;
      }
      return ea.seq > eb.seq;
    }
  };

  std::vector<RefEvent> events_;
  std::priority_queue<size_t, std::vector<size_t>, Later> queue_{
      Later{&events_}};
  std::vector<int> fired_;
  int64_t now_us_ = 0;
  uint64_t next_seq_ = 0;
};

// ---------------------------------------------------------------------------
// Deterministic operation script, replayed against both schedulers.
// ---------------------------------------------------------------------------

// Whether a fired event spawns a child, and at what offset. Pure functions
// of the event id, so the Simulator callback and the reference replay make
// identical decisions without sharing state.
bool SpawnsChild(int id) { return id % 5 == 0; }
int64_t ChildOffsetUs(int id) {
  // Mix of immediate (same-timestamp FIFO at the scan point), near
  // (in-bucket / next-bucket), and far (overflow ladder) children.
  switch (id % 3) {
    case 0:
      return 0;
    case 1:
      return 40'000 + (id % 977) * 1'000;  // tens of milliseconds
    default:
      return int64_t{3} * 86'400'000'000 + int64_t{id} * 1'000'000;  // days out
  }
}

TEST(CalendarQueueStressTest, MatchesPriorityQueueReferenceModel) {
  std::mt19937_64 rng(20260807);
  Simulator sim;
  ReferenceScheduler ref;

  std::vector<int> sim_fired;
  std::vector<EventHandle> sim_handles;
  std::vector<size_t> ref_handles;
  // One id counter per side. Identical fire sequences (asserted each
  // round) imply identical child-spawn order, so the counters stay in
  // lockstep without the sides sharing state.
  int sim_next_id = 0;
  int ref_next_id = 0;
  constexpr int kMaxIds = 120'000;  // bounds callback-driven growth

  std::function<void(int)> sim_fire = [&](int id) {
    sim_fired.push_back(id);
    if (SpawnsChild(id) && sim_next_id < kMaxIds) {
      const int child = sim_next_id++;
      sim_handles.push_back(
          sim.ScheduleAt(sim.Now() + SimDuration::Micros(ChildOffsetUs(id)),
                         [&sim_fire, child] { sim_fire(child); }));
    }
  };
  const std::function<void(int)> ref_fire = [&](int id) {
    if (SpawnsChild(id) && ref_next_id < kMaxIds) {
      const int child = ref_next_id++;
      ref_handles.push_back(
          ref.Schedule(ref.now_us() + ChildOffsetUs(id), child));
    }
  };

  for (int round = 0; round < 60; ++round) {
    // Schedule a batch: coarse 1-second quanta force heavy timestamp
    // collisions (FIFO pressure); the occasional huge offset lands in the
    // overflow ladder and forces wraps + bucket-width retunes later.
    const int batch = 50 + static_cast<int>(rng() % 200);
    for (int i = 0; i < batch; ++i) {
      int64_t offset_us;
      const uint64_t shape = rng() % 10;
      if (shape < 5) {
        offset_us = static_cast<int64_t>(rng() % 90) * 1'000'000;
      } else if (shape < 8) {
        offset_us = static_cast<int64_t>(rng() % 7'200'000'000);  // <= 2 h
      } else {
        // Up to ~60 days out: far beyond any ring window.
        offset_us = static_cast<int64_t>(rng() % 5'184'000'000'000);
      }
      const int id = sim_next_id++;
      ref_next_id++;
      const int64_t when_us = sim.Now().micros() + offset_us;
      sim_handles.push_back(sim.ScheduleAt(SimTime::FromMicros(when_us),
                                           [&sim_fire, id] { sim_fire(id); }));
      ref_handles.push_back(ref.Schedule(when_us, id));
    }

    // Cancel a handful of random handles -- live, already fired (stale
    // generation; the slot may have been reused by a later event), or
    // already cancelled. Both sides must agree on which are no-ops.
    const int cancels = static_cast<int>(rng() % 30);
    for (int i = 0; i < cancels; ++i) {
      const size_t victim = rng() % sim_handles.size();
      sim.Cancel(sim_handles[victim]);
      ref.Cancel(ref_handles[victim]);
    }

    // Reschedule: cancel + schedule a fresh event at a new time.
    const int reschedules = static_cast<int>(rng() % 10);
    for (int i = 0; i < reschedules; ++i) {
      const size_t victim = rng() % sim_handles.size();
      sim.Cancel(sim_handles[victim]);
      ref.Cancel(ref_handles[victim]);
      const int id = sim_next_id++;
      ref_next_id++;
      const int64_t when_us =
          sim.Now().micros() + static_cast<int64_t>(rng() % 600'000'000);
      sim_handles.push_back(sim.ScheduleAt(SimTime::FromMicros(when_us),
                                           [&sim_fire, id] { sim_fire(id); }));
      ref_handles.push_back(ref.Schedule(when_us, id));
    }

    // Advance both clocks by the same step. Occasionally jump far ahead so
    // the drain crosses many empty buckets and window wraps.
    const int64_t advance_us =
        rng() % 20 == 0
            ? static_cast<int64_t>(rng() % 864'000'000'000)  // <= 10 days
            : static_cast<int64_t>(rng() % 120'000'000);     // <= 2 min
    const int64_t deadline_us = sim.Now().micros() + advance_us;
    sim.RunUntil(SimTime::FromMicros(deadline_us));
    ref.RunUntil(deadline_us, ref_fire);

    ASSERT_EQ(sim.Now().micros(), ref.now_us()) << "round " << round;
    ASSERT_EQ(sim_fired, ref.fired()) << "diverged in round " << round;
    ASSERT_EQ(sim_next_id, ref_next_id) << "round " << round;
  }

  // Drain everything that's left; fire logs must match in full.
  sim.Run();
  ref.RunUntil(INT64_MAX / 2, ref_fire);
  EXPECT_EQ(sim_fired, ref.fired());
  EXPECT_TRUE(sim.empty());
}

// Equal timestamps must fire in schedule order even when the shared
// timestamp crosses calendar structures: some of these events are
// scheduled while the time is far outside the ring window (overflow
// ladder), the rest after the window has wrapped forward over it (ring
// bucket). The ladder-before-ring pop rule must not reorder them.
TEST(CalendarQueueStressTest, FifoPreservedAcrossOverflowAndRing) {
  Simulator sim;
  std::vector<int> order;
  const SimTime shared = SimTime::FromMicros(int64_t{30} * 86'400'000'000);
  for (int i = 0; i < 64; ++i) {
    // 30 days out: far beyond the initial ~72-minute window -> overflow.
    sim.ScheduleAt(shared, [&order, i] { order.push_back(i); });
  }
  // A nearer event whose execution drags the window toward `shared`, then
  // schedules the second half of the cohort from close range.
  sim.ScheduleAt(shared - SimDuration::Seconds(1), [&] {
    for (int i = 64; i < 128; ++i) {
      sim.ScheduleAt(shared, [&order, i] { order.push_back(i); });
    }
  });
  sim.Run();
  ASSERT_EQ(order.size(), 128u);
  for (int i = 0; i < 128; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i) << "position " << i;
  }
}

// ---------------------------------------------------------------------------
// Crowded buckets and window rebases.
// ---------------------------------------------------------------------------

// A cohort of 64 events spread over 30 days from `t0` makes the first
// Wrap() tune buckets to 2^30 us (~17.9 min) wide. Every `t0` below is a
// multiple of 2^30 us, so [t0, t0 + 60 s) sits inside one bucket for any
// width of a minute or more.
constexpr int kCohort = 64;
constexpr int64_t kCohortSpacingUs = int64_t{30} * 86'400'000'000 / kCohort;
constexpr int64_t kBucketUs = int64_t{1} << 30;

// A pseudo-random offset in [0, 60 s), quantized to 10 ms so that some
// events share a timestamp (FIFO pressure). A pure function of `id`.
int64_t ScatterUs(int id) {
  const uint64_t mixed = static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull;
  return static_cast<int64_t>((mixed >> 32) % 6'000) * 10'000;
}

// Thousands of events share the active bucket while fired callbacks keep
// scheduling children deep inside it (not at its back). Fire order must
// match the reference, and each event must be sorted at most once: inserts
// append to the bucket's unsorted tail, which is merged on contact instead
// of re-sorting the whole bucket.
TEST(CalendarQueueStressTest, CrowdedBucketSortsEachEventOnce) {
  const int64_t t0 = 81 * kBucketUs;  // ~1 day
  constexpr int64_t kCrowdUs = 60'000'000;
  constexpr int kCrowd = 2'400;

  // Event 0 (the cohort's first, at t0) schedules the crowd; every even
  // crowd event schedules a child between now and the crowd's end, so the
  // children total about one more crowd.
  const auto spawn = [&](int id, int64_t now_us, int& next_id,
                         const std::function<void(int64_t, int)>& schedule) {
    if (id == 0) {
      for (int i = 0; i < kCrowd; ++i) {
        const int child = next_id++;
        schedule(t0 + ScatterUs(child), child);
      }
    } else if (id >= kCohort && id % 2 == 0) {
      const int64_t room = t0 + kCrowdUs - now_us;
      const int child = next_id++;
      schedule(now_us + (room > 0 ? ScatterUs(child) % room : 0), child);
    }
  };

  EventCostProfiler profiler;
  Simulator sim;
  sim.set_profiler(&profiler);
  ReferenceScheduler ref;
  std::vector<int> sim_fired;
  int sim_next_id = kCohort;
  int ref_next_id = kCohort;
  std::function<void(int)> sim_fire = [&](int id) {
    sim_fired.push_back(id);
    spawn(id, sim.Now().micros(), sim_next_id, [&](int64_t when_us, int child) {
      sim.ScheduleAt(SimTime::FromMicros(when_us),
                     [&sim_fire, child] { sim_fire(child); });
    });
  };
  const std::function<void(int)> ref_fire = [&](int id) {
    spawn(id, ref.now_us(), ref_next_id, [&](int64_t when_us, int child) {
      ref.Schedule(when_us, child);
    });
  };
  for (int id = 0; id < kCohort; ++id) {
    const int64_t when_us = t0 + id * kCohortSpacingUs;
    sim.ScheduleAt(SimTime::FromMicros(when_us),
                   [&sim_fire, id] { sim_fire(id); });
    ref.Schedule(when_us, id);
  }

  sim.Run();
  ref.RunUntil(INT64_MAX / 2, ref_fire);
  ASSERT_EQ(sim_next_id, ref_next_id);
  ASSERT_GT(sim_next_id, kCohort + kCrowd + 2'000);
  EXPECT_EQ(sim_fired, ref.fired());
  EXPECT_EQ(profiler.stat(ProfileStat::kRingRebases), 0);
  EXPECT_LE(profiler.stat(ProfileStat::kLazySortedEvents),
            profiler.stat(ProfileStat::kRingInserts) +
                profiler.stat(ProfileStat::kOverflowSpills));
}

// The rebase scenario shared by the two tests below:
//   1. the cohort plus five out-of-order events in the bucket at `t0`;
//   2. RunUntil(12 h) wraps the window forward to `t0` and sorts that
//      bucket on contact (its whole content becomes the sorted prefix);
//   3. three more events append to it as an unsorted tail (one degrade);
//   4. an event at 12 h + 1 min falls below the window, so RebaseRingTo
//      slides the window back to it.
// Returns after step 4 with both sides at the same clock.
struct RebaseTwin {
  EventCostProfiler profiler;  // outlives `sim`, which points at it
  Simulator sim;
  ReferenceScheduler ref;
  std::vector<int> sim_fired;
  int next_id = 0;

  void Schedule(int64_t when_us) {
    const int id = next_id++;
    sim.ScheduleAt(SimTime::FromMicros(when_us),
                   [this, id] { sim_fired.push_back(id); });
    ref.Schedule(when_us, id);
  }

  void SetUpRebase(int64_t t0) {
    sim.set_profiler(&profiler);
    for (int i = 1; i < kCohort; ++i) {
      Schedule(t0 + i * kCohortSpacingUs);
    }
    for (const int64_t s : {50, 10, 40, 20, 30}) {
      Schedule(t0 + s * 1'000'000);
    }
    const int64_t deadline_us = int64_t{12} * 3'600'000'000;
    sim.RunUntil(SimTime::FromMicros(deadline_us));
    ref.RunUntil(deadline_us, [](int) {});
    ASSERT_TRUE(sim_fired.empty());
    ASSERT_EQ(profiler.stat(ProfileStat::kBucketDegrades), 0);
    for (const int64_t s : {45, 5, 25}) {
      Schedule(t0 + s * 1'000'000);
    }
    ASSERT_EQ(profiler.stat(ProfileStat::kBucketDegrades), 1);
    ASSERT_EQ(profiler.stat(ProfileStat::kRingRebases), 0);
    Schedule(deadline_us + 60'000'000);
    ASSERT_EQ(profiler.stat(ProfileStat::kRingRebases), 1);
  }

  void DrainAndCompare() {
    sim.Run();
    ref.RunUntil(INT64_MAX / 2, [](int) {});
    EXPECT_EQ(sim_fired, ref.fired());
    EXPECT_EQ(static_cast<int>(sim_fired.size()), next_id);
    EXPECT_TRUE(sim.empty());
  }
};

// The rebase keeps the bucket with a sorted prefix and an unsorted tail in
// the ring; its events must still fire in (time, seq) order.
TEST(CalendarQueueStressTest, RebaseKeepsSortedPrefixAndTailInOrder) {
  RebaseTwin twin;
  // ~1 day: stays inside the new window.
  ASSERT_NO_FATAL_FAILURE(twin.SetUpRebase(81 * kBucketUs));
  twin.DrainAndCompare();
}

// The rebase moves that bucket's events to the ladder, and later inserts
// refill the same bucket slot (one window width earlier) out of order. The
// slot must not keep the old bucket's sorted-prefix length.
TEST(CalendarQueueStressTest, RebaseEvictedBucketSortsItsRefill) {
  const int64_t t0 = 8'047 * kBucketUs;  // ~100 days: beyond the new window
  RebaseTwin twin;
  ASSERT_NO_FATAL_FAILURE(twin.SetUpRebase(t0));
  // 4096 buckets of 2^30 us: the slot that held `t0`'s bucket.
  const int64_t refill = t0 - 4'096 * kBucketUs;
  for (const int64_t s : {30, 10, 50, 20, 40, 0}) {
    twin.Schedule(refill + s * 1'000'000);
  }
  twin.DrainAndCompare();
}

// A handle from a completed event must never cancel the event that later
// reuses its slot: the slot's generation advances on release, and Cancel
// validates the generation before flipping anything.
TEST(CalendarQueueStressTest, StaleHandleCannotCancelReusedSlot) {
  Simulator sim;
  bool first_ran = false;
  const EventHandle stale =
      sim.ScheduleAt(SimTime::FromSeconds(1), [&] { first_ran = true; });
  sim.Run();
  ASSERT_TRUE(first_ran);

  // The freed slot is the only one in the pool, so this reuses it.
  bool second_ran = false;
  sim.ScheduleAt(SimTime::FromSeconds(2), [&] { second_ran = true; });
  sim.Cancel(stale);  // stale generation: must be a no-op
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_TRUE(second_ran);

  // Double-cancel through the same reuse path: cancelling twice (second
  // time stale) must not corrupt the pending count.
  bool third_ran = false;
  const EventHandle live =
      sim.ScheduleAt(SimTime::FromSeconds(3), [&] { third_ran = true; });
  sim.Cancel(live);
  sim.Cancel(live);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Run();
  EXPECT_FALSE(third_ran);
}

}  // namespace
}  // namespace spotcheck
