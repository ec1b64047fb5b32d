// Stress tests for the event queue (src/sim/simulator.cc).
//
// The queue must keep its observable contract exactly: pop order is
// ascending (time, seq) with FIFO among equal timestamps, every queued
// event fires exactly once, and none of this may depend on where an event
// sits in the 4-ary callback heap or on the replay streams beside it. The
// suite and case names date from the calendar queue the heap replaced; the
// scripts still cross the shapes that queue found hard (far-future
// cohorts, crowded instants, clock rollback) and stay as heap tests.
//
// The main test drives the Simulator and a std::priority_queue reference
// model through one deterministic script of interleaved schedule / attach /
// RunUntil / Step operations -- including callback-driven scheduling,
// which inserts mid-drain, and replay streams, which the kernel queues one
// point at a time but the model schedules whole at attach -- and requires
// identical fire sequences. The streams seek: each has a quiet band of
// point prices whose fire is a no-op, which callbacks and stream fires
// narrow and widen as they run. The kernel skips quiet points; the model
// fires every point and treats a quiet one as a no-op.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

// ---------------------------------------------------------------------------
// Reference model: the queue's contract on a std::priority_queue.
// ---------------------------------------------------------------------------

struct RefEvent {
  int64_t when_us = 0;
  uint64_t seq = 0;   // schedule order; FIFO tie-break
  int id = 0;         // test-assigned identity, echoed into the fire log
};

class ReferenceScheduler {
 public:
  void Schedule(int64_t when_us, int id) {
    RefEvent ev;
    ev.when_us = std::max(when_us, now_us_);  // past schedules run at Now()
    ev.seq = next_seq_++;
    ev.id = id;
    events_.push_back(ev);
    queue_.push(events_.size() - 1);
  }

  // A replay stream as the kernel promises to run it: every point at or
  // after now is scheduled here, in index order, so the points take
  // consecutive sequence numbers at attach. Point i fires as first_id + i.
  void AttachStream(const std::vector<int64_t>& times_us, int first_id) {
    for (size_t i = 0; i < times_us.size(); ++i) {
      if (times_us[i] >= now_us_) {
        Schedule(times_us[i], first_id + static_cast<int>(i));
      }
    }
  }

  // Pops events with when <= deadline in (when, seq) order; `on_fire` may
  // schedule more. Clock then advances to the deadline.
  void RunUntil(int64_t deadline_us,
                const std::function<void(int id)>& on_fire) {
    while (!queue_.empty() && events_[queue_.top()].when_us <= deadline_us) {
      Step(on_fire);
    }
    now_us_ = std::max(now_us_, deadline_us);
  }

  // Pops and fires the earliest event; false if none is queued. An event
  // `quiet` names at its turn is popped as a no-op: not fired, not logged.
  bool Step(const std::function<void(int id)>& on_fire) {
    if (queue_.empty()) {
      return false;
    }
    const RefEvent ev = events_[queue_.top()];
    queue_.pop();
    now_us_ = ev.when_us;
    if (quiet && quiet(ev.id)) {
      return true;
    }
    fired_.push_back(ev.id);
    on_fire(ev.id);
    return true;
  }

  std::function<bool(int id)> quiet;

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
  // Mix of immediate (same-timestamp FIFO behind the running event), near
  // (tens of milliseconds) and far (days out) children.
  switch (id % 3) {
    case 0:
      return 0;
    case 1:
      return 40'000 + (id % 977) * 1'000;  // tens of milliseconds
    default:
      return int64_t{3} * 86'400'000'000 + int64_t{id} * 1'000'000;  // days out
  }
}

// Whether a fired event (a callback or a stream point) attaches a new
// replay stream from inside its fire.
bool AttachesStream(int id) { return id % 211 == 0; }

// A replay stream's time column. It starts up to two hours before
// `now_us`, so attach skips a prefix, and always holds a point exactly at
// `now_us`, which attach must keep. Gaps are drawn from zero (equal times
// within the trace) to ten days. A pure
// function of its arguments, so both sides build the same column.
std::vector<int64_t> StreamTimes(uint64_t key, int64_t now_us) {
  std::mt19937_64 rng(key);
  const int64_t lead = static_cast<int64_t>(rng() % 7'200'000'000);
  int64_t at = std::max<int64_t>(0, now_us - lead);
  const int points = 4 + static_cast<int>(rng() % 40);
  std::vector<int64_t> times;
  for (int i = 0; i < points; ++i) {
    times.push_back(at);
    switch (rng() % 4) {
      case 0:
        break;  // the next point shares this time
      case 1:
        at += static_cast<int64_t>(rng() % 1'000'000);
        break;
      case 2:
        at += static_cast<int64_t>(rng() % 3'600'000'000);
        break;
      default:
        at += static_cast<int64_t>(rng() % 864'000'000'000);
        break;
    }
  }
  times.insert(std::lower_bound(times.begin(), times.end(), now_us), now_us);
  return times;
}

// A quiet band: the point prices p with above < p <= at_or_below, whose
// fire is a no-op. Empty when above >= at_or_below.
struct Band {
  double above = 0.0;
  double at_or_below = 0.0;
  bool Contains(double price) const {
    return above < price && price <= at_or_below;
  }
  bool Empty() const { return !(above < at_or_below); }
};
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Band kNeverQuiet{kInf, -kInf};
constexpr Band kAlwaysQuiet{-kInf, kInf};

// True iff `now` exposes a point `before` kept quiet (the market's rule).
bool Narrows(const Band& now, const Band& before) {
  return !before.Empty() && (now.Empty() || now.above > before.above ||
                             now.at_or_below < before.at_or_below);
}

uint64_t Mix(uint64_t x) {
  x ^= x >> 31;
  x *= 0x9E3779B97F4A7C15ull;
  x ^= x >> 29;
  return x;
}

// Point i's price in the stream made from `key`: an integer in [0, 100).
double PointPrice(uint64_t key, size_t index) {
  return static_cast<double>(Mix(key * 1'000'003 + index) % 100);
}

// A band drawn from `seed`: never quiet, always quiet, or a random window
// of prices, so a change may narrow, widen or shift the band.
Band DrawBand(uint64_t seed) {
  const uint64_t h = Mix(seed + 77);
  switch (h % 5) {
    case 0:
      return kNeverQuiet;
    case 1:
      return kAlwaysQuiet;
    default: {
      const double above = static_cast<double>((h >> 8) % 100) - 10.0;
      return Band{above, above + static_cast<double>((h >> 20) % 90)};
    }
  }
}

// Which events change a band, and which stream's: a fired stream point
// picks its own stream half the time, so reseeks also come from inside a
// stream's own fire.
bool ChangesBand(int id) { return id % 7 == 3 || id % 11 == 5; }

// The stream shapes both sides attach, in attach order. Point i of stream
// k fires as first_id + i.
struct StreamShape {
  uint64_t key;
  int first_id;
  int size;
};

// The stream whose block of ids holds `id`, or -1 for a callback id.
int StreamOf(const std::vector<StreamShape>& shapes, int id) {
  for (size_t k = 0; k < shapes.size(); ++k) {
    if (id >= shapes[k].first_id && id < shapes[k].first_id + shapes[k].size) {
      return static_cast<int>(k);
    }
  }
  return -1;
}

int BandTarget(const std::vector<StreamShape>& shapes, int id) {
  const int own = StreamOf(shapes, id);
  if (own >= 0 && id % 2 == 0) {
    return own;
  }
  return static_cast<int>(static_cast<size_t>(id) % shapes.size());
}

// A time in `times` at or after `now_us` shared by two points when there
// is one, drawn with `seed`; -1 if no point is at or after `now_us`.
int64_t PickPointTime(const std::vector<int64_t>& times, int64_t now_us,
                      uint64_t seed) {
  const auto first = static_cast<size_t>(
      std::lower_bound(times.begin(), times.end(), now_us) - times.begin());
  if (first == times.size()) {
    return -1;
  }
  std::vector<int64_t> shared;
  for (size_t i = first; i + 1 < times.size(); ++i) {
    if (times[i] == times[i + 1]) {
      shared.push_back(times[i]);
    }
  }
  if (!shared.empty()) {
    return shared[Mix(seed) % shared.size()];
  }
  return times[first + Mix(seed) % (times.size() - first)];
}

TEST(CalendarQueueStressTest, MatchesPriorityQueueReferenceModel) {
  std::mt19937_64 rng(20260807);
  Simulator sim;
  ReferenceScheduler ref;

  std::vector<int> sim_fired;
  // One id counter per side. Identical fire sequences (asserted each
  // round) imply identical child-spawn, attach and band-change order, so
  // the counters, shapes and bands stay in lockstep without the sides
  // sharing mutable state. A stream takes one id per point of its column,
  // skipped points included.
  int sim_next_id = 0;
  int ref_next_id = 0;
  constexpr int kMaxIds = 120'000;  // bounds callback-driven growth

  // Callbacks that make one stream's band empty, scheduled at a time one
  // of its points shares: id -> stream. Written only between runs.
  std::map<int, int> empties_stream;

  // --- the kernel's side ---
  // The streams' columns and fire contexts must outlive them, so both
  // live in deques (stable addresses).
  struct StreamCtx {
    std::function<void(int)>* fire;
    int first_id;  // point i fires as first_id + i
    uint64_t key;
    size_t size;
    Band band;
    Band seek_band = kAlwaysQuiet;  // the band the last seek used
    uint32_t id = 0;                // the kernel's stream id
  };
  std::deque<std::vector<int64_t>> columns;
  std::deque<StreamCtx> contexts;
  std::vector<StreamShape> sim_shapes;
  std::function<void(int)> sim_fire;
  const auto sim_set_band = [&](int k, Band band, bool always_reseek) {
    StreamCtx& ctx = contexts[static_cast<size_t>(k)];
    ctx.band = band;
    if (always_reseek || Narrows(band, ctx.seek_band)) {
      sim.ReseekStream(ctx.id);
    }
  };
  const auto sim_attach = [&](uint64_t key, Band band) {
    const std::vector<int64_t>& times =
        columns.emplace_back(StreamTimes(key, sim.Now().micros()));
    StreamCtx& ctx = contexts.emplace_back(
        StreamCtx{&sim_fire, sim_next_id, key, times.size(), band});
    sim_shapes.push_back(
        StreamShape{key, sim_next_id, static_cast<int>(times.size())});
    sim_next_id += static_cast<int>(times.size());
    ctx.id = sim.AttachReplayStream(
        times,
        [](void* c, uint32_t index) {
          const auto* stream = static_cast<const StreamCtx*>(c);
          if (stream->band.Contains(PointPrice(stream->key, index))) {
            return;  // quiet now: the band widened after the seek
          }
          (*stream->fire)(stream->first_id + static_cast<int>(index));
        },
        &ctx,
        [](void* c, uint32_t from) {
          auto* stream = static_cast<StreamCtx*>(c);
          stream->seek_band = stream->band;
          auto i = static_cast<size_t>(from);
          while (i < stream->size &&
                 stream->band.Contains(PointPrice(stream->key, i))) {
            ++i;
          }
          return static_cast<uint32_t>(i);
        });
  };

  // --- the reference's side ---
  std::vector<StreamShape> ref_shapes;
  std::vector<Band> ref_bands;
  const auto ref_attach = [&](uint64_t key, Band band) {
    const std::vector<int64_t> times = StreamTimes(key, ref.now_us());
    ref_shapes.push_back(
        StreamShape{key, ref_next_id, static_cast<int>(times.size())});
    ref_bands.push_back(band);
    ref.AttachStream(times, ref_next_id);
    ref_next_id += static_cast<int>(times.size());
  };
  ref.quiet = [&](int id) {
    const int k = StreamOf(ref_shapes, id);
    if (k < 0) {
      return false;
    }
    const StreamShape& shape = ref_shapes[static_cast<size_t>(k)];
    return ref_bands[static_cast<size_t>(k)].Contains(PointPrice(
        shape.key, static_cast<size_t>(id - shape.first_id)));
  };

  sim_fire = [&](int id) {
    sim_fired.push_back(id);
    if (const auto it = empties_stream.find(id); it != empties_stream.end()) {
      sim_set_band(it->second, kNeverQuiet, false);
    }
    if (ChangesBand(id)) {
      sim_set_band(BandTarget(sim_shapes, id),
                   DrawBand(static_cast<uint64_t>(id)), id % 3 == 0);
    }
    if (SpawnsChild(id) && sim_next_id < kMaxIds) {
      const int child = sim_next_id++;
      sim.ScheduleAt(sim.Now() + SimDuration::Micros(ChildOffsetUs(id)),
                     [&sim_fire, child] { sim_fire(child); });
    }
    if (AttachesStream(id) && sim_next_id < kMaxIds) {
      sim_attach(static_cast<uint64_t>(id),
                 DrawBand(static_cast<uint64_t>(id) + 1));
    }
  };
  const std::function<void(int)> ref_fire = [&](int id) {
    if (const auto it = empties_stream.find(id); it != empties_stream.end()) {
      ref_bands[static_cast<size_t>(it->second)] = kNeverQuiet;
    }
    if (ChangesBand(id)) {
      ref_bands[static_cast<size_t>(BandTarget(ref_shapes, id))] =
          DrawBand(static_cast<uint64_t>(id));
    }
    if (SpawnsChild(id) && ref_next_id < kMaxIds) {
      const int child = ref_next_id++;
      ref.Schedule(ref.now_us() + ChildOffsetUs(id), child);
    }
    if (AttachesStream(id) && ref_next_id < kMaxIds) {
      ref_attach(static_cast<uint64_t>(id),
                 DrawBand(static_cast<uint64_t>(id) + 1));
    }
  };

  // Schedules, on both sides, a callback at `when_us` that empties stream
  // k's band.
  const auto schedule_emptier = [&](int64_t when_us, int k) {
    const int id = sim_next_id++;
    ref_next_id++;
    empties_stream[id] = k;
    sim.ScheduleAt(SimTime::FromMicros(when_us),
                   [&sim_fire, id] { sim_fire(id); });
    ref.Schedule(when_us, id);
  };

  int64_t emptiers_before = 0;
  int64_t emptiers_after = 0;
  for (int round = 0; round < 60; ++round) {
    // Attach a stream between runs: the clock then sits on the last
    // deadline, usually between two events. Every third such stream starts
    // quiet at every price and is woken by a callback at a time two of its
    // points share. Scheduled before the attach, that callback precedes
    // the points at its time, which must then fire; scheduled after, it
    // follows them, and they stay skipped.
    if (round % 3 == 0) {
      const uint64_t key = 1'000'000 + static_cast<uint64_t>(round);
      const int k = static_cast<int>(sim_shapes.size());
      const bool sleeper = round % 9 == 0 || round % 9 == 3;
      const Band band = sleeper ? kAlwaysQuiet : DrawBand(key);
      const int64_t wake_us = PickPointTime(
          StreamTimes(key, sim.Now().micros()), sim.Now().micros(), key);
      if (sleeper && round % 9 == 0 && wake_us >= 0) {
        schedule_emptier(wake_us, k);
        ++emptiers_before;
      }
      sim_attach(key, band);
      ref_attach(key, band);
      if (sleeper && round % 9 == 3 && wake_us >= 0) {
        schedule_emptier(wake_us, k);
        ++emptiers_after;
      }
    }

    // Schedule a batch: coarse 1-second quanta force heavy timestamp
    // collisions (FIFO pressure); the occasional huge offset parks an
    // event deep in the heap for many rounds.
    const int batch = 50 + static_cast<int>(rng() % 200);
    for (int i = 0; i < batch; ++i) {
      int64_t offset_us;
      const uint64_t shape = rng() % 10;
      if (shape < 5) {
        offset_us = static_cast<int64_t>(rng() % 90) * 1'000'000;
      } else if (shape < 8) {
        offset_us = static_cast<int64_t>(rng() % 7'200'000'000);  // <= 2 h
      } else {
        // Up to ~60 days out.
        offset_us = static_cast<int64_t>(rng() % 5'184'000'000'000);
      }
      const int id = sim_next_id++;
      ref_next_id++;
      const int64_t when_us = sim.Now().micros() + offset_us;
      sim.ScheduleAt(SimTime::FromMicros(when_us),
                     [&sim_fire, id] { sim_fire(id); });
      ref.Schedule(when_us, id);
    }

    // A few single steps: each pops whichever of a callback and a stream
    // point is due first, and leaves the clock on it. The model also pops
    // the quiet points the kernel skips, so it steps until its log and
    // clock catch up.
    const int steps = static_cast<int>(rng() % 4);
    for (int i = 0; i < steps; ++i) {
      if (!sim.Step()) {
        break;
      }
      while ((ref.fired().size() < sim_fired.size() ||
              ref.now_us() < sim.Now().micros()) &&
             ref.Step(ref_fire)) {
      }
      ASSERT_EQ(sim_fired, ref.fired()) << "round " << round;
      ASSERT_EQ(sim.Now().micros(), ref.now_us()) << "round " << round;
    }

    // Advance both clocks by the same step. Occasionally jump far ahead so
    // one drain pops a long run of events.
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
  // Streams attached from inside fires, as well as between runs.
  EXPECT_GT(columns.size(), 20u + 5u);
  EXPECT_GT(emptiers_before, 0);
  EXPECT_GT(emptiers_after, 0);
}

// Equal timestamps must fire in schedule order however far apart they
// were scheduled: half of this cohort is queued 30 days ahead, the rest
// one second before its time, by an event that has sifted through the
// heap past the first half.
TEST(CalendarQueueStressTest, FifoPreservedAcrossOverflowAndRing) {
  Simulator sim;
  std::vector<int> order;
  const SimTime shared = SimTime::FromMicros(int64_t{30} * 86'400'000'000);
  for (int i = 0; i < 64; ++i) {
    // 30 days out.
    sim.ScheduleAt(shared, [&order, i] { order.push_back(i); });
  }
  // A nearer event schedules the second half of the cohort from close
  // range.
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
// Heap depths.
// ---------------------------------------------------------------------------

// A 4-ary heap fills a level at 1, 5, 21, 85 ... entries. Each depth below
// is held through `depth` pops and then drained: the root alone, the
// root's children filling (2-5), the third level with one node's children
// partly filled (16), then full (17), then the level complete (21), and a
// ten-level heap (100,001). Events fall due at two timestamps, so each
// timestamp holds a FIFO cohort, and an event due now sifts up past
// earlier-scheduled ones due a second later. Every pop moves the last
// entry to the root and sifts it down.
TEST(EventQueueStressTest, HeapDepthSweepMatchesReferenceModel) {
  // Event `id` falls due 0 or 1 s after it is scheduled.
  const auto delay_us = [](int id) {
    return static_cast<int64_t>(Mix(static_cast<uint64_t>(id)) % 2) *
           1'000'000;
  };
  for (const int depth : {1, 2, 3, 4, 5, 16, 17, 21, 100'001}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    Simulator sim;
    ReferenceScheduler ref;
    std::vector<int> sim_fired;
    // Each of the first `depth` fires schedules one more event, so the
    // heap holds `depth` entries through `depth` pops.
    int sim_next_id = depth;
    int ref_next_id = depth;
    std::function<void(int)> sim_fire = [&](int id) {
      sim_fired.push_back(id);
      if (sim_next_id < 2 * depth) {
        const int child = sim_next_id++;
        sim.ScheduleAt(sim.Now() + SimDuration::Micros(delay_us(child)),
                       [&sim_fire, child] { sim_fire(child); });
      }
    };
    const std::function<void(int)> ref_fire = [&](int) {
      if (ref_next_id < 2 * depth) {
        const int child = ref_next_id++;
        ref.Schedule(ref.now_us() + delay_us(child), child);
      }
    };
    for (int id = 0; id < depth; ++id) {
      sim.ScheduleAt(SimTime::FromMicros(delay_us(id)),
                     [&sim_fire, id] { sim_fire(id); });
      ref.Schedule(delay_us(id), id);
    }
    ASSERT_EQ(sim.pending_events(), static_cast<size_t>(depth));

    sim.Run();
    ref.RunUntil(INT64_MAX / 2, ref_fire);
    ASSERT_EQ(sim_fired.size(), static_cast<size_t>(2 * depth));
    ASSERT_EQ(ref.fired().size(), sim_fired.size());
    const auto diverged =
        std::mismatch(sim_fired.begin(), sim_fired.end(), ref.fired().begin());
    EXPECT_TRUE(diverged.first == sim_fired.end())
        << "first divergence at pop " << (diverged.first - sim_fired.begin());
    EXPECT_TRUE(sim.empty());
  }
}

// ---------------------------------------------------------------------------
// Crowded instants and clock rollback.
// ---------------------------------------------------------------------------

// A cohort of 64 events spread over 30 days from `t0`. Every `t0` below is
// a multiple of 2^30 us (~17.9 min), the unit the scripts are laid out in.
constexpr int kCohort = 64;
constexpr int64_t kCohortSpacingUs = int64_t{30} * 86'400'000'000 / kCohort;
constexpr int64_t kBucketUs = int64_t{1} << 30;

// A pseudo-random offset in [0, 60 s), quantized to 10 ms so that some
// events share a timestamp (FIFO pressure). A pure function of `id`.
int64_t ScatterUs(int id) {
  const uint64_t mixed = static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull;
  return static_cast<int64_t>((mixed >> 32) % 6'000) * 10'000;
}

// Thousands of events share one minute while fired callbacks keep
// scheduling children between now and its end, so most inserts land
// before events already queued. Fire order must match the reference.
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

  Simulator sim;
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
}

// The rollback scenario shared by the two tests below:
//   1. the cohort plus five out-of-order events in the minute after `t0`;
//   2. RunUntil(12 h) peeks at `t0`, past its deadline, and leaves the
//      clock at 12 h, before everything queued;
//   3. three more events land among the five;
//   4. an event at 12 h + 1 min lands before all of them.
// Returns after step 4 with both sides at the same clock.
struct RebaseTwin {
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
    for (const int64_t s : {45, 5, 25}) {
      Schedule(t0 + s * 1'000'000);
    }
    Schedule(deadline_us + 60'000'000);
  }

  void DrainAndCompare() {
    sim.Run();
    ref.RunUntil(INT64_MAX / 2, [](int) {});
    EXPECT_EQ(sim_fired, ref.fired());
    EXPECT_EQ(static_cast<int>(sim_fired.size()), next_id);
    EXPECT_TRUE(sim.empty());
  }
};

// Events queued before and after the rollback share the minute after
// `t0`; they must still fire in (time, seq) order.
TEST(CalendarQueueStressTest, RebaseKeepsSortedPrefixAndTailInOrder) {
  RebaseTwin twin;
  // ~1 day.
  ASSERT_NO_FATAL_FAILURE(twin.SetUpRebase(81 * kBucketUs));
  twin.DrainAndCompare();
}

// After the rollback, later inserts land out of order about 51 days before
// the minute after `t0` (~100 days out), between the rollback event and
// the cohort.
TEST(CalendarQueueStressTest, RebaseEvictedBucketSortsItsRefill) {
  const int64_t t0 = 8'047 * kBucketUs;  // ~100 days
  RebaseTwin twin;
  ASSERT_NO_FATAL_FAILURE(twin.SetUpRebase(t0));
  const int64_t refill = t0 - 4'096 * kBucketUs;
  for (const int64_t s : {30, 10, 50, 20, 40, 0}) {
    twin.Schedule(refill + s * 1'000'000);
  }
  twin.DrainAndCompare();
}

}  // namespace
}  // namespace spotcheck
