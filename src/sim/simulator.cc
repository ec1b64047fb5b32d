#include "src/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"

namespace spotcheck {

// Calendar-queue invariants (every method below preserves all of them):
//   I1  Every queued event lives either in its ring bucket
//       (abs = when.us >> width_log2_, bucket abs & kBucketMask, with
//       ring_base_abs_ <= abs < ring_base_abs_ + kNumBuckets) or in
//       overflow_.
//   I2  Every ring event orders strictly before every overflow event by
//       (when, seq). InsertEvent enforces this by diverting an in-window
//       event to overflow when it would not precede overflow_min_; Wrap()
//       re-establishes it by draining a prefix of the ladder.
//       Consequence: the global minimum is always in the ring whenever the
//       ring is non-empty, so pop never compares against the ladder.
//   I3  No queued ring event has abs < scan_abs_ (inserts move scan_abs_
//       backward; pops advance it over empty buckets).
//   I4  bucket[0 .. bucket_sorted_n_) is sorted descending by (when, seq);
//       the tail is unsorted appends. Inserts always append; on contact the
//       scan sorts only the tail and merges it into the prefix, so the
//       active bucket pops from back() and each ring event is sorted at most
//       once (RebaseRingTo, a rare path, re-sorts surviving buckets whole).
//   I5  overflow_[0 .. overflow_sorted_n_) is sorted descending; the tail
//       is unsorted appends. overflow_min_ is the ladder minimum whenever
//       the ladder is non-empty.
//   I6  seq is assigned in scheduling order (PushEvent), so ascending
//       (when, seq) pop order is exactly the old heap's order and results
//       are bit-identical.

Simulator::Simulator(MetricsRegistry* metrics, SpanTracer* tracer,
                     std::pmr::memory_resource* memory)
    : memory_(memory != nullptr ? memory : std::pmr::get_default_resource()),
      buckets_(static_cast<size_t>(kNumBuckets), memory_),
      bucket_sorted_n_(static_cast<size_t>(kNumBuckets), 0),
      overflow_(memory_),
      slots_(memory_),
      free_slots_(memory_),
      tracer_(tracer) {
  if (metrics != nullptr) {
    events_scheduled_metric_ = &metrics->Counter("sim.events_scheduled");
    events_fired_metric_ = &metrics->Counter("sim.events_fired");
    calendar_wraps_metric_ = &metrics->Counter("sim.calendar.wraps");
    heap_depth_metric_ = &metrics->Gauge("sim.heap_depth");
  }
  if (tracer_ != nullptr) {
    sim_track_ = tracer_->Track("sim");
    dispatch_sample_interval_ = tracer_->config().sim_event_sample_interval;
  }
}

uint32_t Simulator::AllocSlot(EventCallback callback) {
  if (free_slots_.empty()) {
    slots_.push_back(std::move(callback));
    return static_cast<uint32_t>(slots_.size());
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot - 1] = std::move(callback);
  return slot;
}

void Simulator::OverflowAppend(const QueuedEvent& ev) {
  if (overflow_.empty() || Earlier(ev, overflow_min_)) {
    overflow_min_ = ev;
  }
  overflow_.push_back(ev);  // lands in the unsorted tail (I5)
  ProfileAdd(profiler_, ProfileStat::kOverflowSpills);
}

// Rare slow path: an insert targets a bucket below the window start (the
// window jumped forward during a Wrap(), then the clock was rolled back by
// a RunUntil deadline and something scheduled into the gap). Slide the
// window start back to `abs`; bucket positions (abs & mask) do not depend
// on ring_base_abs_, so surviving events stay put and only events now
// beyond the shortened window move to the ladder.
void Simulator::RebaseRingTo(int64_t abs) {
  const int64_t new_end = abs + kNumBuckets;
  if (ring_count_ > 0) {
    for (size_t index = 0; index < buckets_.size(); ++index) {
      Bucket& bucket = buckets_[index];
      if (bucket.empty()) {
        continue;
      }
      std::erase_if(bucket, [&](const QueuedEvent& ev) {
        if (BucketAbs(ev.when) >= new_end) {
          OverflowAppend(ev);
          --ring_count_;
          return true;
        }
        return false;
      });
      bucket_sorted_n_[index] = 0;  // re-sorted whole on contact (I4)
    }
  }
  ring_base_abs_ = abs;
  scan_abs_ = abs;
  ProfileAdd(profiler_, ProfileStat::kRingRebases);
}

void Simulator::InsertEvent(const QueuedEvent& ev) {
  // I2: anything that would not run before the ladder minimum belongs in
  // the ladder, even if its bucket is inside the window.
  if (!overflow_.empty() && !Earlier(ev, overflow_min_)) {
    OverflowAppend(ev);
    return;
  }
  const int64_t abs = BucketAbs(ev.when);
  if (abs >= ring_base_abs_ + kNumBuckets) {
    OverflowAppend(ev);
    return;
  }
  if (abs < ring_base_abs_) {
    RebaseRingTo(abs);
  }
  const size_t index = static_cast<size_t>(abs & kBucketMask);
  Bucket& bucket = buckets_[index];
  // Append to the unsorted tail (I4); the scan merges it on contact.
  if (!bucket.empty() && bucket_sorted_n_[index] == bucket.size()) {
    ProfileAdd(profiler_, ProfileStat::kBucketDegrades);
  }
  bucket.push_back(ev);
  ++ring_count_;
  ProfileAdd(profiler_, ProfileStat::kRingInserts);
  if (abs < scan_abs_) {
    scan_abs_ = abs;  // I3
  }
}

// Sorts [first, last) descending by (when, seq). The dominant producer of a
// large unsorted ladder tail is market attachment, which appends each price
// trace as one long time-ascending run, so the tail is typically a few dozen
// runs that introsort cannot exploit. Detect maximal runs, reverse the ascending ones,
// and merge pairwise -- O(n log k) for k runs -- falling back to plain sort
// when the tail is genuinely unordered. The comparator is a strict total
// order (seq is unique), so every correct sort yields the same permutation.
void Simulator::SortTail(EventIter first, EventIter last,
                         EventCostProfiler* profiler) {
  const auto desc = [](const QueuedEvent& a, const QueuedEvent& b) {
    return Earlier(b, a);
  };
  const size_t n = static_cast<size_t>(last - first);
  if (n < 256) {
    std::sort(first, last, desc);
    return;
  }
  // Run boundaries: bounds[i]..bounds[i+1] is sorted descending.
  std::vector<EventIter> bounds;
  bounds.push_back(first);
  for (EventIter it = first; it != last;) {
    EventIter run_end = it + 1;
    if (run_end != last) {
      const bool run_desc = desc(*it, *run_end);
      ++run_end;
      while (run_end != last && desc(*(run_end - 1), *run_end) == run_desc) {
        ++run_end;
      }
      if (!run_desc) {
        std::reverse(it, run_end);
      }
    }
    bounds.push_back(run_end);
    it = run_end;
    if (bounds.size() > 1 + n / 64) {
      // Too fragmented for merging to win (the reversals above are harmless
      // to re-sort).
      ProfileAdd(profiler, ProfileStat::kLadderFallbackSorts);
      std::sort(first, last, desc);
      return;
    }
  }
  // Merge adjacent run pairs until one remains.
  while (bounds.size() > 2) {
    std::vector<EventIter> next;
    next.push_back(bounds[0]);
    size_t i = 1;
    while (i + 1 < bounds.size()) {
      std::inplace_merge(next.back(), bounds[i], bounds[i + 1], desc);
      next.push_back(bounds[i + 1]);
      i += 2;
    }
    if (i < bounds.size()) {
      next.push_back(bounds[i]);
    }
    bounds = std::move(next);
  }
}

// The ring is empty and the ladder is not: advance the window to the
// ladder's minimum and drain the in-window prefix into buckets. Bucket
// width is retuned here -- and only here -- from the density of the
// upcoming chunk, so retuning never remaps a queued ring event.
void Simulator::Wrap() {
  ProfileScope wrap_scope(profiler_, ProfileCategory::kCalendarWrap);
  const int width_before = width_log2_;
  if (overflow_sorted_n_ < overflow_.size()) {
    const auto desc = [](const QueuedEvent& a, const QueuedEvent& b) {
      return Earlier(b, a);
    };
    const auto mid =
        overflow_.begin() + static_cast<int64_t>(overflow_sorted_n_);
    ProfileAdd(profiler_, ProfileStat::kLadderMergedEvents,
               static_cast<int64_t>(overflow_.size() - overflow_sorted_n_));
    // kLadderMerge nests inside kCalendarWrap: wrap time includes merge
    // time; the merge category isolates the sort-vs-drain split.
    ProfileScope merge_scope(profiler_, ProfileCategory::kLadderMerge);
    SortTail(mid, overflow_.end(), profiler_);
    std::inplace_merge(overflow_.begin(), mid, overflow_.end(), desc);
    overflow_sorted_n_ = overflow_.size();
  }

  // Width policy: spread the next ~2*kNumBuckets events over the ring
  // (target occupancy ~2 events/bucket). Clamped so degenerate spans
  // (everything at one instant / centuries apart) stay sane.
  const QueuedEvent min_ev = overflow_.back();
  const size_t lookahead =
      std::min(overflow_.size(), static_cast<size_t>(2 * kNumBuckets));
  const int64_t span =
      overflow_[overflow_.size() - lookahead].when.micros() -
      min_ev.when.micros();
  if (span > 0) {
    const uint64_t per_bucket =
        static_cast<uint64_t>(span) / static_cast<uint64_t>(kNumBuckets) + 1;
    width_log2_ = std::clamp(static_cast<int>(std::bit_width(per_bucket)),
                             kMinWidthLog2, kMaxWidthLog2);
  }
  if (width_log2_ != width_before) {
    ProfileAdd(profiler_, ProfileStat::kCalendarRetunes);
  }

  ring_base_abs_ = BucketAbs(min_ev.when);
  scan_abs_ = ring_base_abs_;
  const int64_t window_end = ring_base_abs_ + kNumBuckets;
  while (!overflow_.empty()) {
    const QueuedEvent& ev = overflow_.back();
    const int64_t abs = BucketAbs(ev.when);
    if (abs >= window_end) {
      break;
    }
    const size_t index = static_cast<size_t>(abs & kBucketMask);
    buckets_[index].push_back(ev);  // unsorted tail; sorted on contact
    ++ring_count_;
    overflow_.pop_back();
  }
  overflow_sorted_n_ = overflow_.size();
  if (!overflow_.empty()) {
    overflow_min_ = overflow_.back();
  }
  MetricInc(calendar_wraps_metric_);
}

const Simulator::QueuedEvent* Simulator::FindEarliest() {
  if (queued_count() == 0) {
    return nullptr;
  }
  if (ring_count_ == 0) {
    Wrap();  // ladder is non-empty; guarantees ring_count_ > 0
  }
  // I2+I3: the global minimum is in the first non-empty bucket at or above
  // scan_abs_; ring_count_ > 0 bounds the scan inside the window.
  size_t index = static_cast<size_t>(scan_abs_ & kBucketMask);
  while (buckets_[index].empty()) {
    ++scan_abs_;
    index = static_cast<size_t>(scan_abs_ & kBucketMask);
  }
  Bucket& bucket = buckets_[index];
  const size_t sorted_n = bucket_sorted_n_[index];
  if (sorted_n < bucket.size()) {
    // I4: sort only the unsorted tail, then merge it into the prefix. The
    // null profiler keeps kLadderFallbackSorts a ladder-only counter.
    ProfileScope sort_scope(profiler_, ProfileCategory::kLazyBucketSort);
    ProfileAdd(profiler_, ProfileStat::kLazySortedEvents,
               static_cast<int64_t>(bucket.size() - sorted_n));
    const auto mid = bucket.begin() + static_cast<int64_t>(sorted_n);
    SortTail(mid, bucket.end(), nullptr);
    std::inplace_merge(bucket.begin(), mid, bucket.end(),
                       [](const QueuedEvent& a, const QueuedEvent& b) {
                         return Earlier(b, a);
                       });
    bucket_sorted_n_[index] = static_cast<uint32_t>(bucket.size());
  }
  return &bucket.back();
}

Simulator::QueuedEvent Simulator::PopEarliest() {
  const size_t index = static_cast<size_t>(scan_abs_ & kBucketMask);
  Bucket& bucket = buckets_[index];
  const QueuedEvent ev = bucket.back();
  bucket.pop_back();
  --bucket_sorted_n_[index];  // FindEarliest left the bucket fully sorted
  --ring_count_;
  return ev;
}

void Simulator::PushEvent(SimTime when, uint32_t slot, uint32_t index) {
  InsertEvent(QueuedEvent{when, next_seq_++, slot, index});
  MetricInc(events_scheduled_metric_);
  MetricSet(heap_depth_metric_, static_cast<double>(queued_count()));
}

uint32_t Simulator::RegisterReplayStream(StreamFireFn fire, void* ctx) {
  streams_.push_back(ReplayStream{fire, ctx});
  return static_cast<uint32_t>(streams_.size() - 1);
}

void Simulator::ScheduleStreamEvent(SimTime when, uint32_t stream,
                                    uint32_t index) {
  if (when < now_) {
    when = now_;
  }
  PushEvent(when, kStreamBit | stream, index);
}

void Simulator::ScheduleAt(SimTime when, EventCallback callback) {
  if (when < now_) {
    when = now_;
  }
  PushEvent(when, AllocSlot(std::move(callback)), 0);
}

void Simulator::ScheduleAfter(SimDuration delay, EventCallback callback) {
  ScheduleAt(now_ + delay, std::move(callback));
}

void Simulator::RunOne() {
  FindEarliest();  // positions scan_abs_ (O(1) if RunUntil just peeked)
  const QueuedEvent ev = PopEarliest();
  now_ = ev.when;
  ++events_executed_;
  MetricInc(events_fired_metric_);
  if (tracer_ != nullptr && dispatch_sample_interval_ > 0 &&
      events_executed_ % dispatch_sample_interval_ == 0) {
    const SpanId mark =
        tracer_->Instant(now_, "sim.dispatch", "sim", sim_track_);
    tracer_->AttrNum(mark, "events_executed",
                     static_cast<double>(events_executed_));
  }
  if (ev.slot & kStreamBit) {
    // Stream events have no slot; the fire is derived from (stream, point
    // index).
    ProfileScope scope(profiler_, ProfileCategory::kDispatchStream);
    const ReplayStream& stream = streams_[ev.slot & ~kStreamBit];
    stream.fire(stream.ctx, ev.index);
  } else {
    // The callback is moved out and its slot freed before invocation: it
    // may schedule new events, growing or reusing the slot pool.
    ProfileScope scope(profiler_, ProfileCategory::kDispatchCallback);
    EventCallback callback = std::move(slots_[ev.slot - 1]);
    free_slots_.push_back(ev.slot);
    callback();
  }
  // Sampled AFTER the event fully executed (and outside the profile scope):
  // the recorder reads post-event state and never interacts with the queue,
  // so it cannot perturb seq assignment or same-timestamp interleaving.
  if (timeseries_ != nullptr) {
    timeseries_->SampleIfDue(now_);
  }
}

int64_t Simulator::Run() {
  const int64_t before = events_executed_;
  while (queued_count() > 0) {
    RunOne();
  }
  return events_executed_ - before;
}

int64_t Simulator::RunUntil(SimTime deadline) {
  const int64_t before = events_executed_;
  while (true) {
    const QueuedEvent* next = FindEarliest();
    if (next == nullptr || next->when > deadline) {
      break;
    }
    RunOne();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return events_executed_ - before;
}

void Simulator::RegisterTelemetry(TimeSeriesRecorder& ts) {
  ts.AddSeries("sim.queue_depth",
               [this] { return static_cast<double>(queued_count()); });
  ts.AddSeries("sim.ring_events",
               [this] { return static_cast<double>(ring_count_); });
  ts.AddSeries("sim.ladder_events",
               [this] { return static_cast<double>(overflow_.size()); });
  ts.AddSeries("sim.events_executed",
               [this] { return static_cast<double>(events_executed_); });
}

bool Simulator::Step() {
  if (queued_count() == 0) {
    return false;
  }
  RunOne();
  return true;
}

}  // namespace spotcheck
