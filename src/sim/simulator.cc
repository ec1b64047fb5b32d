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
//       Consequence: the calendar minimum is always in the ring whenever
//       the ring is non-empty, so pop never compares against the ladder.
//   I3  No queued ring event has abs < scan_abs_ (inserts move scan_abs_
//       backward; pops advance it over empty buckets).
//   I3b Bit (index & 63) of occupied_[index >> 6] is set iff bucket `index`
//       is non-empty: every append sets it (InsertEvent, the drain in
//       Wrap), and PopEarliest and RebaseRingTo clear it when they empty
//       the bucket.
//   I4  bucket[0 .. bucket_sorted_n_) is sorted descending by (when, seq);
//       the tail is unsorted appends. Inserts always append; on contact the
//       scan sorts only the tail and merges it into the prefix, so the
//       active bucket pops from back() and each ring event is sorted at most
//       once (RebaseRingTo, a rare path, re-sorts surviving buckets whole).
//   I5  overflow_[0 .. overflow_sorted_n_) is sorted descending; the tail
//       is unsorted appends. overflow_min_ is the ladder minimum whenever
//       the ladder is non-empty.
//   I6  seq is assigned in scheduling order (PushEvent), and a replay
//       stream's points take a block of it at attach, so ascending
//       (when, seq) pop order is exactly the old heap's order and results
//       are bit-identical.
//   I7  The stream heap holds exactly one live entry per stream with a
//       queued point (the entry whose index is the stream's `queued`),
//       plus entries a reseek superseded, which PeekNext drops when they
//       reach the top. A point is queued when a seek picks it: at attach,
//       after the fire before it returns, or by a reseek. It cannot
//       precede the frontier: seeks start past the fired point, and a
//       reseek starts at the first point the frontier has not passed.
//   I8  Every point of a stream between the frontier and its queued point
//       (or its end, when none is queued) was skipped by a seek: the
//       stream's owner promised its fire would be a no-op, and calls
//       ReseekStream before any such point could matter.

Simulator::Simulator(MetricsRegistry* metrics, SpanTracer* tracer,
                     std::pmr::memory_resource* memory)
    : memory_(memory != nullptr ? memory : std::pmr::get_default_resource()),
      buckets_(static_cast<size_t>(kNumBuckets), memory_),
      bucket_sorted_n_(static_cast<size_t>(kNumBuckets), 0),
      overflow_(memory_),
      slots_(memory_),
      free_slots_(memory_),
      stream_heap_(memory_),
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
      if (bucket.empty()) {
        MarkEmpty(index);  // I3b
      }
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
  MarkOccupied(index);  // I3b
  ++ring_count_;
  ProfileAdd(profiler_, ProfileStat::kRingInserts);
  if (abs < scan_abs_) {
    scan_abs_ = abs;  // I3
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
    const auto mid =
        overflow_.begin() + static_cast<int64_t>(overflow_sorted_n_);
    ProfileAdd(profiler_, ProfileStat::kLadderMergedEvents,
               static_cast<int64_t>(overflow_.size() - overflow_sorted_n_));
    // kLadderMerge nests inside kCalendarWrap: wrap time includes merge
    // time; the merge category isolates the sort-vs-drain split.
    ProfileScope merge_scope(profiler_, ProfileCategory::kLadderMerge);
    std::sort(mid, overflow_.end(), Later);
    std::inplace_merge(overflow_.begin(), mid, overflow_.end(), Later);
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
    MarkOccupied(index);            // I3b
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
  if (calendar_count() == 0) {
    return nullptr;
  }
  if (ring_count_ == 0) {
    Wrap();  // ladder is non-empty; guarantees ring_count_ > 0
  }
  // I2+I3: the calendar minimum is in the first non-empty bucket at or
  // above scan_abs_; ring_count_ > 0 bounds the search inside the window.
  // I3b: jump to the next set occupancy bit, wrapping around the ring.
  const size_t start = static_cast<size_t>(scan_abs_ & kBucketMask);
  size_t word = start >> 6;
  uint64_t bits = occupied_[word] & (~uint64_t{0} << (start & 63));
  while (bits == 0) {
    word = (word + 1) & (kOccupancyWords - 1);
    bits = occupied_[word];
  }
  const size_t index =
      (word << 6) | static_cast<size_t>(std::countr_zero(bits));
  scan_abs_ += static_cast<int64_t>((index - start) &
                                    static_cast<size_t>(kBucketMask));
  Bucket& bucket = buckets_[index];
  const size_t sorted_n = bucket_sorted_n_[index];
  if (sorted_n < bucket.size()) {
    // I4: sort only the unsorted tail, then merge it into the prefix.
    ProfileScope sort_scope(profiler_, ProfileCategory::kLazyBucketSort);
    ProfileAdd(profiler_, ProfileStat::kLazySortedEvents,
               static_cast<int64_t>(bucket.size() - sorted_n));
    const auto mid = bucket.begin() + static_cast<int64_t>(sorted_n);
    std::sort(mid, bucket.end(), Later);
    std::inplace_merge(bucket.begin(), mid, bucket.end(), Later);
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
  if (bucket.empty()) {
    MarkEmpty(index);  // I3b
  }
  return ev;
}

void Simulator::CountQueued() {
  MetricInc(events_scheduled_metric_);
  MetricSet(heap_depth_metric_, static_cast<double>(queued_count()));
}

void Simulator::PushEvent(SimTime when, uint32_t slot) {
  InsertEvent(QueuedEvent{when, next_seq_++, slot});
  CountQueued();
}

void Simulator::SeekStream(uint32_t stream_id, uint32_t from) {
  ReplayStream& stream = streams_[stream_id];
  const auto end = static_cast<uint32_t>(stream.times_us.size());
  const uint32_t next =
      from < end ? std::min(stream.seek(stream.ctx, from), end) : end;
  if (next >= stream.queued) {
    return;
  }
  if (stream.queued == end) {
    ++queued_streams_;
  }
  stream.queued = next;
  stream_heap_.push_back(QueuedEvent{SimTime::FromMicros(stream.times_us[next]),
                                     stream.seq_base + next, stream_id});
  std::push_heap(stream_heap_.begin(), stream_heap_.end(), Later);
  CountQueued();
}

uint32_t Simulator::AttachReplayStream(std::span<const int64_t> times_us,
                                       StreamFireFn fire, void* ctx,
                                       StreamSeekFn seek) {
  // Points before Now() are skipped; a point exactly at Now() still fires.
  const auto first = static_cast<uint32_t>(
      std::lower_bound(times_us.begin(), times_us.end(), now_.micros()) -
      times_us.begin());
  const auto end = static_cast<uint32_t>(times_us.size());
  const auto stream = static_cast<uint32_t>(streams_.size());
  streams_.push_back(
      ReplayStream{fire, seek, ctx, times_us, next_seq_ - first, end});
  next_seq_ += end - first;  // I6: one seq per point from `first` on
  SeekStream(stream, first);
  return stream;
}

void Simulator::ReseekStream(uint32_t stream_id) {
  const ReplayStream& stream = streams_[stream_id];
  if (stream.firing) {
    return;  // the seek after the fire sees the change
  }
  // The first point the frontier (now_, frontier_seq_) has not passed.
  const std::span<const int64_t> times = stream.times_us;
  const int64_t now_us = now_.micros();
  auto from = static_cast<size_t>(
      std::lower_bound(times.begin(), times.end(), now_us) - times.begin());
  if (from < times.size() && times[from] == now_us &&
      stream.seq_base + from < frontier_seq_) {
    // Points at Now() with a seq below the frontier's were passed.
    const auto equal_end = static_cast<size_t>(
        std::upper_bound(times.begin() + static_cast<int64_t>(from),
                         times.end(), now_us) -
        times.begin());
    from = std::min<size_t>(equal_end, frontier_seq_ - stream.seq_base);
  }
  if (from < stream.queued) {
    SeekStream(stream_id, static_cast<uint32_t>(from));
  }
}

void Simulator::ScheduleAt(SimTime when, EventCallback callback) {
  if (when < now_) {
    when = now_;
  }
  PushEvent(when, AllocSlot(std::move(callback)));
}

void Simulator::ScheduleAfter(SimDuration delay, EventCallback callback) {
  ScheduleAt(now_ + delay, std::move(callback));
}

const Simulator::QueuedEvent* Simulator::PeekNext() {
  const QueuedEvent* next = FindEarliest();
  while (!stream_heap_.empty()) {
    const QueuedEvent& top = stream_heap_.front();
    const ReplayStream& stream = streams_[top.id];
    if (top.seq - stream.seq_base == stream.queued) {
      if (next == nullptr || Earlier(top, *next)) {
        next = &top;
      }
      break;
    }
    // I7: a reseek queued an earlier point of this stream.
    std::pop_heap(stream_heap_.begin(), stream_heap_.end(), Later);
    stream_heap_.pop_back();
  }
  return next;
}

void Simulator::RunOne(const QueuedEvent& next) {
  // Boundaries before this event see the state every earlier event left.
  if (timeseries_ != nullptr) {
    timeseries_->SampleBefore(next.when);
  }
  // PeekNext() returned the stream heap's top or the calendar minimum, and
  // FindEarliest left the latter ready to pop.
  const bool from_stream = &next == stream_heap_.data();
  const QueuedEvent ev = from_stream ? next : PopEarliest();
  now_ = ev.when;
  frontier_seq_ = ev.seq;
  ++events_executed_;
  MetricInc(events_fired_metric_);
  if (tracer_ != nullptr && dispatch_sample_interval_ > 0 &&
      events_executed_ % dispatch_sample_interval_ == 0) {
    const SpanId mark =
        tracer_->Instant(now_, "sim.dispatch", "sim", sim_track_);
    tracer_->AttrNum(mark, "events_executed",
                     static_cast<double>(events_executed_));
  }
  if (from_stream) {
    std::pop_heap(stream_heap_.begin(), stream_heap_.end(), Later);
    stream_heap_.pop_back();
    ReplayStream& stream = streams_[ev.id];
    const auto index = static_cast<uint32_t>(ev.seq - stream.seq_base);
    stream.queued = static_cast<uint32_t>(stream.times_us.size());
    --queued_streams_;
    stream.firing = true;
    const StreamFireFn fire = stream.fire;
    void* const ctx = stream.ctx;
    ProfileScope scope(profiler_, ProfileCategory::kDispatchStream);
    fire(ctx, index);
    // Indexed again: the fire may attach another stream and grow streams_.
    streams_[ev.id].firing = false;
    // I7: seek after the fire, which may have changed what must fire next.
    SeekStream(ev.id, index + 1);
  } else {
    // The callback is moved out and its slot freed before invocation: it
    // may schedule new events, growing or reusing the slot pool.
    ProfileScope scope(profiler_, ProfileCategory::kDispatchCallback);
    EventCallback callback = std::move(slots_[ev.id - 1]);
    free_slots_.push_back(ev.id);
    callback();
  }
}

void Simulator::FinishRun() {
  frontier_seq_ = next_seq_;
  if (timeseries_ != nullptr) {
    timeseries_->SampleIfDue(now_);
  }
}

int64_t Simulator::Run() {
  const int64_t before = events_executed_;
  while (const QueuedEvent* next = PeekNext()) {
    RunOne(*next);
  }
  FinishRun();
  return events_executed_ - before;
}

int64_t Simulator::RunUntil(SimTime deadline) {
  const int64_t before = events_executed_;
  while (true) {
    const QueuedEvent* next = PeekNext();
    if (next == nullptr || next->when > deadline) {
      break;
    }
    RunOne(*next);
  }
  if (now_ <= deadline) {
    now_ = deadline;
    FinishRun();
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
  const QueuedEvent* next = PeekNext();
  if (next == nullptr) {
    return false;
  }
  RunOne(*next);
  return true;
}

}  // namespace spotcheck
