#include "src/sim/simulator.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"

namespace spotcheck {

// Queue invariants (every method below preserves all of them):
//   I1  heap_ is a 4-ary min-heap by Earlier: no entry runs before its
//       parent, entry (i - 1) / 4, so heap_[0] runs first. Keys are
//       unique, so no two entries tie.
//   I2  seq is assigned in scheduling order (PushEvent), and a replay
//       stream's points take a block of it at attach, so ascending
//       (when, seq) pop order is schedule order among equal times, and
//       results do not depend on the queue's layout.
//   I3  The stream heap holds exactly one live entry per stream with a
//       queued point (the entry whose index is the stream's `queued`),
//       plus entries a reseek superseded, which PeekNext drops when they
//       reach the top. A point is queued when a seek picks it: at attach,
//       after the fire before it returns, or by a reseek. It cannot
//       precede the frontier: seeks start past the fired point, and a
//       reseek starts at the first point the frontier has not passed.
//   I4  Every point of a stream between the frontier and its queued point
//       (or its end, when none is queued) was skipped by a seek: the
//       stream's owner promised its fire would be a no-op, and calls
//       ReseekStream before any such point could matter.

Simulator::Simulator(MetricsRegistry* metrics, SpanTracer* tracer,
                     std::pmr::memory_resource* memory)
    : memory_(memory != nullptr ? memory : std::pmr::get_default_resource()),
      heap_(memory_),
      slots_(memory_),
      free_slots_(memory_),
      stream_heap_(memory_),
      tracer_(tracer) {
  if (metrics != nullptr) {
    events_scheduled_metric_ = &metrics->Counter("sim.events_scheduled");
    events_fired_metric_ = &metrics->Counter("sim.events_fired");
    heap_depth_metric_ = &metrics->Gauge("sim.heap_depth");
  }
  if (tracer_ != nullptr) {
    sim_track_ = tracer_->Track("sim");
    dispatch_sample_interval_ = tracer_->config().sim_event_sample_interval;
  }
}

uint64_t Simulator::Key(uint64_t seq, uint32_t id) {
  if (seq >= kSeqLimit || id >= kIdLimit) [[unlikely]] {
    std::fprintf(stderr,
                 "simulator queue key overflow: seq %llu (limit %llu), "
                 "slot or stream %u (limit %llu)\n",
                 static_cast<unsigned long long>(seq),
                 static_cast<unsigned long long>(kSeqLimit), id,
                 static_cast<unsigned long long>(kIdLimit));
    std::abort();
  }
  return seq << kIdBits | id;
}

uint32_t Simulator::AllocSlot(EventCallback callback) {
  if (free_slots_.empty()) {
    slots_.push_back(std::move(callback));
    return static_cast<uint32_t>(slots_.size() - 1);
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot] = std::move(callback);
  return slot;
}

void Simulator::HeapPush(const QueuedEvent& ev) {
  heap_.push_back(ev);
  QueuedEvent* const heap = heap_.data();
  size_t i = heap_.size() - 1;
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!Earlier(ev, heap[parent])) {
      break;
    }
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = ev;  // I1
}

void Simulator::HeapPop() {
  const QueuedEvent last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  // Move the hole at the root down, lifting the earliest child each level,
  // until `last` runs before every child of the hole.
  QueuedEvent* const heap = heap_.data();
  size_t i = 0;
  while (true) {
    const size_t first = 4 * i + 1;
    if (first >= n) {
      break;
    }
    const size_t end = std::min(first + 4, n);
    size_t best = first;
    for (size_t child = first + 1; child < end; ++child) {
      if (Earlier(heap[child], heap[best])) {
        best = child;
      }
    }
    if (!Earlier(heap[best], last)) {
      break;
    }
    heap[i] = heap[best];
    i = best;
  }
  heap[i] = last;  // I1
}

void Simulator::CountQueued() {
  MetricInc(events_scheduled_metric_);
  MetricSet(heap_depth_metric_, static_cast<double>(queued_count()));
}

void Simulator::PushEvent(SimTime when, uint32_t slot) {
  HeapPush(QueuedEvent{when, Key(next_seq_++, slot)});
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
                                     Key(stream.seq_base + next, stream_id)});
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
  next_seq_ += end - first;  // I2: one seq per point from `first` on
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
  const QueuedEvent* next = heap_.empty() ? nullptr : heap_.data();
  while (!stream_heap_.empty()) {
    const QueuedEvent& top = stream_heap_.front();
    const ReplayStream& stream = streams_[top.id()];
    if (top.seq() - stream.seq_base == stream.queued) {
      if (next == nullptr || Earlier(top, *next)) {
        next = &top;
      }
      break;
    }
    // I3: a reseek queued an earlier point of this stream.
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
  // PeekNext() returned the top of the stream heap or of the callback heap.
  const bool from_stream = &next == stream_heap_.data();
  const QueuedEvent ev = next;
  now_ = ev.when;
  frontier_seq_ = ev.seq();
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
    ReplayStream& stream = streams_[ev.id()];
    const auto index = static_cast<uint32_t>(ev.seq() - stream.seq_base);
    stream.queued = static_cast<uint32_t>(stream.times_us.size());
    --queued_streams_;
    stream.firing = true;
    const StreamFireFn fire = stream.fire;
    void* const ctx = stream.ctx;
    ProfileScope scope(profiler_, ProfileCategory::kDispatchStream);
    fire(ctx, index);
    // Indexed again: the fire may attach another stream and grow streams_.
    streams_[ev.id()].firing = false;
    // I3: seek after the fire, which may have changed what must fire next.
    SeekStream(ev.id(), index + 1);
  } else {
    HeapPop();
    // The callback is moved out and its slot freed before invocation: it
    // may schedule new events, growing or reusing the slot pool.
    ProfileScope scope(profiler_, ProfileCategory::kDispatchCallback);
    EventCallback callback = std::move(slots_[ev.id()]);
    free_slots_.push_back(ev.id());
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
