// Discrete-event simulation kernel.
//
// The Simulator owns a virtual clock and an event queue. Components schedule
// callbacks at absolute or relative simulated times; Run()/RunUntil()/RunFor()
// drain the queue in timestamp order (FIFO among equal timestamps). Every
// queued callback runs exactly once. Everything is single-threaded and
// deterministic.
//
// Hot-path design (this kernel executes tens of millions of events per
// six-month evaluation):
//   - Callbacks are UniqueCallback (move-only, 32-byte inline storage), so
//     typical simulation closures never touch the heap.
//   - Event records are pooled: the callback lives in a reusable slot, and
//     the queue holds only a 24-byte {time, seq, slot, index} record.
//   - The queue is a calendar queue (Brown 1988) with an overflow ladder
//     instead of a heap: a power-of-two ring of time buckets covers a
//     sliding window of simulated time, so the near-future churn that
//     dominates the workload (timers, control-loop ticks, re-arms) inserts
//     and pops in O(1) instead of O(log n). Events beyond the window land
//     in an overflow array that is sorted once and drained bucket-window by
//     bucket-window as the clock advances ("wraps"), so the bulk
//     pre-scheduled price-change points are touched O(1) times each after
//     one cache-friendly sort -- not sifted through a multi-million-entry
//     heap. Bucket width is retuned at each wrap from the density of the
//     upcoming overflow chunk; retuning happens only while the ring is
//     empty, so no event ever needs remapping.
//   - A bucket is a sorted prefix plus an unsorted tail, like the ladder:
//     inserts append, and when the scan reaches the bucket it sorts only
//     the tail and merges it in, so an event is sorted once however
//     crowded its bucket (a join burst can put thousands in one).
//   - Pop order is exactly ascending (time, seq) -- identical to the
//     previous heap -- so results are bit-identical: the calendar layout
//     affects performance only, never ordering.
//   - All queue storage allocates from an optional std::pmr resource, so a
//     grid worker can hand each cell a private arena and keep allocator
//     traffic off the process-wide malloc locks.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory_resource>
#include <vector>

#include "src/common/time.h"
#include "src/sim/callback.h"

namespace spotcheck {

class EventCostProfiler;
class MetricCounter;
class MetricGauge;
class MetricsRegistry;
class SpanTracer;
class TimeSeriesRecorder;

using EventCallback = UniqueCallback;

class Simulator {
 public:
  // `metrics`, when non-null, receives the kernel's counters
  // (sim.events_scheduled / fired, sim.calendar.wraps) and the
  // queue depth gauge (sim.heap_depth). `tracer`, when non-null, gets a
  // sampled "sim.dispatch" instant every
  // TraceConfig::sim_event_sample_interval executed events (a heartbeat
  // track for orienting in Perfetto, not a per-event log). Both are purely
  // observational and must outlive the simulator. `memory`, when non-null,
  // backs every queue/slot container (per-cell arena; must outlive the
  // simulator); null uses the default resource.
  explicit Simulator(MetricsRegistry* metrics = nullptr,
                     SpanTracer* tracer = nullptr,
                     std::pmr::memory_resource* memory = nullptr);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `callback` to run at absolute time `when`. Scheduling in the
  // past (before Now()) runs the callback at Now().
  void ScheduleAt(SimTime when, EventCallback callback);
  void ScheduleAfter(SimDuration delay, EventCallback callback);

  // --- Replay streams ------------------------------------------------------
  // A replay stream is a pre-known schedule of fires (e.g. a price trace
  // replay) whose action is derived from (stream, index) at dispatch, so the
  // queue holds no per-event callback or slot. Stream events share the
  // sequence counter with regular events -- same-timestamp interleaving is
  // exactly as if each point had been ScheduleAt()ed in the same program
  // order. `ctx` must stay valid while stream events are pending.
  using StreamFireFn = void (*)(void* ctx, uint32_t index);
  uint32_t RegisterReplayStream(StreamFireFn fire, void* ctx);
  // Schedules stream point `index` at `when` (clamped to Now(), like
  // ScheduleAt).
  void ScheduleStreamEvent(SimTime when, uint32_t stream, uint32_t index);

  // Runs until the queue is empty. Returns the number of events executed.
  int64_t Run();
  // Runs events with timestamp <= `deadline`, then advances the clock to
  // `deadline` (even if the queue empties earlier).
  int64_t RunUntil(SimTime deadline);
  int64_t RunFor(SimDuration duration) { return RunUntil(now_ + duration); }
  // Executes exactly one event if available; returns false on empty queue.
  bool Step();

  bool empty() const { return queued_count() == 0; }
  size_t pending_events() const { return queued_count(); }
  int64_t events_executed() const { return events_executed_; }

  // --- flight recorder (both purely observational, both nullable) ----------
  // Attaches a sampled event-cost profiler: dispatch cost per event kind
  // plus the calendar-queue maintenance episodes (ladder merges, wraps,
  // lazy bucket sorts). Must outlive the simulator; null detaches.
  void set_profiler(EventCostProfiler* profiler) { profiler_ = profiler; }
  // Attaches a sim-time telemetry recorder, driven from the dispatch loop
  // (one integer compare per executed event -- never via scheduled events,
  // which would consume seq numbers and shift same-timestamp interleaving).
  // Must outlive the simulator; null detaches.
  void set_timeseries(TimeSeriesRecorder* timeseries) {
    timeseries_ = timeseries;
  }
  // Registers the kernel's queue-shape gauges on `ts` (depth, ring vs
  // ladder split). The recorder must then be attached via set_timeseries to
  // actually sample.
  void RegisterTelemetry(TimeSeriesRecorder& ts);

 private:
  // Ring geometry: 4096 buckets, width 2^width_log2_ microseconds each.
  // The window is therefore kNumBuckets * 2^width_log2_ us of simulated
  // time starting at ring_base_abs_ * 2^width_log2_.
  static constexpr int kNumBucketsLog2 = 12;
  static constexpr int64_t kNumBuckets = int64_t{1} << kNumBucketsLog2;
  static constexpr int64_t kBucketMask = kNumBuckets - 1;
  static constexpr int kMinWidthLog2 = 10;  // 1.024 ms
  static constexpr int kMaxWidthLog2 = 36;  // ~19 h (window then ~9 years)
  static constexpr int kInitialWidthLog2 = 20;  // ~1.05 s (window ~72 min)

  // The queue element: deliberately tiny (24 bytes) so bucket sorts and
  // ladder moves touch cheap PODs. A callback event's callback stays in the
  // slot pool; a stream event carries its point index instead.
  struct QueuedEvent {
    SimTime when;
    uint64_t seq;  // Tie-break: FIFO among equal timestamps.
    uint32_t slot;
    uint32_t index;  // stream point index; 0 for a callback event
  };
  // True iff `a` must run before `b`: earlier time, FIFO among equals.
  static bool Earlier(const QueuedEvent& a, const QueuedEvent& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }
  using Bucket = std::pmr::vector<QueuedEvent>;

  size_t queued_count() const { return ring_count_ + overflow_.size(); }
  int64_t BucketAbs(SimTime when) const {
    return when.micros() >> width_log2_;
  }

  // Allocates a slot (1-based index) holding `callback`.
  uint32_t AllocSlot(EventCallback callback);
  void PushEvent(SimTime when, uint32_t slot, uint32_t index);

  // Calendar-queue primitives (see the .cc for the invariants).
  void InsertEvent(const QueuedEvent& ev);
  void OverflowAppend(const QueuedEvent& ev);
  using EventIter = std::pmr::vector<QueuedEvent>::iterator;
  // Sorts an unsorted ladder or bucket tail descending, exploiting
  // pre-sorted runs. `profiler` (nullable) records fragmented-tail fallbacks
  // to std::sort.
  static void SortTail(EventIter first, EventIter last,
                       EventCostProfiler* profiler);
  void RebaseRingTo(int64_t abs);
  void Wrap();
  // Points scan_abs_ at the bucket holding the earliest queued event
  // (wrapping the window forward if the ring is empty) and returns that
  // event, or nullptr if nothing is queued.
  const QueuedEvent* FindEarliest();
  // Removes the event FindEarliest() just returned.
  QueuedEvent PopEarliest();

  // Pops and runs the earliest event. Precondition: queued_count() > 0.
  void RunOne();

  SimTime now_;
  uint64_t next_seq_ = 0;
  int64_t events_executed_ = 0;

  std::pmr::memory_resource* memory_;

  // --- calendar ring ---
  std::pmr::vector<Bucket> buckets_;  // bucket for abs index a: a & kBucketMask
  // Per-bucket length of the prefix sorted descending by (when, seq), the
  // same shape as the ladder's overflow_sorted_n_. Inserts append to the
  // unsorted tail; the scan sorts and merges the tail on contact, so pop
  // is back().
  std::vector<uint32_t> bucket_sorted_n_;
  int width_log2_ = kInitialWidthLog2;
  int64_t ring_base_abs_ = 0;  // absolute bucket index of the window start
  int64_t scan_abs_ = 0;       // no queued ring event lives below this bucket
  size_t ring_count_ = 0;      // events in the ring

  // --- overflow ladder ---
  // Events beyond the window. The first overflow_sorted_n_ entries are
  // sorted DESCENDING by (when, seq) (so the minimum is back()); the tail
  // is unsorted appends merged in at the next Wrap().
  std::pmr::vector<QueuedEvent> overflow_;
  size_t overflow_sorted_n_ = 0;
  QueuedEvent overflow_min_{};  // valid iff !overflow_.empty()

  // One pooled callback per queued callback event, plus a free list of
  // reusable slots.
  std::pmr::vector<EventCallback> slots_;
  std::pmr::vector<uint32_t> free_slots_;

  // --- replay streams ---
  // A queued stream event is tagged by kStreamBit in its slot field (real
  // slot indices are small positive integers, so no collision) and carries
  // the point index in its index field.
  static constexpr uint32_t kStreamBit = 0x8000'0000u;
  struct ReplayStream {
    StreamFireFn fire = nullptr;
    void* ctx = nullptr;
  };
  std::vector<ReplayStream> streams_;

  // Observability instruments; all null when built without a registry.
  MetricCounter* events_scheduled_metric_ = nullptr;
  MetricCounter* events_fired_metric_ = nullptr;
  MetricCounter* calendar_wraps_metric_ = nullptr;
  MetricGauge* heap_depth_metric_ = nullptr;

  // Sampled dispatch tracing; tracer_ null when built without one. The track
  // id is stored raw (TraceTrackId is an alias we cannot forward-declare).
  SpanTracer* tracer_ = nullptr;
  uint32_t sim_track_ = 0;
  int64_t dispatch_sample_interval_ = 0;

  // Flight recorder; both null unless attached. Observational only: the
  // profiler reads wall clocks, the recorder reads sim state -- neither
  // mutates it, so results stay bit-identical either way.
  EventCostProfiler* profiler_ = nullptr;
  TimeSeriesRecorder* timeseries_ = nullptr;
};

}  // namespace spotcheck

#endif  // SRC_SIM_SIMULATOR_H_
