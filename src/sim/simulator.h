// Discrete-event simulation kernel.
//
// The Simulator owns a virtual clock and an event queue. Components schedule
// callbacks at absolute or relative simulated times; Run()/RunUntil()/RunFor()
// drain the queue in timestamp order (FIFO among equal timestamps). Every
// queued callback runs exactly once. Everything is single-threaded and
// deterministic.
//
// Hot-path design (an evaluation grid executes millions of events, and
// replayed price traces hold millions more points):
//   - Callbacks are UniqueCallback (move-only, 32-byte inline storage), so
//     typical simulation closures never touch the heap.
//   - Event records are pooled: the callback lives in a reusable slot, and
//     the queue holds only a 16-byte {time, seq << 24 | slot} entry.
//   - The callback queue is a 4-ary min-heap of those entries: a node's four
//     children fill 64 bytes, and the heap is half as deep as a binary one.
//     With price points out of it (below), it holds only callbacks and
//     stays shallow: a mean depth at pop of about 12 on the paper grid.
//     DESIGN.md section 12.2 has the trade-off against a calendar queue.
//   - Replay streams (price traces) stay out of the callback heap: each
//     stream has at most one queued point, in a small binary heap beside
//     it, and the stream's seek function picks the next point worth firing
//     after each fire, so points no listener can act on are never queued (a
//     skipped point keeps its sequence number, so no other event moves).
//     A pop takes the earlier of the two minima.
//   - Pop order is exactly ascending (time, seq): seq is unique and sits
//     above the slot in the key, so (time, key) order is (time, seq) order
//     and results never depend on the queue's layout.
//   - All queue storage allocates from an optional std::pmr resource, so a
//     grid worker can hand each cell a private arena and keep allocator
//     traffic off the process-wide malloc locks.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory_resource>
#include <span>
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
  // (sim.events_scheduled / fired) and the queue depth gauge
  // (sim.heap_depth). sim.events_scheduled counts every
  // queued callback and every queued stream point; a stream point is
  // queued when a seek picks it, so skipped points and points the run
  // never reaches are not counted. sim.heap_depth gauges the queued
  // events, one per stream with a queued point plus every queued callback.
  // `tracer`, when non-null, gets a
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
  // A replay stream is a pre-known, time-ascending schedule of fires (a
  // price trace's change points) whose action is derived from the point
  // index at dispatch, so it needs no callback slot. AttachReplayStream
  // replays the points of `times_us` at or after Now(): point i fires at
  // times_us[i] as fire(ctx, i). The points take a block of sequence numbers
  // at attach, point i the i-th after the skipped ones, so same-timestamp
  // interleaving is exactly as if each point had been ScheduleAt()ed here in
  // index order. Only the next point of each stream is queued. `times_us`
  // must be non-decreasing, and `ctx` and `times_us` must outlive the
  // stream. Returns the stream's id for ReseekStream.
  //
  // `seek` lets the stream skip points whose fire would be a no-op:
  // seek(ctx, from) returns the first index >= from that must fire, or
  // times_us.size() if none must for now (returning `from` replays every
  // point). The kernel seeks at attach and after each fire returns (the
  // fire may change what the next seek answers). A skipped point keeps its
  // sequence number, so skipping changes no other event's order. `seek`
  // must not touch the simulator.
  using StreamFireFn = void (*)(void* ctx, uint32_t index);
  using StreamSeekFn = uint32_t (*)(void* ctx, uint32_t from);
  uint32_t AttachReplayStream(std::span<const int64_t> times_us,
                              StreamFireFn fire, void* ctx,
                              StreamSeekFn seek);
  // Call when a stream's seek would now pick points it skipped before. The
  // stream seeks again from the first point the clock has not passed, and
  // that point is queued if it comes before the queued one. "Passed"
  // compares (time, seq) with the frontier: the event being dispatched, or
  // (Now(), the last reserved seq) between runs. So a skipped point at
  // Now() that sorts before the frontier stays skipped: firing it now
  // would run it out of order. A stream reseeking during its own fire
  // changes nothing; the seek after the fire sees the new answer.
  void ReseekStream(uint32_t stream);

  // Runs until the queue is empty (a stream whose remaining points are all
  // skipped holds nothing queued). Returns the number of events executed.
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
  // Attaches a sampled event-cost profiler: dispatch cost per event kind.
  // Must outlive the simulator; null detaches.
  void set_profiler(EventCostProfiler* profiler) { profiler_ = profiler; }
  // Attaches a sim-time telemetry recorder, driven from the dispatch loop:
  // each interval boundary is sampled before the first event past it runs,
  // and at the end of Run/RunUntil. Never via scheduled events, which would
  // consume seq numbers and shift same-timestamp interleaving. Attach it
  // before the clock passes its first boundary (boundaries it missed are
  // sampled at once, with the current state). Must outlive the simulator;
  // null detaches.
  void set_timeseries(TimeSeriesRecorder* timeseries) {
    timeseries_ = timeseries;
  }
  // Registers the kernel's gauges on `ts` (queue depth, events executed).
  // The recorder must then be attached via set_timeseries to actually
  // sample.
  void RegisterTelemetry(TimeSeriesRecorder& ts);

 private:
  // The queue element: 16 bytes, so a heap node's four children fill 64
  // bytes. In the callback heap the key's low kIdBits hold the callback's
  // slot in the slot pool; in the stream heap they hold the stream's
  // number. seq (unique, FIFO among equal timestamps) sits above them.
  static constexpr int kIdBits = 24;
  static constexpr uint64_t kIdLimit = uint64_t{1} << kIdBits;
  static constexpr uint64_t kSeqLimit = uint64_t{1} << (64 - kIdBits);
  struct QueuedEvent {
    SimTime when;
    uint64_t key;
    uint64_t seq() const { return key >> kIdBits; }
    uint32_t id() const { return static_cast<uint32_t>(key & (kIdLimit - 1)); }
  };
  static_assert(sizeof(QueuedEvent) == 16);
  // Packs a key; aborts with a message when `seq` or `id` overflows its
  // field (2^40 scheduled events, or 2^24 callbacks or streams at once).
  static uint64_t Key(uint64_t seq, uint32_t id);
  // True iff `a` must run before `b`: earlier time, FIFO among equals.
  static bool Earlier(const QueuedEvent& a, const QueuedEvent& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.key < b.key;
  }
  // True iff `a` must run after `b`. The stream heap is ordered by it (std
  // heaps keep the comparator's maximum at the front).
  static bool Later(const QueuedEvent& a, const QueuedEvent& b) {
    return Earlier(b, a);
  }

  size_t queued_count() const { return heap_.size() + queued_streams_; }

  // Allocates a slot holding `callback`.
  uint32_t AllocSlot(EventCallback callback);
  void PushEvent(SimTime when, uint32_t slot);
  // Seeks `stream` from point `from` and queues the result on the stream
  // heap when it comes before the stream's queued point.
  void SeekStream(uint32_t stream, uint32_t from);
  // Counts one queued event or stream point in the metrics.
  void CountQueued();

  // Callback-heap primitives: the earliest entry is heap_[0], and the
  // children of entry i are entries 4i+1 .. 4i+4.
  void HeapPush(const QueuedEvent& ev);
  // Removes heap_[0].
  void HeapPop();

  // The next event to run: the earlier of the callback heap's top and the
  // stream heap's top, or nullptr if nothing is queued. Drops heap entries
  // a reseek superseded on the way.
  const QueuedEvent* PeekNext();
  // The end of a run: marks every event at or before the clock as passed,
  // and samples the recorder's boundaries up to the clock.
  void FinishRun();
  // Pops and runs `next`, which PeekNext() just returned.
  void RunOne(const QueuedEvent& next);

  SimTime now_;
  uint64_t next_seq_ = 0;
  // The frontier is (now_, frontier_seq_): events before it in (when, seq)
  // order have been dispatched or passed. It is the dispatched event's seq
  // during a dispatch, and next_seq_ once a run has drained the clock.
  uint64_t frontier_seq_ = 0;
  int64_t events_executed_ = 0;

  std::pmr::memory_resource* memory_;

  // The callback heap: one entry per queued callback.
  std::pmr::vector<QueuedEvent> heap_;

  // One pooled callback per queued callback event, plus a free list of
  // reusable slots.
  std::pmr::vector<EventCallback> slots_;
  std::pmr::vector<uint32_t> free_slots_;

  // --- replay streams ---
  struct ReplayStream {
    StreamFireFn fire;
    StreamSeekFn seek;
    void* ctx;
    std::span<const int64_t> times_us;
    // Point i takes seq seq_base + i. Unsigned arithmetic, so the base may
    // wrap when points before the attach time were skipped.
    uint64_t seq_base;
    // Index of the queued point; times_us.size() when none is queued. A
    // heap entry with another index was superseded by a reseek.
    uint32_t queued;
    bool firing = false;  // its fire is running: a reseek waits for it
  };
  std::vector<ReplayStream> streams_;
  size_t queued_streams_ = 0;  // streams with a queued point
  // The queued point of every stream that has one, keyed by its seq and
  // the stream's number, plus superseded entries not yet dropped: a binary
  // heap ordered by Later, so the earliest is front().
  std::pmr::vector<QueuedEvent> stream_heap_;

  // Observability instruments; all null when built without a registry.
  MetricCounter* events_scheduled_metric_ = nullptr;
  MetricCounter* events_fired_metric_ = nullptr;
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
