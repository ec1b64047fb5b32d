// Process-memory probes shared by benchmarks and the telemetry recorder.
//
// Both readings are observational wall-side facts about the process -- they
// never feed simulation state -- and both degrade to 0 on platforms without
// /proc or getrusage, so callers can emit them unconditionally.

#ifndef SRC_COMMON_MEMORY_PROBE_H_
#define SRC_COMMON_MEMORY_PROBE_H_

#include <cstdint>

namespace spotcheck {

// Current resident set in bytes, from /proc/self/statm (0 where /proc is
// unavailable). Cheap enough to sample periodically: one pread of a
// descriptor opened on first use and kept for the process's life.
// Thread-safe.
int64_t CurrentRssBytes();

// Lifetime peak resident set in bytes, from getrusage (0 where unavailable).
int64_t PeakRssBytes();

}  // namespace spotcheck

#endif  // SRC_COMMON_MEMORY_PROBE_H_
