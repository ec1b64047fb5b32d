#include "src/common/memory_probe.h"

#include <cstdio>

#if defined(__linux__)
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace spotcheck {

int64_t CurrentRssBytes() {
#if defined(__linux__)
  // Opened once for the process's life: pread at offset 0 regenerates the
  // pseudo-file's content on every read and is safe from any thread, and it
  // skips the open/close pair a fresh fopen would pay on each read.
  static const int statm = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  if (statm < 0) {
    return 0;
  }
  char text[128];
  const ssize_t length = ::pread(statm, text, sizeof(text) - 1, 0);
  if (length <= 0) {
    return 0;
  }
  text[length] = '\0';
  long total_pages = 0;
  long resident_pages = 0;
  if (std::sscanf(text, "%ld %ld", &total_pages, &resident_pages) != 2) {
    return 0;
  }
  return static_cast<int64_t>(resident_pages) * sysconf(_SC_PAGESIZE);
#else
  return 0;
#endif
}

int64_t PeakRssBytes() {
#if defined(__linux__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;
#else
  return 0;
#endif
}

}  // namespace spotcheck
