// Page-level memory image of a nested VM.
//
// The analytic migration models (migration_models.h) treat memory as a fluid
// with a dirty rate; this module is the discrete substrate underneath them:
// an image of 4 KB pages with a working-set-localized dirtying process and the
// dirty-page tracking that continuous checkpointing marks and cleans. It is
// a test oracle: no shipped binary runs it. Tests use it to validate the
// fluid models: dirty-set growth matches the configured rate until the
// working set saturates, and checkpoint epochs bound the stale set.

#ifndef TESTS_ORACLES_MEMORY_IMAGE_H_
#define TESTS_ORACLES_MEMORY_IMAGE_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"

namespace spotcheck {

class MemoryImage {
 public:
  static constexpr int64_t kPageSizeKb = 4;

  // An image of `memory_mb` with a hot working set of `wss_mb` that receives
  // ~90% of writes (the rest scatter over the whole image, as real guests
  // do). Page contents are deterministic in `rng`.
  MemoryImage(double memory_mb, double wss_mb, Rng rng);

  int64_t num_pages() const { return static_cast<int64_t>(pages_.size()); }
  int64_t wss_pages() const { return wss_pages_; }
  double memory_mb() const {
    return static_cast<double>(num_pages()) * kPageSizeKb / 1024.0;
  }

  // Applies `dt` of guest execution at `dirty_rate_mbps`: dirties the
  // corresponding number of (mostly working-set) pages and bumps their
  // contents. Returns the number of page-dirtying writes applied.
  int64_t Run(SimDuration dt, double dirty_rate_mbps);

  // Dirty-page tracking (what the nested hypervisor's log-dirty mode gives
  // the checkpointer).
  int64_t dirty_pages() const { return dirty_count_; }
  double dirty_mb() const {
    return static_cast<double>(dirty_count_) * kPageSizeKb / 1024.0;
  }

  // Checkpoint epoch: atomically collects and clears the dirty set,
  // returning the page indices shipped to the backup server.
  std::vector<int64_t> CollectDirty();

  // Page content access (for integrity checks across a migration).
  uint64_t PageContent(int64_t page) const { return pages_[ClampPage(page)]; }
  // Order-independent digest over all pages.
  uint64_t Digest() const;

  int64_t total_writes() const { return total_writes_; }

 private:
  int64_t ClampPage(int64_t page) const;
  void DirtyPage(int64_t page);

  std::vector<uint64_t> pages_;
  std::vector<bool> dirty_;
  int64_t dirty_count_ = 0;
  int64_t wss_pages_;
  int64_t total_writes_ = 0;
  Rng rng_;
};

}  // namespace spotcheck

#endif  // TESTS_ORACLES_MEMORY_IMAGE_H_
