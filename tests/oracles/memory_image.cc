#include "tests/oracles/memory_image.h"

#include <algorithm>

namespace spotcheck {

MemoryImage::MemoryImage(double memory_mb, double wss_mb, Rng rng)
    : pages_(static_cast<size_t>(
          std::max(1.0, memory_mb * 1024.0 / static_cast<double>(kPageSizeKb)))),
      dirty_(pages_.size(), false),
      wss_pages_(std::clamp<int64_t>(
          static_cast<int64_t>(wss_mb * 1024.0 / static_cast<double>(kPageSizeKb)), 1,
          static_cast<int64_t>(pages_.size()))),
      rng_(rng) {}

int64_t MemoryImage::ClampPage(int64_t page) const {
  return std::clamp<int64_t>(page, 0, num_pages() - 1);
}

void MemoryImage::DirtyPage(int64_t page) {
  page = ClampPage(page);
  pages_[page] = pages_[page] * 6364136223846793005ULL + 1442695040888963407ULL;
  if (!dirty_[page]) {
    dirty_[page] = true;
    ++dirty_count_;
  }
  ++total_writes_;
}

int64_t MemoryImage::Run(SimDuration dt, double dirty_rate_mbps) {
  const double mb = dirty_rate_mbps * dt.seconds();
  const int64_t writes =
      static_cast<int64_t>(mb * 1024.0 / static_cast<double>(kPageSizeKb));
  for (int64_t i = 0; i < writes; ++i) {
    // 90% of writes hit the hot working set at the front of the image; the
    // rest scatter (guest page cache, allocator churn).
    if (rng_.Bernoulli(0.9)) {
      DirtyPage(rng_.UniformInt(0, wss_pages_ - 1));
    } else {
      DirtyPage(rng_.UniformInt(0, num_pages() - 1));
    }
  }
  return writes;
}

std::vector<int64_t> MemoryImage::CollectDirty() {
  std::vector<int64_t> collected;
  collected.reserve(static_cast<size_t>(dirty_count_));
  for (int64_t page = 0; page < num_pages(); ++page) {
    if (dirty_[page]) {
      collected.push_back(page);
      dirty_[page] = false;
    }
  }
  dirty_count_ = 0;
  return collected;
}

uint64_t MemoryImage::Digest() const {
  uint64_t digest = 0x9e3779b97f4a7c15ULL;
  for (size_t page = 0; page < pages_.size(); ++page) {
    uint64_t x = static_cast<uint64_t>(page + 1) * 0xbf58476d1ce4e5b9ULL ^
                 pages_[page];
    x ^= x >> 31;
    digest ^= x * 0x94d049bb133111ebULL;
  }
  return digest;
}

}  // namespace spotcheck
