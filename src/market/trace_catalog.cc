#include "src/market/trace_catalog.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/market/spot_price_process.h"

namespace spotcheck {

TraceCatalog& TraceCatalog::Global() {
  static TraceCatalog* catalog = new TraceCatalog();  // never destroyed
  return *catalog;
}

std::shared_ptr<const PriceTrace> TraceCatalog::GetOrGenerate(MarketKey key,
                                                              SimDuration horizon,
                                                              uint64_t seed,
                                                              Lookup* info) {
  const Key cache_key{key, horizon.micros(), seed};
  const auto lock_started = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  Lookup lookup;
  lookup.lock_wait_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - lock_started)
                            .count();

  auto it = traces_.find(cache_key);
  lookup.hit = it != traces_.end();
  if (lookup.hit) {
    ++stats_.hits;
  } else {
    auto trace = std::make_shared<const PriceTrace>(
        GenerateMarketTrace(key, horizon, seed));
    it = traces_.emplace(cache_key, std::move(trace)).first;
    ++stats_.misses;
  }
  if (info != nullptr) {
    *info = lookup;
  }
  return it->second;
}

TraceCatalog::Stats TraceCatalog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t TraceCatalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_.size();
}

void TraceCatalog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  traces_.clear();
  stats_ = Stats{};
}

std::optional<MarketKey> ParseMarketKey(const std::string& stem) {
  const size_t at = stem.find('@');
  if (at == std::string::npos) {
    return std::nullopt;
  }
  const auto type = ParseInstanceType(stem.substr(0, at));
  if (!type.has_value()) {
    return std::nullopt;
  }
  const std::string zone_part = stem.substr(at + 1);
  constexpr std::string_view kPrefix = "zone-";
  if (zone_part.rfind(kPrefix, 0) != 0) {
    return std::nullopt;
  }
  int zone = 0;
  try {
    zone = std::stoi(zone_part.substr(kPrefix.size()));
  } catch (...) {
    return std::nullopt;
  }
  if (zone < 0) {
    return std::nullopt;
  }
  return MarketKey{*type, AvailabilityZone{zone}};
}

TraceLoadReport LoadTraceDirectory(MarketPlace& markets,
                                   const std::string& directory) {
  TraceLoadReport report;
  std::error_code ec;
  if (!std::filesystem::is_directory(directory, ec)) {
    return report;
  }
  for (const auto& entry : std::filesystem::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".csv") {
      continue;
    }
    const std::string stem = entry.path().stem().string();
    const auto key = ParseMarketKey(stem);
    if (!key.has_value()) {
      report.skipped.push_back(entry.path().filename().string());
      continue;
    }
    std::ifstream file(entry.path());
    if (!file) {
      report.skipped.push_back(entry.path().filename().string());
      continue;
    }
    std::ostringstream contents;
    contents << file.rdbuf();
    PriceTrace trace = PriceTrace::FromCsv(contents.str());
    if (trace.empty()) {
      report.skipped.push_back(entry.path().filename().string());
      continue;
    }
    markets.AddWithTrace(*key, std::move(trace));
    report.loaded.push_back(*key);
  }
  return report;
}

bool SaveTrace(const MarketKey& key, const PriceTrace& trace,
               const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  const std::filesystem::path path =
      std::filesystem::path(directory) / (key.ToString() + ".csv");
  std::ofstream file(path);
  if (!file) {
    return false;
  }
  file << trace.ToCsv();
  return static_cast<bool>(file);
}

}  // namespace spotcheck
