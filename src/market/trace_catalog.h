// Loading real spot-price history from disk.
//
// The paper replays six months of EC2 spot price history (April-October
// 2014, from Amazon's public API and a third-party archive [21]). When such
// history is available as CSV files, this module feeds it into a MarketPlace
// in place of the synthetic traces. File naming convention:
//
//     <instance-type>@zone-<index>.csv       e.g.  m3.medium@zone-0.csv
//
// with one "seconds,price" row per change point (PriceTrace::FromCsv's
// format). Files with unknown type names are reported and skipped.

// This module also hosts the process-wide TraceCatalog: a memo of generated
// synthetic traces keyed by (market, horizon, seed), so that the 20 cells of
// an evaluation grid (and repeated figure benches) generate each market's
// six-month trace exactly once and share one immutable copy.
//
// Concurrency design: one mutex over one map, held across generation, so a
// key is generated exactly once however many threads ask for it. The grid
// pre-warms every key its cells need on the calling thread before any
// worker starts (RunPolicyEvaluationGrid), so workers only ever hit: about
// three lookups per six-month cell, each a map probe under an uncontended
// mutex.

#ifndef SRC_MARKET_TRACE_CATALOG_H_
#define SRC_MARKET_TRACE_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/market/spot_market.h"

namespace spotcheck {

class TraceCatalog {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
  };

  // Per-call diagnostics for one GetOrGenerate.
  struct Lookup {
    bool hit = false;  // served without generating a trace
    // Wall time this call spent acquiring the catalog mutex, including any
    // wait while another thread generated a trace under it. Observational
    // only (never feeds simulation state).
    int64_t lock_wait_ns = 0;
  };

  // The singleton shared by every MarketPlace in the process.
  static TraceCatalog& Global();

  // Returns the trace for (key, horizon, seed), generating it on first use.
  // Thread-safe; generation runs under the catalog mutex, so each key is
  // generated once. `info`, when non-null, receives per-call diagnostics.
  std::shared_ptr<const PriceTrace> GetOrGenerate(MarketKey key,
                                                  SimDuration horizon,
                                                  uint64_t seed,
                                                  Lookup* info = nullptr);

  Stats stats() const;
  size_t size() const;

  // Drops all entries and resets the counters (tests, memory pressure).
  void Clear();

 private:
  struct Key {
    MarketKey market;
    int64_t horizon_us = 0;
    uint64_t seed = 0;
    auto operator<=>(const Key&) const = default;
  };

  mutable std::mutex mu_;
  std::map<Key, std::shared_ptr<const PriceTrace>> traces_;
  Stats stats_;
};

// Parses "<type>@zone-<n>" (the stem of a trace file name). <n> is
// canonical decimal: digits only, no leading zero. Each market therefore has
// exactly one file name.
std::optional<MarketKey> ParseMarketKey(const std::string& stem);

struct TraceLoadReport {
  std::vector<MarketKey> loaded;
  // Unparsable names, unreadable or invalid files, and files for a market
  // `markets` already holds.
  std::vector<std::string> skipped;
};

// Loads every *.csv in `directory` into `markets`. Returns which markets were
// registered and which files were skipped. A missing/empty directory simply
// yields an empty report.
TraceLoadReport LoadTraceDirectory(MarketPlace& markets,
                                   const std::string& directory);

// Writes `trace` to `directory/<key>.csv`; returns false on I/O error.
bool SaveTrace(const MarketKey& key, const PriceTrace& trace,
               const std::string& directory);

}  // namespace spotcheck

#endif  // SRC_MARKET_TRACE_CATALOG_H_
