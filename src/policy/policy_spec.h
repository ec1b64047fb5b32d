// Policy specification strings.
//
// A PolicySpec names one bidding strategy and one pool-selection strategy by
// registry key, with optional numeric parameters:
//
//   bid=on-demand,map=1p-m            (the paper's defaults)
//   bid=multiple:1.5,map=4p-cost      (k=1.5 bids over cost-weighted pools)
//   bid=adaptive:2,map=index-track    (both new families)
//
// Grammar: comma-separated `key=value` pairs, keys `bid` and `map` (each at
// most once), values `name[:param[:param...]]` with params parsed as
// finite doubles. Parse() validates names and parameters against the
// PolicyRegistry, so a spec that parses is a spec that instantiates. Specs
// round-trip exactly: Parse(spec.ToString()) == spec.
//
// A spec is the one identity of a policy: configs, benches, the CLI and the
// reports all name strategies this way; see DESIGN.md section 15.

#ifndef SRC_POLICY_POLICY_SPEC_H_
#define SRC_POLICY_POLICY_SPEC_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace spotcheck {

// One strategy reference: a registry name plus numeric parameters.
struct StrategySpec {
  std::string name;
  std::vector<double> params;

  bool operator==(const StrategySpec& other) const = default;

  // "name" or "name:p1:p2". Each param prints via %.12g when that reads back
  // as the same double, else with the fewest more digits (at most 17) that
  // do, so the text always round-trips.
  std::string ToString() const;
};

struct PolicySpec {
  StrategySpec bid{"on-demand", {}};
  StrategySpec map{"1p-m", {}};

  bool operator==(const PolicySpec& other) const = default;

  // "bid=<bid>,map=<map>"; Parse(ToString()) == *this.
  std::string ToString() const;

  // Display name for tables, report labels and state dumps: the upper-cased
  // map name ("4P-ED") when the bid is the default on-demand and the map
  // takes no parameters -- the paper's Table-2 names -- else ToString().
  std::string Label() const;

  // Parses and validates `text` against the registry. On failure returns
  // nullopt and, when `error` is non-null, a one-line description naming the
  // offending token. Omitted keys keep their defaults, so "map=4p-ed" alone
  // is a valid spec.
  static std::optional<PolicySpec> Parse(std::string_view text,
                                         std::string* error = nullptr);
};

// Flag-parsing helper for benches and the CLI: parses `text` or prints the
// error plus the registered strategy names to stderr and exits 2 (the same
// loud-failure contract as the strict FlagParser).
PolicySpec ParsePolicySpecOrExit(const std::string& text);

}  // namespace spotcheck

#endif  // SRC_POLICY_POLICY_SPEC_H_
