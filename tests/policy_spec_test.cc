// PolicySpec parse/round-trip tests (ISSUE 9, satellite): the spec grammar
// ("bid=multiple:1.5,map=4p-cost") is the only way benches, the CLI, and
// config files address strategies, so every registered name must survive a
// Parse(ToString()) round trip and every malformed spec must fail loudly
// with a diagnostic -- ParsePolicySpecOrExit exits 2, never limps on with a
// default policy.

#include "src/policy/policy_spec.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/policy/registry.h"

namespace spotcheck {
namespace {

// Finds a parameter list the named strategy's factory accepts, preferring
// the bare name. Registry-driven so a strategy added later is covered
// without editing this file.
StrategySpec ValidBidSpec(const std::string& name) {
  const std::vector<std::vector<double>> candidates = {
      {}, {2.0}, {2.0, 0.5}, {2.0, 0.5, 1.0}};
  for (const std::vector<double>& params : candidates) {
    StrategySpec spec{name, params};
    std::string error;
    if (PolicyRegistry::Instance().CreateBid(spec, &error) != nullptr) {
      return spec;
    }
  }
  ADD_FAILURE() << "no valid parameterization found for bid strategy '" << name
                << "'";
  return StrategySpec{name, {}};
}

StrategySpec ValidPoolSpec(const std::string& name) {
  const std::vector<std::vector<double>> candidates = {{}, {0.5}, {0.5, 2.0}};
  for (const std::vector<double>& params : candidates) {
    StrategySpec spec{name, params};
    std::string error;
    if (PolicyRegistry::Instance().CreatePool(spec, PoolStrategyInit{},
                                              &error) != nullptr) {
      return spec;
    }
  }
  ADD_FAILURE() << "no valid parameterization found for pool strategy '"
                << name << "'";
  return StrategySpec{name, {}};
}

std::optional<PolicySpec> ParseOk(const std::string& text) {
  std::string error;
  std::optional<PolicySpec> spec = PolicySpec::Parse(text, &error);
  EXPECT_TRUE(spec.has_value()) << "'" << text << "' failed: " << error;
  return spec;
}

TEST(PolicySpecTest, EveryRegisteredBidStrategyRoundTrips) {
  const PolicyRegistry& registry = PolicyRegistry::Instance();
  ASSERT_FALSE(registry.BidNames().empty());
  for (const std::string& name : registry.BidNames()) {
    SCOPED_TRACE(name);
    PolicySpec spec;
    spec.bid = ValidBidSpec(name);
    spec.map = StrategySpec{"1p-m", {}};
    const std::string text = spec.ToString();
    const std::optional<PolicySpec> parsed = ParseOk(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->ToString(), text);
    EXPECT_EQ(parsed->bid.name, spec.bid.name);
    EXPECT_EQ(parsed->bid.params, spec.bid.params);
  }
}

TEST(PolicySpecTest, EveryRegisteredPoolStrategyRoundTrips) {
  const PolicyRegistry& registry = PolicyRegistry::Instance();
  ASSERT_FALSE(registry.PoolNames().empty());
  for (const std::string& name : registry.PoolNames()) {
    SCOPED_TRACE(name);
    PolicySpec spec;
    spec.bid = StrategySpec{"on-demand", {}};
    spec.map = ValidPoolSpec(name);
    const std::string text = spec.ToString();
    const std::optional<PolicySpec> parsed = ParseOk(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->ToString(), text);
    EXPECT_EQ(parsed->map.name, spec.map.name);
    EXPECT_EQ(parsed->map.params, spec.map.params);
  }
}

TEST(PolicySpecTest, BuiltInFamiliesAreRegistered) {
  // The names the paper tables, benches, and docs rely on.
  const PolicyRegistry& registry = PolicyRegistry::Instance();
  for (const char* name : {"on-demand", "multiple", "adaptive"}) {
    EXPECT_TRUE(registry.HasBid(name)) << name;
  }
  for (const char* name : {"1p-m", "2p-ml", "4p-ed", "4p-cost", "4p-st",
                           "greedy", "stable", "index-track"}) {
    EXPECT_TRUE(registry.HasPool(name)) << name;
  }
}

TEST(PolicySpecTest, ParameterizedSpecsRoundTripAtFullPrecision) {
  for (const char* text : {"bid=multiple:1.5,map=4p-cost",
                           "bid=adaptive:2:0.5:1,map=index-track",
                           "bid=adaptive:1.25,map=4p-ed",
                           "bid=on-demand,map=1p-m",
                           // Past %.12g: must not print as multiple:1 or
                           // index-track:0.123456789012.
                           "bid=multiple:1.0000000000001,map=1p-m",
                           "bid=on-demand,map=index-track:0.12345678901234"}) {
    SCOPED_TRACE(text);
    const std::optional<PolicySpec> parsed = ParseOk(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->ToString(), text);
    EXPECT_EQ(PolicySpec::Parse(parsed->ToString()), parsed);
  }
}

TEST(PolicySpecTest, KeyOrderIsCanonicalizedByToString) {
  // map= first still parses; ToString always emits bid-then-map.
  const std::optional<PolicySpec> parsed =
      ParseOk("map=4p-ed,bid=multiple:1.5");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ToString(), "bid=multiple:1.5,map=4p-ed");
}

TEST(PolicySpecTest, MalformedSpecsFailWithDiagnostic) {
  const char* kBad[] = {
      "",                                // empty
      "bid=bogus,map=1p-m",              // unknown bid strategy
      "bid=on-demand,map=nope",          // unknown pool strategy
      "bid=multiple,map=1p-m",           // multiple requires its factor
      "bid=multiple:0.5,map=1p-m",       // factor below 1 is rejected
      "bid=multiple:abc,map=1p-m",       // non-numeric parameter
      "bid=on-demand,bid=multiple:2",    // duplicate key
      "map=1p-m,map=4p-ed",              // duplicate key
      "foo=bar",                         // unknown key
      "bid=on-demand,,map=1p-m",         // empty segment
      "bid=on-demand map=1p-m",          // missing comma
      "bid=:2,map=1p-m",                 // empty strategy name
      "bid=multiple:inf,map=1p-m",       // non-finite bid
      "bid=multiple:1e999,map=1p-m",     // strtod overflow to inf
      "bid=multiple:nan,map=1p-m",       // not a number
      "bid=adaptive:2:inf:inf,map=1p-m", // non-finite step and target
  };
  for (const char* text : kBad) {
    SCOPED_TRACE(std::string("'") + text + "'");
    std::string error;
    EXPECT_FALSE(PolicySpec::Parse(text, &error).has_value());
    EXPECT_FALSE(error.empty()) << "rejection must carry a diagnostic";
  }
}

TEST(PolicySpecDeathTest, OrExitExitsWithCode2OnBadSpec) {
  EXPECT_EXIT(ParsePolicySpecOrExit("bid=bogus,map=1p-m"),
              testing::ExitedWithCode(2), "invalid --policy spec");
  // The error message lists what IS registered, so a typo is self-serviceable.
  EXPECT_EXIT(ParsePolicySpecOrExit("bid=adaptve:2,map=1p-m"),
              testing::ExitedWithCode(2), "bid strategies:");
}

TEST(PolicySpecDeathTest, OrExitReturnsParsedSpecOnGoodInput) {
  const PolicySpec spec = ParsePolicySpecOrExit("bid=adaptive:2,map=index-track");
  EXPECT_EQ(spec.bid.name, "adaptive");
  ASSERT_EQ(spec.bid.params.size(), 1u);
  EXPECT_EQ(spec.bid.params[0], 2.0);
  EXPECT_EQ(spec.map.name, "index-track");
}

}  // namespace
}  // namespace spotcheck
