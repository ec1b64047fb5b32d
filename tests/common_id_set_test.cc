// IdSet: the id-ordered bitset behind the host pool's per-market indexes.
//
// The pool picks hosts by walking these sets in ascending id order and
// joins launches through Min(), so every answer must equal what the
// std::set<InstanceId> it replaced would give. The reference-model test
// drives both through seeded random operations; the edge cases pin word
// boundaries and the low-word hint.

#include "src/common/id_set.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/ids.h"

namespace spotcheck {
namespace {

std::vector<InstanceId> Members(const IdSet<InstanceTag>& set) {
  std::vector<InstanceId> members;
  set.ForEach([&](InstanceId id) { members.push_back(id); });
  return members;
}

TEST(IdSetTest, InsertEraseAcrossWordBoundaries) {
  IdSet<InstanceTag> set;
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Min().valid());
  for (const uint64_t value : {65u, 63u, 64u, 1u, 127u, 128u}) {
    EXPECT_TRUE(set.Insert(InstanceId(value)));
  }
  EXPECT_FALSE(set.Insert(InstanceId(64)));  // already a member
  EXPECT_EQ(set.size(), 6u);
  EXPECT_TRUE(set.Contains(InstanceId(63)));
  EXPECT_FALSE(set.Contains(InstanceId(62)));
  EXPECT_FALSE(set.Contains(InstanceId(1'000'000)));  // past the last word
  EXPECT_EQ(Members(set),
            (std::vector<InstanceId>{InstanceId(1), InstanceId(63),
                                     InstanceId(64), InstanceId(65),
                                     InstanceId(127), InstanceId(128)}));
  EXPECT_TRUE(set.Erase(InstanceId(1)));
  EXPECT_FALSE(set.Erase(InstanceId(1)));
  EXPECT_FALSE(set.Erase(InstanceId(5'000'000)));
  EXPECT_EQ(set.Min(), InstanceId(63));
  EXPECT_EQ(set.FindFirst([](InstanceId id) { return id.value() % 2 == 0; }),
            InstanceId(64));
  EXPECT_FALSE(
      set.FindFirst([](InstanceId id) { return id.value() > 128; }).valid());
}

TEST(IdSetTest, EmptiedSetTakesMembersBelowTheHint) {
  IdSet<InstanceTag> set;
  set.Insert(InstanceId(1'000'001));
  set.Insert(InstanceId(1'000'130));
  // The walks move the hint up to the word of 1'000'001.
  EXPECT_EQ(set.Min(), InstanceId(1'000'001));
  set.Erase(InstanceId(1'000'001));
  EXPECT_EQ(set.Min(), InstanceId(1'000'130));
  set.Erase(InstanceId(1'000'130));
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Min().valid());
  EXPECT_TRUE(Members(set).empty());
  // Members below the hint must be found again.
  set.Insert(InstanceId(64));
  set.Insert(InstanceId(3));
  EXPECT_EQ(set.Min(), InstanceId(3));
  EXPECT_EQ(Members(set),
            (std::vector<InstanceId>{InstanceId(3), InstanceId(64)}));
}

// Seeded random inserts and erases over ids clustered at a word boundary
// (63/64/65), spread over a small range, and past 10^6, checked after
// every operation against std::set<InstanceId>: membership, size, Min, a
// predicate walk that stops early, and (every 64 steps) a full ascending
// walk. The set is drained every 2,500 steps.
TEST(IdSetTest, MatchesStdSetReferenceModel) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    IdSet<InstanceTag> set;
    std::set<InstanceId> model;
    std::mt19937_64 rng(seed);
    const auto random_id = [&rng]() {
      switch (rng() % 4) {
        case 0:
          return InstanceId(63 + rng() % 3);
        case 1:
          return InstanceId(1 + rng() % 300);
        case 2:
          return InstanceId(1'000'000 + rng() % 200);
        default:
          return InstanceId(1 + rng() % 1'200'000);
      }
    };
    int emptied = 0;
    for (int step = 0; step < 20'000; ++step) {
      const InstanceId id = random_id();
      if (step % 2'500 == 2'499) {
        // Drain completely, then carry on: later inserts land below the
        // hint the drained members left behind.
        for (const InstanceId member : Members(set)) {
          set.Erase(member);
        }
        model.clear();
        ++emptied;
      } else if (rng() % 10 < 6) {
        ASSERT_EQ(set.Insert(id), model.insert(id).second) << "step " << step;
      } else {
        // Erase a member half the time, so the set also drains.
        const InstanceId victim =
            !model.empty() && rng() % 2 == 0
                ? *std::next(model.begin(), static_cast<long>(
                                                rng() % model.size()))
                : id;
        ASSERT_EQ(set.Erase(victim), model.erase(victim) > 0)
            << "step " << step;
      }
      ASSERT_EQ(set.size(), model.size()) << "step " << step;
      ASSERT_EQ(set.Contains(id), model.contains(id)) << "step " << step;
      ASSERT_EQ(set.Min(), model.empty() ? InstanceId() : *model.begin())
          << "step " << step;
      const uint64_t modulus = 2 + rng() % 7;
      const auto pred = [modulus](InstanceId member) {
        return member.value() % modulus == 0;
      };
      const auto expected = std::find_if(model.begin(), model.end(), pred);
      ASSERT_EQ(set.FindFirst(pred),
                expected == model.end() ? InstanceId() : *expected)
          << "step " << step;
      if (step % 64 == 0) {
        ASSERT_EQ(Members(set),
                  std::vector<InstanceId>(model.begin(), model.end()))
            << "step " << step;
      }
    }
    EXPECT_GT(emptied, 0);
  }
}

}  // namespace
}  // namespace spotcheck
