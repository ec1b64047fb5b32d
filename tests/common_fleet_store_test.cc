// FleetTable: the arena behind fleet-scale VM/host/instance storage.
//
// The properties the controller and native cloud rely on: O(1)
// find/emplace/erase, pointer stability across arbitrary growth (event
// lambdas capture T&), slot recycling after erase, and iteration in
// ascending id order -- the std::map order the determinism contract pins.

#include "src/common/fleet_store.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/ids.h"

namespace spotcheck {
namespace {

struct TrackedRecord {
  explicit TrackedRecord(int value) : payload(value) { ++live_count; }
  ~TrackedRecord() { --live_count; }
  TrackedRecord(const TrackedRecord&) = delete;
  TrackedRecord& operator=(const TrackedRecord&) = delete;

  int payload = 0;
  static int live_count;
};
int TrackedRecord::live_count = 0;

using TestTable = FleetTable<NestedVmTag, TrackedRecord, /*kBlockSlots=*/4>;

TEST(FleetTableTest, EmplaceFindAndSize) {
  TestTable table;
  EXPECT_TRUE(table.empty());
  IdGenerator<NestedVmTag> ids;
  const NestedVmId a = ids.Next();
  const NestedVmId b = ids.Next();
  table.Emplace(a, 10);
  table.Emplace(b, 20);
  EXPECT_EQ(table.size(), 2u);
  ASSERT_NE(table.Find(a), nullptr);
  EXPECT_EQ(table.Find(a)->payload, 10);
  EXPECT_EQ(table.At(b).payload, 20);
  EXPECT_EQ(table.Find(NestedVmId(999)), nullptr);
  EXPECT_FALSE(table.Contains(NestedVmId()));
}

TEST(FleetTableTest, FindOrEmplaceKeepsALiveRecord) {
  FleetTable<NestedVmTag, int, /*kBlockSlots=*/4> table;
  IdGenerator<NestedVmTag> ids;
  const NestedVmId a = ids.Next();
  int& fresh = table.FindOrEmplace(a);
  EXPECT_EQ(fresh, 0);  // value-initialized, as std::map::operator[]
  fresh = 7;
  EXPECT_EQ(&table.FindOrEmplace(a), &fresh);
  EXPECT_EQ(table.At(a), 7);
  EXPECT_EQ(table.size(), 1u);
  ASSERT_TRUE(table.Erase(a));
  EXPECT_EQ(table.FindOrEmplace(a), 0);
}

TEST(FleetTableTest, PointersStayStableAcrossBlockGrowth) {
  TestTable table;
  IdGenerator<NestedVmTag> ids;
  const NestedVmId first = ids.Next();
  TrackedRecord& pinned = table.Emplace(first, 1);
  TrackedRecord* address = &pinned;
  // Grow well past several 4-slot blocks.
  for (int i = 0; i < 40; ++i) {
    table.Emplace(ids.Next(), 100 + i);
  }
  EXPECT_EQ(&table.At(first), address);
  EXPECT_EQ(address->payload, 1);
}

TEST(FleetTableTest, EraseRecyclesSlotsAndRunsDestructors) {
  TestTable table;
  IdGenerator<NestedVmTag> ids;
  std::vector<NestedVmId> handed;
  for (int i = 0; i < 8; ++i) {
    handed.push_back(ids.Next());
    table.Emplace(handed.back(), i);
  }
  EXPECT_EQ(TrackedRecord::live_count, 8);
  EXPECT_TRUE(table.Erase(handed[2]));
  EXPECT_TRUE(table.Erase(handed[5]));
  EXPECT_FALSE(table.Erase(handed[5]));  // already dead
  EXPECT_EQ(TrackedRecord::live_count, 6);
  EXPECT_EQ(table.Find(handed[2]), nullptr);
  // New records reuse the freed slots: no block growth needed for two more.
  const size_t bytes_before = table.bytes_allocated();
  table.Emplace(ids.Next(), 100);
  table.Emplace(ids.Next(), 101);
  EXPECT_EQ(table.bytes_allocated(), bytes_before);
  EXPECT_EQ(table.size(), 8u);
}

TEST(FleetTableTest, ForEachVisitsInAscendingIdOrderWithGaps) {
  TestTable table;
  IdGenerator<NestedVmTag> ids;
  std::vector<NestedVmId> handed;
  for (int i = 0; i < 10; ++i) {
    handed.push_back(ids.Next());
    table.Emplace(handed.back(), i);
  }
  // Punch gaps, then add one more (which recycles a mid-table slot, so
  // slot order and id order now genuinely differ).
  table.Erase(handed[0]);
  table.Erase(handed[4]);
  table.Erase(handed[7]);
  const NestedVmId late = ids.Next();
  table.Emplace(late, 99);
  std::vector<uint64_t> visited;
  table.ForEach([&](NestedVmId id, const TrackedRecord& record) {
    visited.push_back(id.value());
    if (id == late) {
      EXPECT_EQ(record.payload, 99);
    }
  });
  const std::vector<uint64_t> want = {2, 3, 4, 6, 7, 9, 10, 11};
  EXPECT_EQ(visited, want);
}

TEST(FleetTableTest, ConstForEachAndMutationThroughForEach) {
  TestTable table;
  IdGenerator<NestedVmTag> ids;
  for (int i = 0; i < 3; ++i) {
    table.Emplace(ids.Next(), i);
  }
  table.ForEach([](NestedVmId, TrackedRecord& record) { record.payload += 5; });
  const TestTable& view = table;
  int sum = 0;
  view.ForEach(
      [&](NestedVmId, const TrackedRecord& record) { sum += record.payload; });
  EXPECT_EQ(sum, 0 + 1 + 2 + 3 * 5);
}

TEST(FleetTableTest, ClearAndDestructorDestroyEverything) {
  {
    TestTable table;
    IdGenerator<NestedVmTag> ids;
    for (int i = 0; i < 9; ++i) {
      table.Emplace(ids.Next(), i);
    }
    EXPECT_EQ(TrackedRecord::live_count, 9);
    table.clear();
    EXPECT_EQ(TrackedRecord::live_count, 0);
    EXPECT_TRUE(table.empty());
    // The table is reusable after clear().
    table.Emplace(ids.Next(), 7);
    EXPECT_EQ(TrackedRecord::live_count, 1);
  }
  EXPECT_EQ(TrackedRecord::live_count, 0);
}

TEST(FleetTableTest, BytesAllocatedGrowsWithBlocks) {
  TestTable table;
  IdGenerator<NestedVmTag> ids;
  table.Emplace(ids.Next(), 0);
  const size_t one_block = table.bytes_allocated();
  EXPECT_GT(one_block, 0u);
  for (int i = 0; i < 20; ++i) {
    table.Emplace(ids.Next(), i);
  }
  EXPECT_GT(table.bytes_allocated(), one_block);
  table.clear();
}

}  // namespace
}  // namespace spotcheck
