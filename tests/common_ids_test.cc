#include "src/common/ids.h"

#include <gtest/gtest.h>

#include <unordered_set>

namespace spotcheck {
namespace {

TEST(TypedIdTest, DefaultIsInvalid) {
  EXPECT_FALSE(InstanceId().valid());
  EXPECT_TRUE(InstanceId(1).valid());
  EXPECT_EQ(InstanceId().value(), 0u);
}

TEST(TypedIdTest, OrderingAndEquality) {
  EXPECT_EQ(NestedVmId(3), NestedVmId(3));
  EXPECT_NE(NestedVmId(3), NestedVmId(4));
  EXPECT_LT(NestedVmId(3), NestedVmId(4));
}

TEST(TypedIdTest, PrefixedNames) {
  EXPECT_EQ(InstanceId(42).ToString(), "i-42");
  EXPECT_EQ(NestedVmId(7).ToString(), "nvm-7");
  EXPECT_EQ(CustomerId(1).ToString(), "cust-1");
  EXPECT_EQ(BackupServerId(2).ToString(), "bak-2");
}

TEST(TypedIdTest, HashableInUnorderedContainers) {
  std::unordered_set<InstanceId> set;
  set.insert(InstanceId(1));
  set.insert(InstanceId(2));
  set.insert(InstanceId(1));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(InstanceId(2)));
}

TEST(IdGeneratorTest, MonotonicFromOne) {
  IdGenerator<InstanceTag> gen;
  EXPECT_EQ(gen.Next(), InstanceId(1));
  EXPECT_EQ(gen.Next(), InstanceId(2));
  EXPECT_EQ(gen.Next(), InstanceId(3));
}

TEST(IdGeneratorTest, IndependentGeneratorsIndependentSequences) {
  IdGenerator<InstanceTag> a;
  IdGenerator<NestedVmTag> b;
  (void)a.Next();
  (void)a.Next();
  EXPECT_EQ(b.Next(), NestedVmId(1));
}

}  // namespace
}  // namespace spotcheck
