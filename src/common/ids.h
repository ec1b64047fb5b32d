// Strongly-typed integer identifiers.
//
// Every entity in the system (native instances, nested VMs, customers, pools,
// backup servers, EBS volumes, IP addresses, ...) is referred to by a typed
// 64-bit ID so that, e.g., an InstanceId can never be passed where a
// NestedVmId is expected. IDs are allocated monotonically by IdGenerator and
// are never reused within a simulation.

#ifndef SRC_COMMON_IDS_H_
#define SRC_COMMON_IDS_H_

#include <cstdint>
#include <compare>
#include <functional>
#include <string>

namespace spotcheck {

template <typename Tag>
class TypedId {
 public:
  constexpr TypedId() = default;
  constexpr explicit TypedId(uint64_t value) : value_(value) {}

  constexpr uint64_t value() const { return value_; }
  constexpr bool valid() const { return value_ != 0; }

  constexpr auto operator<=>(const TypedId&) const = default;

  std::string ToString() const {
    return std::string(Tag::kPrefix) + "-" + std::to_string(value_);
  }

 private:
  uint64_t value_ = 0;  // 0 is reserved as "invalid".
};

template <typename Tag>
class IdGenerator {
 public:
  TypedId<Tag> Next() { return TypedId<Tag>(++last_); }

 private:
  uint64_t last_ = 0;
};

struct InstanceTag { static constexpr const char* kPrefix = "i"; };
struct NestedVmTag { static constexpr const char* kPrefix = "nvm"; };
struct CustomerTag { static constexpr const char* kPrefix = "cust"; };
struct PoolTag { static constexpr const char* kPrefix = "pool"; };
struct BackupServerTag { static constexpr const char* kPrefix = "bak"; };
struct VolumeTag { static constexpr const char* kPrefix = "vol"; };
struct AddressTag { static constexpr const char* kPrefix = "ip"; };
struct EventTag { static constexpr const char* kPrefix = "ev"; };
struct RequestTag { static constexpr const char* kPrefix = "req"; };

using InstanceId = TypedId<InstanceTag>;
using NestedVmId = TypedId<NestedVmTag>;
using CustomerId = TypedId<CustomerTag>;
using PoolId = TypedId<PoolTag>;
using BackupServerId = TypedId<BackupServerTag>;
using VolumeId = TypedId<VolumeTag>;
using AddressId = TypedId<AddressTag>;
using EventId = TypedId<EventTag>;
using RequestId = TypedId<RequestTag>;

}  // namespace spotcheck

template <typename Tag>
struct std::hash<spotcheck::TypedId<Tag>> {
  size_t operator()(const spotcheck::TypedId<Tag>& id) const noexcept {
    return std::hash<uint64_t>()(id.value());
  }
};

#endif  // SRC_COMMON_IDS_H_
