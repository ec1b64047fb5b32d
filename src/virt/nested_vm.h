// Nested VM state.
//
// A NestedVm is the customer-visible server: it lives inside a host VM's
// nested hypervisor and (when hosted on a spot server) streams checkpoints
// to a backup server. The migration engine and the controller move it
// between hosts; this class is the bookkeeping record. Its stable private
// IP address lives in the VirtualPrivateCloud (src/net), and the EBS/ENI
// moves that carry its root volume and address to a new host are charged
// as the migration engine's Table-1 downtime, not modeled per VM.

#ifndef SRC_VIRT_NESTED_VM_H_
#define SRC_VIRT_NESTED_VM_H_

#include <cstdint>
#include <string_view>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/virt/vm_spec.h"

namespace spotcheck {

enum class NestedVmState : uint8_t {
  kProvisioning,  // waiting for a host
  kRunning,
  kDegraded,   // running with degraded performance (ramp / lazy restore)
  kMigrating,  // paused or mid-evacuation
  kTerminated, // customer-released
  kFailed,     // state lost (live migration beaten by the termination)
};
inline constexpr int kNumNestedVmStates = 6;

std::string_view NestedVmStateName(NestedVmState state);

class NestedVm {
 public:
  NestedVm(NestedVmId id, CustomerId customer, NestedVmSpec spec)
      : id_(id), customer_(customer), spec_(spec) {}

  NestedVmId id() const { return id_; }
  CustomerId customer() const { return customer_; }
  const NestedVmSpec& spec() const { return spec_; }

  NestedVmState state() const { return state_; }
  void set_state(NestedVmState state) {
    if (state_counters_ != nullptr) {
      --state_counters_[static_cast<int>(state_)];
      ++state_counters_[static_cast<int>(state)];
    }
    state_ = state;
  }
  bool alive() const {
    return state_ != NestedVmState::kTerminated && state_ != NestedVmState::kFailed;
  }

  // Points this VM at a per-state population counter array (indexed by
  // NestedVmState, kNumNestedVmStates entries) that every set_state updates
  // in place. This is how the controller answers RunningVmCount() for a
  // million-VM fleet in O(1) instead of scanning every record. The array
  // must outlive the VM; binding counts the current state immediately.
  void BindStateCounters(int64_t* counters) {
    state_counters_ = counters;
    if (counters != nullptr) {
      ++counters[static_cast<int>(state_)];
    }
  }

  // Current placement; invalid ids mean "none".
  InstanceId host() const { return host_; }
  void set_host(InstanceId host) { host_ = host; }
  BackupServerId backup() const { return backup_; }
  void set_backup(BackupServerId backup) { backup_ = backup; }

  int64_t migrations() const { return migrations_; }
  void count_migration() { ++migrations_; }

 private:
  NestedVmId id_;
  CustomerId customer_;
  NestedVmSpec spec_;
  NestedVmState state_ = NestedVmState::kProvisioning;
  int64_t* state_counters_ = nullptr;  // nullable; see BindStateCounters
  InstanceId host_;
  BackupServerId backup_;
  int64_t migrations_ = 0;
};

}  // namespace spotcheck

#endif  // SRC_VIRT_NESTED_VM_H_
