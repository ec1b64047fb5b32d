// Placement: which pool, which host, which backup.
//
// The PlacementEngine wraps the customer-to-pool mapping policy (Table 2)
// and every "pick a host" decision the controller makes: first placement of
// a fresh VM, the capacity lookup behind repatriation, hot-spare and
// staging-host selection during evacuations, and the mechanics of binding a
// VM to a host (volume/address attachment, VPC address, backup stream).

#ifndef SRC_CORE_PLACEMENT_H_
#define SRC_CORE_PLACEMENT_H_

#include <map>
#include <memory>
#include <vector>

#include "src/common/ids.h"
#include "src/core/controller_context.h"
#include "src/obs/trace.h"
#include "src/policy/strategy.h"
#include "src/virt/host_vm.h"
#include "src/virt/nested_vm.h"

namespace spotcheck {

class PlacementEngine {
 public:
  explicit PlacementEngine(ControllerContext* ctx);

  PlacementEngine(const PlacementEngine&) = delete;
  PlacementEngine& operator=(const PlacementEngine&) = delete;

  // Candidate pools of the configured pool-selection strategy.
  const std::vector<MarketKey>& candidates() const {
    return pool_->candidates();
  }

  // Chooses a pool and either joins an existing host with a free slot or
  // queues the VM on a (possibly fresh) spot launch.
  void PlaceVm(NestedVm& vm);
  // A host this VM was queued on for initial placement is up.
  void OnInitialPlacementHostReady(NestedVm& vm, HostVm& host);
  // Binds `vm` to `host`: capacity, first-birth bookkeeping (volume,
  // address, VPC subnet), and the backup stream. Re-places on a lost
  // capacity race.
  void AttachVmToHost(NestedVm& vm, HostVm& host);
  // (Re-)derives whether the VM needs a backup stream on its current host
  // and assigns/releases accordingly.
  void AssignBackup(NestedVm& vm);
  // Completes a live migration: moves residency, re-arms the backup, swings
  // volume/address/NAT to `destination`, releases the old host when empty.
  void MoveVmToHost(NestedVm& vm, HostVm& destination);
  void DetachVmFromCurrentHost(NestedVm& vm);
  // Re-binds the VM's private address to its current host.
  void RebindNetwork(NestedVm& vm);

  // First ready hot spare that fits `spec`; promotes it to a regular host.
  HostVm* PickSpareDestination(const NestedVmSpec& spec);
  // An under-utilized spot host in a different, currently-stable pool that
  // can temporarily take `spec` (Section 4.3's staging servers).
  HostVm* PickStagingHost(const NestedVmSpec& spec, const MarketKey& exclude);

 private:
  ControllerContext* ctx_;
  // The pool-selection strategy the registry created from the controller's
  // PolicySpec.
  std::unique_ptr<PoolSelectionStrategy> pool_;
  // Open "placement.place" spans: PlaceVm -> first successful attach.
  // Empty when tracing is off.
  std::map<NestedVmId, SpanId> placing_spans_;
};

}  // namespace spotcheck

#endif  // SRC_CORE_PLACEMENT_H_
