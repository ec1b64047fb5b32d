#include "src/core/repatriation.h"

#include <algorithm>
#include <utility>

#include "src/cloud/native_cloud.h"
#include "src/core/controller_config.h"
#include "src/core/event_log.h"
#include "src/core/host_pool.h"
#include "src/core/placement.h"
#include "src/policy/strategy.h"
#include "src/virt/migration_engine.h"

namespace spotcheck {

// --- MarketWatcher -----------------------------------------------------------

void MarketWatcher::Subscribe(const MarketKey& key) {
  if (subscribed_[key]) {
    return;
  }
  subscribed_[key] = true;
  ctx_->cloud->MarketFor(key).Subscribe(
      [this, key](const SpotMarket&, double price) {
        OnPriceChange(key, price);
      });
}

void MarketWatcher::OnPriceChange(const MarketKey& key, double price) {
  const ControllerConfig& config = *ctx_->config;
  BidStrategy& bid = *ctx_->bid;
  // Adaptive strategies rebid from observed crossing rates; the fixed
  // strategies' hook is a no-op, keeping the pre-refactor event sequence
  // bit-identical.
  bid.OnPriceObservation(key, ctx_->Now(), price);
  const double od_price = OnDemandPrice(key.type);
  bool predicted_risk = false;
  if (config.enable_predictive) {
    auto [it, inserted] = predictors_.try_emplace(
        key, RevocationPredictor(config.predictor, od_price));
    it->second.Observe(ctx_->Now(), price);
    predicted_risk = it->second.AtRisk();
  }
  if (config.enable_repatriation && price <= od_price && !predicted_risk) {
    ctx_->repatriation->TryRepatriate(key);
  }
  if (config.enable_proactive && bid.SupportsProactiveMigration() &&
      price > bid.ProactiveThreshold(key.type) &&
      price <= bid.BidFor(key.type)) {
    ctx_->repatriation->ProactivelyDrain(key);
  }
  // The predictor fires while the price is still below the bid -- the whole
  // point is to leave before any revocation warning exists.
  if (predicted_risk && price <= bid.BidFor(key.type)) {
    ctx_->repatriation->ProactivelyDrain(key);
  }
}

// --- RepatriationScheduler ---------------------------------------------------

RepatriationScheduler::RepatriationScheduler(ControllerContext* ctx)
    : ctx_(ctx) {
  if (ctx_->metrics != nullptr) {
    repatriations_metric_ = &ctx_->metrics->Counter("controller.repatriations");
    proactive_migrations_metric_ =
        &ctx_->metrics->Counter("controller.proactive_migrations");
  }
}

void RepatriationScheduler::EnqueueRepatriation(const MarketKey& key,
                                                NestedVmId vm) {
  const auto [it, inserted] = waitlisted_.try_emplace(vm, key);
  if (!inserted) {
    if (it->second == key) {
      return;  // already waiting for this pool
    }
    // Re-exiled toward a different pool; the newest exile wins.
    auto& old_list = repatriation_waitlist_[it->second];
    old_list.erase(std::remove(old_list.begin(), old_list.end(), vm),
                   old_list.end());
    it->second = key;
  }
  repatriation_waitlist_[key].push_back(vm);
}

void RepatriationScheduler::TryRepatriate(const MarketKey& key) {
  auto it = repatriation_waitlist_.find(key);
  if (it == repatriation_waitlist_.end() || it->second.empty()) {
    return;
  }
  std::vector<NestedVmId> waiting = std::move(it->second);
  it->second.clear();
  for (NestedVmId vm_id : waiting) {
    waitlisted_.erase(vm_id);
    NestedVm* vm_ptr = ctx_->FindAliveVm(vm_id);
    if (vm_ptr == nullptr) {
      continue;
    }
    NestedVm& vm = *vm_ptr;
    const HostVm* current = ctx_->pool->GetHost(vm.host());
    if (pending_moves_.contains(vm_id)) {
      // A move is already in flight -- but it may be headed the WRONG way (a
      // proactive drain whose spike ended before its destination launched).
      // Keep the VM on the waitlist; once it settles somewhere, the next
      // price event either repatriates it or drops it as already-home.
      EnqueueRepatriation(key, vm_id);
      continue;
    }
    if (vm.state() != NestedVmState::kRunning &&
        vm.state() != NestedVmState::kDegraded) {
      // Mid-migration: keep it on the waitlist for the next price event.
      EnqueueRepatriation(key, vm_id);
      continue;
    }
    if (current != nullptr && current->is_spot()) {
      continue;  // already back on spot
    }
    HostVm* host = ctx_->pool->FindHostWithCapacity(key, vm.spec());
    if (host != nullptr && !host->AddVm(vm.id(), vm.spec())) {
      host = nullptr;  // lost the capacity race; fall back to a fresh host
    }
    ++repatriations_;
    MetricInc(repatriations_metric_);
    ctx_->event_log->Record(ctx_->Now(),
                            ControllerEventKind::kRepatriationStarted, vm_id,
                            vm.host(), key);
    SpanId span = 0;
    if (ctx_->tracer != nullptr) {
      SpanTracer& tracer = *ctx_->tracer;
      span = tracer.Begin(ctx_->Now(), "repatriation", "core",
                          tracer.Track("vm/" + vm_id.ToString()));
      tracer.AttrStr(span, "to_market", key.ToString());
      move_spans_[vm_id] = span;
    }
    const ScopedTraceParent trace_parent(ctx_->tracer, span);
    if (host != nullptr) {
      HostVm& dest = *host;
      if (vm.spec().stateless) {
        ctx_->placement->MoveVmToHost(vm, dest);
        EndMoveSpan(vm.id(), "completed");
      } else {
        ctx_->engine->LiveMigrate(
            vm, [this, &vm, &dest](const MigrationOutcome&) {
              const auto span_it = move_spans_.find(vm.id());
              const ScopedTraceParent parent(
                  ctx_->tracer,
                  span_it != move_spans_.end() ? span_it->second : 0);
              ctx_->placement->MoveVmToHost(vm, dest);
              EndMoveSpan(vm.id(), "completed");
            });
      }
    } else {
      pending_moves_.insert(vm_id);
      ctx_->pool->QueueOrAcquireSpot(key,
                                     Waiter{vm_id, WaitIntent::kPlannedMove});
    }
  }
}

void RepatriationScheduler::ProactivelyDrain(const MarketKey& key) {
  for (InstanceId instance : ctx_->pool->SpotHostsIn(key)) {
    const HostVm* host = ctx_->pool->GetHost(instance);
    if (host == nullptr) {
      continue;
    }
    const std::vector<NestedVmId> resident = host->vms();
    for (NestedVmId vm_id : resident) {
      NestedVm* vm = ctx_->FindAliveVm(vm_id);
      if (vm == nullptr) {
        continue;
      }
      if (vm->state() != NestedVmState::kRunning &&
          vm->state() != NestedVmState::kDegraded) {
        continue;
      }
      if (pending_moves_.contains(vm_id)) {
        continue;  // a drain for this VM is already in flight
      }
      ++proactive_migrations_;
      MetricInc(proactive_migrations_metric_);
      pending_moves_.insert(vm_id);
      ctx_->event_log->Record(ctx_->Now(),
                              ControllerEventKind::kProactiveDrain, vm_id,
                              instance, key);
      SpanId span = 0;
      if (ctx_->tracer != nullptr) {
        SpanTracer& tracer = *ctx_->tracer;
        span = tracer.Begin(ctx_->Now(), "proactive_drain", "core",
                            tracer.Track("vm/" + vm_id.ToString()));
        tracer.AttrStr(span, "from_market", key.ToString());
        move_spans_[vm_id] = span;
      }
      const ScopedTraceParent trace_parent(ctx_->tracer, span);
      ctx_->pool->AcquireHost(ctx_->FallbackOnDemandMarket(),
                              /*is_spot=*/false,
                              Waiter{vm_id, WaitIntent::kPlannedMove});
      if (ctx_->config->enable_repatriation) {
        EnqueueRepatriation(key, vm_id);
      }
    }
  }
}

void RepatriationScheduler::OnPlannedMoveHostReady(NestedVm& vm, HostVm& host,
                                                   const MarketKey& market,
                                                   bool is_spot) {
  // Repatriation or proactive drain: the destination is up, run the live
  // migration now (stateless replicas just boot fresh instead).
  pending_moves_.erase(vm.id());
  if (vm.state() != NestedVmState::kRunning &&
      vm.state() != NestedVmState::kDegraded) {
    EndMoveSpan(vm.id(), "aborted");
    return;
  }
  if (!host.AddVm(vm.id(), vm.spec())) {
    // Another waiter on this host won the capacity race; requeue instead of
    // over-committing the host.
    EndMoveSpan(vm.id(), "requeued");
    if (ctx_->config->enable_repatriation && is_spot) {
      EnqueueRepatriation(market, vm.id());
    }
    return;
  }
  const auto span_it = move_spans_.find(vm.id());
  const SpanId span = span_it != move_spans_.end() ? span_it->second : 0;
  const ScopedTraceParent trace_parent(ctx_->tracer, span);
  if (vm.spec().stateless) {
    ctx_->placement->MoveVmToHost(vm, host);
    EndMoveSpan(vm.id(), "completed");
  } else {
    ctx_->engine->LiveMigrate(vm, [this, &vm, &host](const MigrationOutcome&) {
      const auto it = move_spans_.find(vm.id());
      const ScopedTraceParent parent(
          ctx_->tracer, it != move_spans_.end() ? it->second : 0);
      ctx_->placement->MoveVmToHost(vm, host);
      EndMoveSpan(vm.id(), "completed");
    });
  }
}

void RepatriationScheduler::OnPlannedMoveLaunchFailed(const MarketKey& market,
                                                      bool is_spot,
                                                      NestedVmId vm) {
  pending_moves_.erase(vm);
  EndMoveSpan(vm, "launch-failed");
  if (ctx_->config->enable_repatriation && is_spot) {
    EnqueueRepatriation(market, vm);
  }
}

void RepatriationScheduler::EndMoveSpan(NestedVmId vm, const char* status) {
  const auto it = move_spans_.find(vm);
  if (it == move_spans_.end()) {
    return;
  }
  if (ctx_->tracer != nullptr) {
    ctx_->tracer->AttrStr(it->second, "status", status);
    ctx_->tracer->End(it->second, ctx_->Now());
  }
  move_spans_.erase(it);
}

bool RepatriationScheduler::ValidateInvariants(std::string* error) const {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) {
      *error = message;
    }
    return false;
  };
  // Repatriation waitlists hold each VM at most once, in the pool the
  // mirror map says it waits for.
  std::set<NestedVmId> queued;
  for (const auto& [key, list] : repatriation_waitlist_) {
    for (NestedVmId vm : list) {
      if (!queued.insert(vm).second) {
        return fail(vm.ToString() + " queued for repatriation twice");
      }
      const auto w = waitlisted_.find(vm);
      if (w == waitlisted_.end() || !(w->second == key)) {
        return fail(vm.ToString() + " waitlist mirror drifted");
      }
    }
  }
  if (queued.size() != waitlisted_.size()) {
    return fail("waitlist mirror holds stale entries");
  }
  return true;
}

}  // namespace spotcheck
