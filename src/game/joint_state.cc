#include "game/joint_state.h"

#include "util/check.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace fta {

JointState::JointState(const Instance& instance, const VdpsCatalog& catalog)
    : instance_(&instance),
      catalog_(&catalog),
      strategy_(instance.num_workers(), kNullStrategy),
      payoff_(instance.num_workers(), 0.0),
      owner_(instance.num_delivery_points(), -1) {
  FTA_CHECK(catalog.num_workers() == instance.num_workers());
}

bool JointState::IsAvailable(size_t w, int32_t idx) const {
  if (idx == kNullStrategy) return true;
  const WorkerStrategy& st =
      catalog_->strategies(w)[static_cast<size_t>(idx)];
  for (uint32_t dp : catalog_->entry(st.entry_id).dps) {
    const int32_t owner = owner_[dp];
    if (owner != -1 && owner != static_cast<int32_t>(w)) return false;
  }
  return true;
}

void JointState::Apply(size_t w, int32_t idx) {
  FTA_DCHECK(IsAvailable(w, idx));
  const int32_t old = strategy_[w];
  if (old == idx) return;
  if (old != kNullStrategy) {
    const WorkerStrategy& st =
        catalog_->strategies(w)[static_cast<size_t>(old)];
    for (uint32_t dp : catalog_->entry(st.entry_id).dps) owner_[dp] = -1;
  }
  strategy_[w] = idx;
  if (idx == kNullStrategy) {
    payoff_[w] = 0.0;
    return;
  }
  const WorkerStrategy& st = catalog_->strategies(w)[static_cast<size_t>(idx)];
  for (uint32_t dp : catalog_->entry(st.entry_id).dps) {
    owner_[dp] = static_cast<int32_t>(w);
  }
  payoff_[w] = st.payoff;
}

Assignment JointState::ToAssignment() const {
  Assignment a(instance_->num_workers());
  for (size_t w = 0; w < strategy_.size(); ++w) {
    if (strategy_[w] == kNullStrategy) continue;
    a.SetRoute(w, catalog_->route(catalog_->strategies(
                      w)[static_cast<size_t>(strategy_[w])]));
  }
  FTA_DCHECK_OK(ValidateInvariants());
  FTA_DCHECK_OK(a.Validate(*instance_));
  return a;
}

Status JointState::ValidateInvariants() const {
  if (strategy_.size() != instance_->num_workers() ||
      payoff_.size() != instance_->num_workers() ||
      owner_.size() != instance_->num_delivery_points()) {
    return Status::Internal("joint state sized off its instance");
  }
  std::vector<int32_t> expected_owner(owner_.size(), -1);
  for (size_t w = 0; w < strategy_.size(); ++w) {
    const int32_t idx = strategy_[w];
    if (idx == kNullStrategy) {
      if (payoff_[w] != 0.0) {
        return Status::Internal(StrFormat(
            "null-strategy worker %zu has nonzero cached payoff %g", w,
            payoff_[w]));
      }
      continue;
    }
    const auto& strategies = catalog_->strategies(w);
    if (idx < 0 || static_cast<size_t>(idx) >= strategies.size()) {
      return Status::Internal(
          StrFormat("worker %zu strategy index %d out of range", w, idx));
    }
    const WorkerStrategy& st = strategies[static_cast<size_t>(idx)];
    // Payoffs are copied verbatim from the catalog on Apply, so the cached
    // value must match bit-for-bit.
    if (payoff_[w] != st.payoff) {
      return Status::Internal(StrFormat(
          "worker %zu cached payoff %.17g != strategy payoff %.17g", w,
          payoff_[w], st.payoff));
    }
    for (uint32_t dp : catalog_->entry(st.entry_id).dps) {
      if (expected_owner[dp] != -1) {
        return Status::Internal(StrFormat(
            "delivery point %u claimed by workers %d and %zu", dp,
            expected_owner[dp], w));
      }
      expected_owner[dp] = static_cast<int32_t>(w);
    }
  }
  for (size_t dp = 0; dp < owner_.size(); ++dp) {
    if (owner_[dp] != expected_owner[dp]) {
      return Status::Internal(StrFormat(
          "owner index stale at delivery point %zu: recorded %d, actual %d",
          dp, owner_[dp], expected_owner[dp]));
    }
  }
  return Status::Ok();
}

}  // namespace fta
