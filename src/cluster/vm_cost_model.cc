#include "cluster/vm_cost_model.h"

#include <cmath>

#include "common/check.h"

namespace mwp {

void VmCostModel::Validate() const {
  MWP_CHECK(std::isfinite(suspend_s_per_mb) && suspend_s_per_mb >= 0.0);
  MWP_CHECK(std::isfinite(resume_s_per_mb) && resume_s_per_mb >= 0.0);
  MWP_CHECK(std::isfinite(migrate_s_per_mb) && migrate_s_per_mb >= 0.0);
  MWP_CHECK(std::isfinite(boot_s) && boot_s >= 0.0);
}

Seconds VmCostModel::SuspendCost(Megabytes footprint) const {
  MWP_CHECK(footprint >= 0.0);
  return suspend_s_per_mb * footprint;
}

Seconds VmCostModel::ResumeCost(Megabytes footprint) const {
  MWP_CHECK(footprint >= 0.0);
  return resume_s_per_mb * footprint;
}

Seconds VmCostModel::MigrateCost(Megabytes footprint) const {
  MWP_CHECK(footprint >= 0.0);
  return migrate_s_per_mb * footprint;
}

VmCostModel VmCostModel::Free() {
  VmCostModel m;
  m.suspend_s_per_mb = 0.0;
  m.resume_s_per_mb = 0.0;
  m.migrate_s_per_mb = 0.0;
  m.boot_s = 0.0;
  return m;
}

}  // namespace mwp
