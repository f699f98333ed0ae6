// Costs of virtualization control mechanisms.
//
// The paper measured, on a popular Intel virtualization product, linear
// relationships between VM memory footprint and operation latency (§5):
//   suspend: 0.0353 s/MB,  resume: 0.0333 s/MB,  migrate: 0.0132 s/MB,
//   boot:    3.6 s flat.
// During an operation the affected workload makes no progress; the simulator
// charges this time before the instance resumes execution.
#pragma once

#include "common/units.h"

namespace mwp {

struct VmCostModel {
  double suspend_s_per_mb = 0.0353;
  double resume_s_per_mb = 0.0333;
  double migrate_s_per_mb = 0.0132;
  Seconds boot_s = 3.6;

  Seconds SuspendCost(Megabytes footprint) const;
  Seconds ResumeCost(Megabytes footprint) const;
  Seconds MigrateCost(Megabytes footprint) const;
  Seconds BootCost() const { return boot_s; }

  /// Throws std::logic_error (MWP_CHECK) unless every field is finite and
  /// non-negative.
  void Validate() const;

  /// A model in which every operation is free — used by Experiment Two,
  /// which counts placement changes but does not charge their cost
  /// ("in this experiment, we did not consider the cost of the various types
  /// of placement changes").
  static VmCostModel Free();

  /// The paper's measured constants (the default-constructed model).
  static VmCostModel PaperMeasured() { return VmCostModel{}; }
};

}  // namespace mwp
