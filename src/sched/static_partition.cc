#include "sched/static_partition.h"

#include <algorithm>

#include "common/check.h"

namespace mwp {

StaticPartition::StaticPartition(const ClusterSpec* cluster, JobQueue* queue,
                                 TransactionalAppSpec tx_app, int tx_nodes,
                                 VmCostModel costs)
    : cluster_(cluster),
      queue_(queue),
      tx_app_(std::move(tx_app)),
      tx_nodes_(tx_nodes) {
  MWP_CHECK(cluster_ != nullptr);
  MWP_CHECK(queue_ != nullptr);
  MWP_CHECK_MSG(tx_nodes_ > 0 && tx_nodes_ < cluster_->num_nodes(),
                "a static partition needs nodes on both sides, got "
                    << tx_nodes_ << " of " << cluster_->num_nodes());
  BaselineScheduler::Config cfg;
  cfg.costs = costs;
  for (int n = tx_nodes_; n < cluster_->num_nodes(); ++n) {
    cfg.allowed_nodes.push_back(n);
  }
  batch_ = std::make_unique<FcfsScheduler>(cluster_, queue_, cfg);
}

MHz StaticPartition::tx_allocation() const {
  MHz capacity = 0.0;
  for (int n = 0; n < tx_nodes_; ++n) capacity += cluster_->available_cpu(n);
  return std::min(capacity, tx_app_.spec().saturation_allocation);
}

MHz StaticPartition::BatchAllocation() const {
  MHz total = 0.0;
  for (const Job* job : queue_->Placed()) total += job->allocated_speed();
  return total;
}

}  // namespace mwp
