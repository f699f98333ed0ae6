#include "sched/baseline_scheduler.h"

#include <algorithm>

#include "common/check.h"

namespace mwp {

BaselineScheduler::BaselineScheduler(const ClusterSpec* cluster,
                                     JobQueue* queue, Config config)
    : cluster_(cluster), queue_(queue), config_(std::move(config)) {
  MWP_CHECK(cluster_ != nullptr);
  MWP_CHECK(queue_ != nullptr);
  config_.costs.Validate();
  if (config_.allowed_nodes.empty()) {
    for (int n = 0; n < cluster_->num_nodes(); ++n) nodes_.push_back(n);
  } else {
    nodes_ = config_.allowed_nodes;
    for (NodeId n : nodes_) MWP_CHECK(n >= 0 && n < cluster_->num_nodes());
  }
}

std::uint64_t BaselineScheduler::GenerationOf(AppId id) const {
  for (const auto& [app, gen] : generations_) {
    if (app == id) return gen;
  }
  return 0;
}

void BaselineScheduler::BumpGeneration(AppId id) {
  for (auto& [app, gen] : generations_) {
    if (app == id) {
      ++gen;
      return;
    }
  }
  generations_.emplace_back(id, 1);
}

void BaselineScheduler::AdvanceJobsTo(Seconds to) {
  MWP_CHECK(to >= last_advance_);
  for (Job* job : queue_->Placed()) {
    job->AdvanceTo(last_advance_, to);
  }
  last_advance_ = to;
}

std::optional<NodeId> BaselineScheduler::FirstFit(
    const std::vector<Megabytes>& mem_used, const std::vector<MHz>& cpu_used,
    Megabytes mem, MHz cpu) const {
  for (NodeId n : nodes_) {
    if (!cluster_->node_online(n)) continue;
    if (mem_used[static_cast<std::size_t>(n)] + mem <=
            cluster_->available_memory(n) + kEpsilon &&
        cpu_used[static_cast<std::size_t>(n)] + cpu <=
            cluster_->available_cpu(n) + kEpsilon) {
      return n;
    }
  }
  return std::nullopt;
}

void BaselineScheduler::OnJobSubmitted(Simulation& sim) { Reschedule(sim); }

void BaselineScheduler::OnNodeFault(Simulation& sim) { Reschedule(sim); }

void BaselineScheduler::ScheduleCompletion(Simulation& sim, Job& job) {
  MWP_CHECK(job.placed());
  const Seconds exec_start = std::max(sim.now(), job.overhead_until());
  const Seconds run =
      job.profile().RemainingTimeAtSpeed(job.work_done(), job.allocated_speed());
  if (run == kTimeForever) return;  // paused: no completion to schedule
  const Seconds when = exec_start + run;
  const AppId id = job.id();
  const std::uint64_t gen = GenerationOf(id);
  sim.ScheduleAt(when, [this, id, gen](Simulation& s) {
    Job* j = queue_->Find(id);
    MWP_CHECK(j != nullptr);
    if (j->completed() || !j->placed() || GenerationOf(id) != gen) return;
    Reschedule(s);  // advancing to now completes the job; then re-dispatch
  });
}

void BaselineScheduler::Reschedule(Simulation& sim) {
  const Seconds now = sim.now();
  AdvanceJobsTo(now);

  const auto plan = PlanPlacement(now);

  // Index the plan for the preemption pass.
  auto planned_node = [&](const Job* job) -> std::optional<NodeId> {
    for (const auto& [j, n] : plan) {
      if (j == job) return n;
    }
    return std::nullopt;
  };

  // Preemption: suspend placed jobs that lost their slot or must move.
  if (preemptive()) {
    for (Job* job : queue_->Placed()) {
      const auto target = planned_node(job);
      if (!target.has_value()) {
        job->Suspend(now);
        job->ExtendOverhead(
            now + config_.costs.SuspendCost(job->profile().max_memory()));
        BumpGeneration(job->id());
        ++changes_.suspends;
      }
    }
  }

  // Placement: start/resume/migrate jobs per the plan.
  for (const auto& [job, node] : plan) {
    if (job->completed()) continue;
    if (job->placed()) {
      if (job->node() == node) continue;
      job->Place(node, now,
                 config_.costs.MigrateCost(job->profile().max_memory()));
      BumpGeneration(job->id());
      ++changes_.migrations;
    } else {
      const bool resume = job->status() == JobStatus::kSuspended;
      const Seconds overhead =
          resume ? config_.costs.ResumeCost(job->profile().max_memory())
                 : config_.costs.BootCost();
      job->Place(node, now, overhead);
      BumpGeneration(job->id());
      if (resume) {
        ++changes_.resumes;
      } else {
        ++changes_.starts;
      }
    }
    job->SetAllocation(
        std::min(job->profile()
                     .stage(std::min(job->current_stage(),
                                     job->profile().num_stages() - 1))
                     .max_speed,
                 cluster_->available_cpu(node)));
    ScheduleCompletion(sim, *job);
  }
}

}  // namespace mwp
