#include "batch/job_queue.h"

#include <algorithm>

#include "common/check.h"

namespace mwp {

Job& JobQueue::Submit(std::unique_ptr<Job> job) {
  MWP_CHECK(job != nullptr);
  const auto [it, inserted] = index_.emplace(job->id(), jobs_.size());
  MWP_CHECK_MSG(inserted, "duplicate job id " << job->id());
  jobs_.push_back(std::move(job));
  live_.push_back(jobs_.back().get());
  return *jobs_.back();
}

Job* JobQueue::Find(AppId id) {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : jobs_[it->second].get();
}

const Job* JobQueue::Find(AppId id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : jobs_[it->second].get();
}

std::vector<const Job*> JobQueue::All() const {
  std::vector<const Job*> out;
  out.reserve(jobs_.size());
  for (const auto& j : jobs_) out.push_back(j.get());
  return out;
}

template <typename Keep>
std::vector<Job*> JobQueue::LiveWhere(Keep keep) {
  std::vector<Job*> out;
  ForEachLive([&](Job& j) {
    if (keep(j)) out.push_back(&j);
  });
  return out;
}

std::vector<Job*> JobQueue::Incomplete() {
  return LiveWhere([](const Job&) { return true; });
}

std::vector<Job*> JobQueue::Placed() {
  return LiveWhere([](const Job& j) { return j.placed(); });
}

std::vector<Job*> JobQueue::AwaitingPlacement() {
  return LiveWhere([](const Job& j) {
    return j.status() == JobStatus::kNotStarted ||
           j.status() == JobStatus::kSuspended;
  });
}

std::vector<const Job*> JobQueue::Completed() const {
  std::vector<const Job*> out;
  for (const auto& j : jobs_) {
    if (j->completed()) out.push_back(j.get());
  }
  return out;
}

std::size_t JobQueue::num_completed() const {
  // Every job outside the live list has completed.
  return jobs_.size() -
         static_cast<std::size_t>(std::count_if(
             live_.begin(), live_.end(),
             [](const Job* j) { return !j->completed(); }));
}

}  // namespace mwp
