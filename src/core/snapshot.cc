#include "core/snapshot.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace mwp {

PlacementSnapshot::PlacementSnapshot(const ClusterSpec* cluster, Seconds now,
                                     Seconds control_cycle,
                                     std::vector<JobView> jobs,
                                     std::vector<TxView> tx_apps)
    : cluster_(cluster),
      now_(now),
      control_cycle_(control_cycle),
      jobs_(std::move(jobs)),
      tx_apps_(std::move(tx_apps)),
      current_(num_entities(), cluster->num_nodes()) {
  MWP_CHECK(cluster_ != nullptr);
  MWP_CHECK(control_cycle_ > 0.0);
  for (int j = 0; j < num_jobs(); ++j) {
    const JobView& view = jobs_[static_cast<std::size_t>(j)];
    MWP_CHECK(view.profile != nullptr);
    if (view.placed()) {
      MWP_CHECK(view.current_node != kInvalidNode);
      current_.at(EntityOfJob(j), view.current_node) = 1;
    }
  }
  for (int w = 0; w < num_tx(); ++w) {
    const TxView& view = tx_apps_[static_cast<std::size_t>(w)];
    // A negative rate would read as quiesced and NaN would fail only later,
    // inside the solve.
    MWP_CHECK_MSG(std::isfinite(view.arrival_rate) && view.arrival_rate >= 0.0,
                  "tx app " << view.id << " arrival rate " << view.arrival_rate
                            << " is not a finite non-negative rate");
    for (NodeId n : view.current_nodes) current_.at(EntityOfTx(w), n) += 1;
  }
  entity_memory_.reserve(static_cast<std::size_t>(num_entities()));
  for (const JobView& v : jobs_) entity_memory_.push_back(v.memory);
  for (const TxView& t : tx_apps_) entity_memory_.push_back(t.memory);
  node_online_.reserve(static_cast<std::size_t>(num_nodes()));
  node_available_cpu_.reserve(static_cast<std::size_t>(num_nodes()));
  node_available_memory_.reserve(static_cast<std::size_t>(num_nodes()));
  for (NodeId n = 0; n < num_nodes(); ++n) {
    node_online_.push_back(cluster_->node_online(n));
    node_available_cpu_.push_back(cluster_->available_cpu(n));
    node_available_memory_.push_back(cluster_->available_memory(n));
  }
}

int PlacementSnapshot::NumOnlineNodes() const {
  int count = 0;
  for (bool online : node_online_) {
    if (online) ++count;
  }
  return count;
}

PlacementSnapshot PlacementSnapshot::Capture(
    const ClusterSpec& cluster, Seconds now, Seconds control_cycle,
    JobQueue& queue, const VmCostModel& costs,
    const std::vector<TxInput>& tx_apps) {
  std::vector<JobView> jobs;
  for (Job* job : queue.Incomplete()) {
    JobView v;
    v.id = job->id();
    v.profile = &job->profile();
    v.goal = job->goal();
    v.work_done = job->work_done();
    v.status = job->status();
    v.current_node = job->node();
    v.overhead_until = job->overhead_until();
    v.memory = job->profile().max_memory();
    const int stage = job->current_stage();
    const JobStage& s = job->profile().stage(
        std::min(stage, job->profile().num_stages() - 1));
    v.max_speed = s.max_speed;
    v.min_speed = s.min_speed;
    switch (job->status()) {
      case JobStatus::kNotStarted:
        v.place_overhead = costs.BootCost();
        break;
      case JobStatus::kSuspended:
        v.place_overhead = costs.ResumeCost(v.memory);
        break;
      default:
        v.place_overhead = 0.0;
        break;
    }
    v.migrate_overhead = costs.MigrateCost(v.memory);
    jobs.push_back(v);
  }
  std::vector<TxView> txs;
  for (const TxInput& input : tx_apps) {
    MWP_CHECK(input.app != nullptr);
    TxView t;
    t.id = input.app->id();
    t.app = input.app;
    t.arrival_rate = input.arrival_rate;
    t.memory = input.app->spec().memory_per_instance;
    t.max_instances = input.app->spec().max_instances;
    t.current_nodes = input.current_nodes;
    txs.push_back(t);
  }
  return PlacementSnapshot(&cluster, now, control_cycle, std::move(jobs),
                           std::move(txs));
}

void PlacementSnapshot::OverrideNodeAvailability(std::vector<bool> online,
                                                 std::vector<MHz> cpu,
                                                 std::vector<Megabytes> memory) {
  const auto n = static_cast<std::size_t>(num_nodes());
  MWP_CHECK(online.size() == n && cpu.size() == n && memory.size() == n);
  node_online_ = std::move(online);
  node_available_cpu_ = std::move(cpu);
  node_available_memory_ = std::move(memory);
}

void PlacementSnapshot::set_fairness_credits(std::vector<double> credits) {
  MWP_CHECK_MSG(
      credits.empty() ||
          credits.size() == static_cast<std::size_t>(num_entities()),
      "fairness credit vector must be empty or one entry per entity");
  fairness_credits_ = std::move(credits);
}

int PlacementSnapshot::JobOfEntity(int entity) const {
  MWP_CHECK(IsJobEntity(entity));
  return entity;
}

int PlacementSnapshot::TxOfEntity(int entity) const {
  MWP_CHECK(!IsJobEntity(entity) && entity < num_entities());
  return entity - num_jobs();
}

Megabytes PlacementSnapshot::EntityMemory(int entity) const {
  return entity_memory_.at(static_cast<std::size_t>(entity));
}

Megabytes PlacementSnapshot::FreeMemory(const PlacementMatrix& p,
                                        int node) const {
  MWP_CHECK(node >= 0 && node < num_nodes() && p.num_nodes() == num_nodes());
  Megabytes used = 0.0;
  if (p.num_apps() > 0) {
    const int* cells = p.RowData(0);  // column walk over the dense storage
    const auto stride = static_cast<std::size_t>(p.num_nodes());
    for (int e = 0; e < p.num_apps(); ++e) {
      const int count =
          cells[static_cast<std::size_t>(e) * stride + static_cast<std::size_t>(node)];
      // Skipping zero-count terms adds exactly nothing (x + 0.0 keeps x's
      // bits for the non-negative sums formed here).
      if (count != 0) {
        used += count * entity_memory_[static_cast<std::size_t>(e)];
      }
    }
  }
  return node_available_memory_[static_cast<std::size_t>(node)] - used;
}

Seconds JobExecStart(const PlacementSnapshot& snap, const JobView& jv,
                     NodeId target_node) {
  const Seconds ref = std::max(snap.now(), jv.overhead_until);
  if (!jv.placed()) return snap.now() + jv.place_overhead;
  if (jv.current_node != target_node) return ref + jv.migrate_overhead;
  return ref;
}

AppId PlacementSnapshot::EntityAppId(int entity) const {
  if (IsJobEntity(entity)) return job(JobOfEntity(entity)).id;
  return tx(TxOfEntity(entity)).id;
}

bool PlacementSnapshot::RowFeasible(int e, const int* row,
                                    Megabytes* used) const {
  const bool is_job = IsJobEntity(e);
  const bool constrained = !constraints_.empty();
  const AppId app = constrained ? EntityAppId(e) : kInvalidApp;
  int instances = 0;
  for (int n = 0; n < num_nodes(); ++n) {
    const int count = row[n];
    if (count == 0) continue;
    // No negative counts; nothing on a crashed node (FreeMemory would
    // also fail, since available memory is 0, but only when something
    // there uses memory); at most one instance of a tx app per node.
    if (count < 0 || !node_online_[static_cast<std::size_t>(n)]) return false;
    if (!is_job && count > 1) return false;
    if (constrained && !constraints_.AllowsNode(app, n)) return false;
    if (used != nullptr) {
      used[n] += count * entity_memory_[static_cast<std::size_t>(e)];
    }
    instances += count;
  }
  if (is_job) return instances <= 1;
  const int cap = tx(TxOfEntity(e)).max_instances;
  return cap <= 0 || instances <= cap;
}

bool PlacementSnapshot::IsFeasible(const PlacementMatrix& p) const {
  const int entities = num_entities();
  const int nodes = num_nodes();
  MWP_CHECK(p.num_apps() == entities);
  MWP_CHECK(p.num_nodes() == nodes);
  // One row-major pass over the matrix. Each node's memory sums in
  // ascending entity order, the order FreeMemory's column walk adds in, so
  // the memory test below compares the same doubles FreeMemory returns.
  std::vector<Megabytes> used(static_cast<std::size_t>(nodes), 0.0);
  for (int e = 0; e < entities; ++e) {
    const int* row = p.RowData(e);
    // An unplaced entity's row is empty: this reduction vectorizes, where
    // the walk in RowFeasible branches on every cell.
    int any = 0;
    for (int n = 0; n < nodes; ++n) any |= row[n];
    if (any == 0) continue;
    if (!RowFeasible(e, row, used.data())) return false;
  }
  for (int n = 0; n < nodes; ++n) {
    if (node_online_[static_cast<std::size_t>(n)] &&
        node_available_memory_[static_cast<std::size_t>(n)] -
                used[static_cast<std::size_t>(n)] <
            -kEpsilon) {
      return false;
    }
  }
  for (const auto& [a, b] : constraints_.separations()) {
    int ea = -1, eb = -1;
    for (int e = 0; e < entities; ++e) {
      if (EntityAppId(e) == a) ea = e;
      if (EntityAppId(e) == b) eb = e;
    }
    if (ea < 0 || eb < 0) continue;  // one side not in this snapshot
    for (int n = 0; n < nodes; ++n) {
      if (p.at(ea, n) > 0 && p.at(eb, n) > 0) return false;
    }
  }
  return true;
}

bool PlacementSnapshot::IsFeasibleChange(const PlacementMatrix& p,
                                         bool base_feasible,
                                         std::span<const int> rows,
                                         std::span<const int> nodes) const {
  if (!base_feasible || !constraints_.empty()) return IsFeasible(p);
  MWP_CHECK(p.num_apps() == num_entities());
  MWP_CHECK(p.num_nodes() == num_nodes());
  for (const int e : rows) {
    if (!RowFeasible(e, p.RowData(e), nullptr)) return false;
  }
  // Every count is now non-negative, so each column walk adds the terms
  // IsFeasible adds for the node, in the same order.
  for (const int n : nodes) {
    if (NodeOnline(n) && FreeMemory(p, n) < -kEpsilon) return false;
  }
  return true;
}

}  // namespace mwp
