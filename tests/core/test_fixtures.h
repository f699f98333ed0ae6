// Shared fixtures for core-module tests: small clusters and snapshots in
// the shape of the paper's §4.3 example.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/snapshot.h"
#include "web/transactional_app.h"

namespace mwp::testing_fixtures {

/// One 1,000 MHz / 2,000 MB node — the §4.3 machine.
inline ClusterSpec TinyCluster(int nodes = 1) {
  return ClusterSpec::Uniform(nodes, NodeSpec{1, 1'000.0, 2'000.0});
}

/// A JobView for a single-stage job. The profile must outlive the view.
inline JobView MakeJobView(AppId id, const JobProfile* profile,
                           const JobGoal& goal, Megacycles done = 0.0,
                           JobStatus status = JobStatus::kNotStarted,
                           NodeId node = kInvalidNode) {
  JobView v;
  v.id = id;
  v.profile = profile;
  v.goal = goal;
  v.work_done = done;
  v.status = status;
  v.current_node = node;
  v.memory = profile->max_memory();
  v.max_speed = profile->stage(0).max_speed;
  v.min_speed = profile->stage(0).min_speed;
  return v;
}

/// Owns the profiles its views point at.
struct SnapshotBuilder {
  ClusterSpec cluster;
  Seconds now = 0.0;
  Seconds cycle = 1.0;
  std::vector<std::unique_ptr<JobProfile>> profiles;
  std::vector<JobView> jobs;
  std::vector<std::unique_ptr<TransactionalApp>> tx_owned;
  std::vector<TxView> tx_views;

  explicit SnapshotBuilder(ClusterSpec c) : cluster(std::move(c)) {}

  JobView& AddJob(AppId id, Megacycles work, MHz max_speed, Megabytes memory,
                  Seconds submit, double factor,
                  JobStatus status = JobStatus::kNotStarted,
                  NodeId node = kInvalidNode, Megacycles done = 0.0) {
    profiles.push_back(std::make_unique<JobProfile>(
        JobProfile::SingleStage(work, max_speed, memory)));
    jobs.push_back(MakeJobView(
        id, profiles.back().get(),
        JobGoal::FromFactor(submit, factor,
                            profiles.back()->min_execution_time()),
        done, status, node));
    return jobs.back();
  }

  TxView& AddTx(TransactionalAppSpec spec, double arrival_rate,
                std::vector<NodeId> nodes = {}) {
    tx_owned.push_back(std::make_unique<TransactionalApp>(std::move(spec)));
    TxView v;
    v.id = tx_owned.back()->id();
    v.app = tx_owned.back().get();
    v.arrival_rate = arrival_rate;
    v.memory = tx_owned.back()->spec().memory_per_instance;
    v.max_instances = tx_owned.back()->spec().max_instances;
    v.current_nodes = std::move(nodes);
    tx_views.push_back(v);
    return tx_views.back();
  }

  PlacementSnapshot Build() const {
    return PlacementSnapshot(&cluster, now, cycle, jobs, tx_views);
  }
};

/// Pins one random entity to a random node subset and separates two random
/// entities, drawing from `rng` only. The current placement may violate
/// either, which makes it infeasible.
inline void AddRandomConstraints(Rng& rng, PlacementSnapshot& snap) {
  const int entities = snap.num_entities();
  if (entities == 0) return;
  PlacementConstraints c;
  std::vector<NodeId> allowed;
  for (int n = 0; n < snap.num_nodes(); ++n) {
    if (rng.Uniform01() < 0.6) allowed.push_back(n);
  }
  if (allowed.empty()) allowed.push_back(snap.num_nodes() - 1);
  c.PinTo(snap.EntityAppId(static_cast<int>(rng.UniformInt(0, entities - 1))),
          allowed);
  if (entities >= 2) {
    const int a = static_cast<int>(rng.UniformInt(0, entities - 1));
    const int b =
        (a + 1 + static_cast<int>(rng.UniformInt(0, entities - 2))) % entities;
    c.Separate(snap.EntityAppId(a), snap.EntityAppId(b));
  }
  snap.set_constraints(std::move(c));
}

}  // namespace mwp::testing_fixtures
