// Shared fixtures for core-module tests: small clusters and snapshots in
// the shape of the paper's §4.3 example.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
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

/// Feasible candidate placements in the orders that make a scorer's memos
/// meet repeated inputs, drawn from `rng`: the current placement twice; two
/// one-change neighbours alternated (A, B, A: a placed job removed, a
/// queued job added); a queued job added beside a placed one and a job
/// removed from a node that keeps another (the batch node list stays, one
/// node's edge cap changes); a placed job moved to another node of equal
/// available CPU, back, and there again.
inline std::vector<PlacementMatrix> RepeatingCandidateSequence(
    const PlacementSnapshot& snap, Rng& rng) {
  const PlacementMatrix& current = snap.current_placement();
  const int nodes = snap.num_nodes();
  std::vector<PlacementMatrix> sequence{current, current};
  std::vector<int> placed;
  std::vector<int> queued;
  std::vector<int> jobs_on(static_cast<std::size_t>(nodes), 0);
  for (int j = 0; j < snap.num_jobs(); ++j) {
    const int node = FirstNodeOf(current, snap.EntityOfJob(j));
    if (node == kInvalidNode) {
      queued.push_back(j);
    } else {
      placed.push_back(j);
      ++jobs_on[static_cast<std::size_t>(node)];
    }
  }
  const auto pick = [&rng](const std::vector<int>& jobs) {
    return jobs[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(jobs.size()) - 1))];
  };
  // `entity` added to `p` on the first node, from a random start, that
  // `wanted` accepts and where the result is feasible.
  const auto place = [&](PlacementMatrix p, int entity,
                         auto wanted) -> std::optional<PlacementMatrix> {
    const int start = static_cast<int>(rng.UniformInt(0, nodes - 1));
    for (int k = 0; k < nodes; ++k) {
      const int n = (start + k) % nodes;
      if (!wanted(n)) continue;
      p.at(entity, n) = 1;
      if (snap.IsFeasible(p)) return p;
      p.at(entity, n) = 0;
    }
    return std::nullopt;
  };
  const auto any_node = [](int) { return true; };

  std::optional<PlacementMatrix> a;
  std::optional<PlacementMatrix> b;
  if (!placed.empty()) {
    PlacementMatrix p = current;
    const int entity = snap.EntityOfJob(pick(placed));
    p.at(entity, FirstNodeOf(p, entity)) = 0;
    if (snap.IsFeasible(p)) a = std::move(p);
  }
  if (!queued.empty()) {
    b = place(current, snap.EntityOfJob(pick(queued)), any_node);
  }
  for (const auto* step : {&a, &b, &a}) {
    if (step->has_value()) sequence.push_back(**step);
  }

  const auto hosts_jobs = [&jobs_on](int n) {
    return jobs_on[static_cast<std::size_t>(n)] > 0;
  };
  if (!queued.empty()) {
    auto beside = place(current, snap.EntityOfJob(pick(queued)), hosts_jobs);
    if (beside.has_value()) sequence.push_back(std::move(*beside));
  }
  for (const int j : placed) {
    const int entity = snap.EntityOfJob(j);
    const int node = FirstNodeOf(current, entity);
    if (jobs_on[static_cast<std::size_t>(node)] < 2) continue;
    PlacementMatrix p = current;
    p.at(entity, node) = 0;
    if (snap.IsFeasible(p)) sequence.push_back(std::move(p));
    break;
  }

  if (!placed.empty()) {
    const int entity = snap.EntityOfJob(pick(placed));
    const int from = FirstNodeOf(current, entity);
    const auto cpu_bits = [&snap](int n) {
      return std::bit_cast<std::uint64_t>(snap.NodeAvailableCpu(n));
    };
    PlacementMatrix p = current;
    p.at(entity, from) = 0;
    const std::optional<PlacementMatrix> moved =
        place(std::move(p), entity, [&](int n) {
          return n != from && cpu_bits(n) == cpu_bits(from);
        });
    if (moved.has_value()) {
      sequence.push_back(*moved);
      sequence.push_back(current);
      sequence.push_back(*moved);
    }
  }
  return sequence;
}

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
