#include "core/load_distributor.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "core/job_rpf.h"
#include "web/queuing_model.h"

namespace mwp {
namespace {

constexpr double kFlowEps = 1e-9;
/// Total source-edge residual RouteDemands tolerates while still calling a
/// demand set routable (same budget the aggregate comparison used).
constexpr double kFeasibilityTol = 1e-6;

/// Current-stage max speed of a job view.
MHz StageMaxSpeed(const JobView& jv) {
  const int stage = std::min(jv.profile->StageAt(jv.work_done),
                             jv.profile->num_stages() - 1);
  return jv.profile->stage(stage).max_speed;
}

std::uint64_t LevelKey(Utility level) {
  return std::bit_cast<std::uint64_t>(level);
}

/// Element `i` of a vector indexed by vertex or arc id.
template <typename Vector>
auto& At(Vector& v, int i) {
  return v[static_cast<std::size_t>(i)];
}

}  // namespace

struct LoadDistributor::FillEntity {
  enum class Kind { kTx, kBatch };

  Kind kind = Kind::kTx;
  /// Snapshot entity index for kTx; -1 for the batch aggregate.
  int entity = -1;
  std::unique_ptr<Rpf> rpf;  // null for trivially satisfied entities
  std::vector<int> nodes;
  std::vector<MHz> edge_caps;  // per nodes[i]
  bool active = false;
  MHz fixed_demand = 0.0;
  Utility fixed_utility = kUtilityFloor;
  /// rpf->max_utility(), computed once per build (the RPFs are
  /// deterministic, so this is the exact value every call would return).
  Utility max_u = kUtilityFloor;
  /// Demand curve memo (level bits → allocation); wired only for the batch
  /// aggregate, whose curve is placement-independent.
  std::unordered_map<std::uint64_t, MHz>* demand_memo = nullptr;

  /// Demand at a common level, clamped at the entity's own maximum.
  MHz DemandAt(Utility level) const {
    MWP_DCHECK(rpf != nullptr);
    const Utility target = std::min(level, max_u);
    if (demand_memo != nullptr) {
      const std::uint64_t key = LevelKey(target);
      auto it = demand_memo->find(key);
      if (it != demand_memo->end()) return it->second;
      const MHz alloc = rpf->AllocationFor(target);
      demand_memo->emplace(key, alloc);
      return alloc;
    }
    return rpf->AllocationFor(target);
  }
};

std::uint64_t NewScratchOwnerId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void LoadDistributor::Options::Validate() const {
  MWP_CHECK(level_tolerance > 0.0);
  MWP_CHECK(probe_delta > 0.0);
  MWP_CHECK(bisection_iters > 0);
}

LoadDistributor::LoadDistributor(const PlacementSnapshot* snapshot)
    : LoadDistributor(snapshot, Options{}) {}

LoadDistributor::LoadDistributor(const PlacementSnapshot* snapshot,
                                 Options options)
    : snapshot_(snapshot), options_(std::move(options)) {
  MWP_CHECK(snapshot_ != nullptr);
  options_.Validate();
  if (snapshot_->num_jobs() > 0) {
    // The aggregate demand curve over every incomplete job, evaluated at the
    // snapshot instant. Start delays reflect the jobs' *current* status; the
    // small per-candidate differences (boot vs resume latency) are scored by
    // the evaluator's look-ahead, not here.
    std::vector<HypotheticalJobState> states;
    states.reserve(static_cast<std::size_t>(snapshot_->num_jobs()));
    for (const JobView& jv : snapshot_->jobs()) {
      HypotheticalJobState s;
      s.profile = jv.profile;
      s.goal = jv.goal;
      s.work_done = jv.work_done;
      s.start_delay = jv.placed()
                          ? std::max(0.0, jv.overhead_until - snapshot_->now())
                          : jv.place_overhead;
      states.push_back(s);
    }
    hypothetical_ =
        std::make_unique<HypotheticalRpf>(std::move(states), snapshot_->now());
  }
  stage_caps_.reserve(static_cast<std::size_t>(snapshot_->num_jobs()));
  for (const JobView& jv : snapshot_->jobs()) {
    stage_caps_.push_back(StageMaxSpeed(jv));
  }
}

LoadMatrix DistributionResult::Loads() const {
  const auto jobs = static_cast<int>(job_nodes.size());
  LoadMatrix loads(static_cast<int>(totals.size()), tx_loads.num_nodes());
  // What the decomposition writes: the job's total on its node. An unrouted
  // job's total is +0.0, the fill.
  for (int j = 0; j < jobs; ++j) {
    const int node = job_nodes[static_cast<std::size_t>(j)];
    if (node != kInvalidNode) {
      loads.at(j, node) = totals[static_cast<std::size_t>(j)];
    }
  }
  for (int w = 0; w < tx_loads.num_apps(); ++w) {
    for (int n = 0; n < tx_loads.num_nodes(); ++n) {
      loads.at(jobs + w, n) = tx_loads.at(w, n);
    }
  }
  return loads;
}

std::vector<LoadDistributor::FillEntity> LoadDistributor::BuildEntities(
    const PlacementMatrix& p, const std::vector<int>& job_nodes,
    DistributorScratch& scratch) const {
  const PlacementSnapshot& snap = *snapshot_;
  std::vector<FillEntity> entities;
  entities.reserve(1 + static_cast<std::size_t>(snap.num_tx()));

  // One entity for the whole batch workload, routed through the placed job
  // instances. Per-node caps accumulate jobs in index order (the addition
  // order determines the exact double). Distribute's feasibility
  // precondition leaves a job at most one instance: its node.
  FillEntity batch;
  batch.kind = FillEntity::Kind::kBatch;
  std::vector<MHz>& node_cap = scratch.node_caps;
  node_cap.assign(static_cast<std::size_t>(snap.num_nodes()), 0.0);
  for (int j = 0; j < snap.num_jobs(); ++j) {
    const int n = job_nodes[static_cast<std::size_t>(j)];
    if (n == kInvalidNode) continue;
    node_cap[static_cast<std::size_t>(n)] +=
        stage_caps_[static_cast<std::size_t>(j)];
  }
  batch.nodes.reserve(node_cap.size());
  batch.edge_caps.reserve(node_cap.size());
  for (int n = 0; n < snap.num_nodes(); ++n) {
    if (node_cap[static_cast<std::size_t>(n)] > 0.0) {
      batch.nodes.push_back(n);
      batch.edge_caps.push_back(node_cap[static_cast<std::size_t>(n)]);
    }
  }
  if (!batch.nodes.empty()) {
    batch.active = true;
    entities.push_back(std::move(batch));
  }

  for (int w = 0; w < snap.num_tx(); ++w) {
    const int entity = snap.EntityOfTx(w);
    std::vector<int> nodes = p.NodesOf(entity);
    if (nodes.empty()) continue;
    FillEntity e;
    e.kind = FillEntity::Kind::kTx;
    e.entity = entity;
    e.nodes = std::move(nodes);
    e.edge_caps.reserve(e.nodes.size());
    for (int n : e.nodes) {
      // A transactional instance may use its node's whole available CPU
      // (zero on a node captured offline, scaled when degraded).
      e.edge_caps.push_back(snap.NodeAvailableCpu(n));
    }
    if (snap.tx(w).arrival_rate <= 1e-12) {
      // No load: trivially satisfied with zero CPU.
      e.fixed_demand = 0.0;
      e.fixed_utility = 1.0;
      e.active = false;
    } else {
      e.active = true;
    }
    entities.push_back(std::move(e));
  }
  return entities;
}

void LoadDistributor::ArmEntities(std::vector<FillEntity>& entities,
                                  DistributorScratch& scratch) const {
  for (FillEntity& e : entities) {
    if (!e.active) continue;
    if (e.kind == FillEntity::Kind::kBatch) {
      MWP_DCHECK(hypothetical_ != nullptr);
      e.rpf = std::make_unique<BatchAggregateRpf>(hypothetical_.get());
      e.demand_memo = &scratch.batch_demand_memo;
    } else {
      const TxView& tv = snapshot_->tx(snapshot_->TxOfEntity(e.entity));
      e.rpf = std::make_unique<QueuingModel>(tv.app->ModelAt(tv.arrival_rate));
    }
    e.max_u = e.rpf->max_utility();
  }
}

bool LoadDistributor::RepeatsLastFill(
    const std::vector<FillEntity>& entities,
    const DistributorScratch::FillMemo& memo) {
  if (!memo.valid || memo.entities.size() != entities.size()) return false;
  std::size_t k = 0;
  for (std::size_t i = 0; i < entities.size(); ++i) {
    const FillEntity& e = entities[i];
    const DistributorScratch::FillMemo::Entity& m = memo.entities[i];
    if (m.batch != (e.kind == FillEntity::Kind::kBatch) ||
        m.entity != e.entity || m.active != e.active ||
        m.demand_bits != std::bit_cast<std::uint64_t>(e.fixed_demand) ||
        m.utility_bits != std::bit_cast<std::uint64_t>(e.fixed_utility) ||
        static_cast<std::size_t>(m.nodes_end) - k != e.nodes.size()) {
      return false;
    }
    for (std::size_t n = 0; n < e.nodes.size(); ++n, ++k) {
      if (memo.nodes[k] != e.nodes[n] ||
          memo.cap_bits[k] != std::bit_cast<std::uint64_t>(e.edge_caps[n])) {
        return false;
      }
    }
  }
  return true;
}

void LoadDistributor::PrepareFlowNetwork(
    const std::vector<FillEntity>& entities, DistributorScratch& scratch) const {
  const PlacementSnapshot& snap = *snapshot_;
  const int num_nodes = snap.num_nodes();
  const int e_count = static_cast<int>(entities.size());
  const int vertices = 2 + e_count + num_nodes;
  const int sink = vertices - 1;
  const auto node_vertex = [e_count](int n) { return 1 + e_count + n; };
  scratch.vertices = vertices;
  scratch.num_fill_entities = e_count;

  // CSR offsets from the vertex degrees (an arc and its reverse count once
  // at each end).
  std::vector<int>& begin = scratch.arc_begin;
  begin.assign(static_cast<std::size_t>(vertices) + 1, 0);
  const auto count_arc = [&](int u, int v) {
    ++At(begin, u + 1);
    ++At(begin, v + 1);
  };
  for (int i = 0; i < e_count; ++i) {
    const FillEntity& e = entities[static_cast<std::size_t>(i)];
    count_arc(0, 1 + i);
    for (std::size_t k = 0; k < e.nodes.size(); ++k) {
      if (e.edge_caps[k] > 0.0) count_arc(1 + i, node_vertex(e.nodes[k]));
    }
  }
  // A node is shared when arcs from two fill entities reach it: its degree
  // so far counts exactly those arcs.
  scratch.shared_node = false;
  for (int n = 0; n < num_nodes; ++n) {
    if (At(begin, node_vertex(n) + 1) > 1) scratch.shared_node = true;
  }
  if (!scratch.shared_node) {
    // No network: each entity's usable arcs in ascending node order, with
    // the bottleneck phase 1 meets on them before the demand's own.
    scratch.direct_begin.assign(1, 0);
    scratch.direct_node.clear();
    scratch.direct_limit.clear();
    scratch.direct_cap.clear();
    for (const FillEntity& e : entities) {
      for (std::size_t k = 0; k < e.nodes.size(); ++k) {
        const MHz cpu = snap.NodeAvailableCpu(e.nodes[k]);
        const MHz cap = e.edge_caps[k];
        if (cap <= kFlowEps || cpu <= kFlowEps) continue;
        scratch.direct_node.push_back(e.nodes[k]);
        scratch.direct_limit.push_back(std::min(cpu, cap));
        scratch.direct_cap.push_back(cap);
      }
      scratch.direct_begin.push_back(
          static_cast<int>(scratch.direct_node.size()));
    }
    return;
  }
  for (int n = 0; n < num_nodes; ++n) {
    if (snap.NodeAvailableCpu(n) > 0.0) count_arc(node_vertex(n), sink);
  }
  for (int v = 0; v < vertices; ++v) At(begin, v + 1) += At(begin, v);
  const auto arcs = static_cast<std::size_t>(begin.back());
  scratch.arc_head.resize(arcs);
  scratch.arc_reverse.resize(arcs);
  scratch.arc_capacity.resize(arcs);
  scratch.residual.resize(arcs);

  // Fill each vertex's block in ascending head order: the BFS visits
  // neighbours in that order, and the order decides which augmenting path
  // it picks. Source arcs come first (so every entity block opens with its
  // arc back to the source), then entity→node arcs by entity (so each node
  // block lists its entities in order), then node→sink arcs (the sink is
  // the highest vertex). Entity node lists are ascending.
  std::vector<int> cursor(begin.begin(), begin.end() - 1);
  const auto add_arc = [&](int u, int v, double capacity) {
    const int a = At(cursor, u)++;
    const int r = At(cursor, v)++;
    At(scratch.arc_head, a) = v;
    At(scratch.arc_reverse, a) = r;
    At(scratch.arc_capacity, a) = capacity;
    At(scratch.arc_head, r) = u;
    At(scratch.arc_reverse, r) = a;
    At(scratch.arc_capacity, r) = 0.0;
    return a;
  };
  for (int i = 0; i < e_count; ++i) add_arc(0, 1 + i, 0.0);
  for (int i = 0; i < e_count; ++i) {
    const FillEntity& e = entities[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < e.nodes.size(); ++k) {
      MWP_DCHECK(k == 0 || e.nodes[k - 1] < e.nodes[k]);
      if (e.edge_caps[k] > 0.0) {
        add_arc(1 + i, node_vertex(e.nodes[k]), e.edge_caps[k]);
      }
    }
  }
  scratch.sink_arc.assign(static_cast<std::size_t>(num_nodes), -1);
  for (int n = 0; n < num_nodes; ++n) {
    const MHz cpu = snap.NodeAvailableCpu(n);
    if (cpu > 0.0) At(scratch.sink_arc, n) = add_arc(node_vertex(n), sink, cpu);
  }

  scratch.parent_arc.resize(static_cast<std::size_t>(vertices));
  scratch.bfs_queue.reserve(static_cast<std::size_t>(vertices));
}

bool LoadDistributor::RouteDemands(const std::vector<MHz>& demands,
                                   DistributorScratch& scratch,
                                   std::vector<std::vector<MHz>>* routing) const {
  const int num_nodes = snapshot_->num_nodes();
  const int e_count = scratch.num_fill_entities;
  MWP_DCHECK(static_cast<int>(demands.size()) == e_count &&
             scratch.vertices == 2 + e_count + num_nodes);
  ++scratch.stats_.flow_probes;

  MHz demand_total = 0.0;
  for (int i = 0; i < e_count; ++i) demand_total += demands[static_cast<std::size_t>(i)];
  if (routing != nullptr) {
    routing->assign(static_cast<std::size_t>(e_count),
                    std::vector<MHz>(static_cast<std::size_t>(num_nodes), 0.0));
  }
  if (demand_total <= 0.0) return true;

  if (!scratch.shared_node) {
    // Phase 1 where every node→sink arc serves one entity: each arc starts
    // at full capacity, and phase 2 would find no path.
    double shortfall = 0.0;
    for (int i = 0; i < e_count; ++i) {
      double unrouted = At(demands, i);
      for (int k = At(scratch.direct_begin, i);
           k < At(scratch.direct_begin, i + 1) && unrouted > kFlowEps; ++k) {
        const double bottleneck =
            std::min(At(scratch.direct_limit, k), unrouted);
        unrouted -= bottleneck;
        if (routing != nullptr) {
          // Capacity minus residual, as the network's extraction reads it.
          const double cap = At(scratch.direct_cap, k);
          const double f = cap - (cap - bottleneck);
          if (f > kFlowEps) At(At(*routing, i), At(scratch.direct_node, k)) = f;
        }
      }
      shortfall += unrouted;
    }
    return shortfall <= kFeasibilityTol;
  }

  const std::vector<int>& begin = scratch.arc_begin;
  const std::vector<int>& head = scratch.arc_head;
  const std::vector<int>& reverse = scratch.arc_reverse;
  std::vector<double>& residual = scratch.residual;
  std::copy(scratch.arc_capacity.begin(), scratch.arc_capacity.end(),
            residual.begin());
  for (int i = 0; i < e_count; ++i) At(residual, i) = At(demands, i);
  const auto augment = [&](int a, double amount) {
    At(residual, a) -= amount;
    At(residual, At(reverse, a)) += amount;
  };

  // Phase 1: direct paths source→entity→node→sink, by entity, then node —
  // the paths, order, bottlenecks and updates the BFS below would produce
  // (see the header). Source arc i leads to entity i; an entity's node arcs
  // follow its arc back to the source.
  for (int i = 0; i < e_count; ++i) {
    for (int a = At(begin, 1 + i) + 1;
         a < At(begin, 2 + i) && At(residual, i) > kFlowEps; ++a) {
      const int to_sink = At(scratch.sink_arc, At(head, a) - 1 - e_count);
      if (At(residual, a) <= kFlowEps || to_sink < 0 ||
          At(residual, to_sink) <= kFlowEps) {
        continue;
      }
      const double bottleneck = std::min(
          std::min(At(residual, to_sink), At(residual, a)), At(residual, i));
      augment(to_sink, bottleneck);
      augment(a, bottleneck);
      augment(i, bottleneck);
    }
  }

  // Phase 2: Edmonds–Karp's BFS for the remaining paths, which all reroute
  // earlier flow through a reverse arc.
  const int source = 0;
  const int sink = scratch.vertices - 1;
  std::vector<int>& parent = scratch.parent_arc;
  std::vector<int>& queue = scratch.bfs_queue;
  const auto tail = [&](int a) { return At(head, At(reverse, a)); };
  for (;;) {
    std::fill(parent.begin(), parent.end(), -1);
    At(parent, source) = 0;  // marks the root visited; never followed
    queue.clear();
    queue.push_back(source);
    for (std::size_t q = 0; q < queue.size() && At(parent, sink) < 0; ++q) {
      const int u = queue[q];
      for (int a = At(begin, u); a < At(begin, u + 1); ++a) {
        const int v = At(head, a);
        if (At(parent, v) < 0 && At(residual, a) > kFlowEps) {
          At(parent, v) = a;
          queue.push_back(v);
        }
      }
    }
    if (At(parent, sink) < 0) break;
    ++scratch.stats_.rerouting_paths;
    double bottleneck = std::numeric_limits<double>::infinity();
    for (int v = sink; v != source; v = tail(At(parent, v))) {
      bottleneck = std::min(bottleneck, At(residual, At(parent, v)));
    }
    for (int v = sink; v != source; v = tail(At(parent, v))) {
      augment(At(parent, v), bottleneck);
    }
  }

  // Extract flows before the feasibility verdict so an infeasible call still
  // reports its max-flow attempt — the water-fill's best-effort fallback
  // grants entities exactly these shares.
  if (routing != nullptr) {
    for (int i = 0; i < e_count; ++i) {
      for (int a = At(begin, 1 + i) + 1; a < At(begin, 2 + i); ++a) {
        // Flow pushed over the arc: its capacity minus the residual.
        const double f = At(scratch.arc_capacity, a) - At(residual, a);
        if (f > kFlowEps) {
          At(At(*routing, i), At(head, a) - 1 - e_count) = f;
        }
      }
    }
  }

  // Feasibility = every source arc saturated, i.e. the summed source-arc
  // residuals stay within tolerance. Summing the residuals — not comparing
  // `pushed` against `demand_total` — keeps the measurement at each
  // entity's own magnitude: the aggregate sums mix magnitudes (a 1287 MHz
  // total carries ~1e-12 of rounding noise), enough to flip a knife-edge
  // verdict between two water-filling rounds whose demand sets differ only
  // in already-satisfied entities. The final fixed-demand routing relies on
  // the verdict being monotone in the demands, so it must not depend on the
  // scale of the other entities in the set.
  double shortfall = 0.0;
  for (int i = 0; i < e_count; ++i) shortfall += At(residual, i);
  return shortfall <= kFeasibilityTol;
}

void LoadDistributor::DecomposeNodeShare(const std::vector<int>& local_jobs,
                                         int node, MHz share,
                                         DistributorScratch& scratch,
                                         DistributionResult& result) const {
  const PlacementSnapshot& snap = *snapshot_;
  ++scratch.stats_.decompositions;
  DistributorScratch::NodeDecomposition& memo = At(scratch.node_memo, node);
  const auto share_bits = std::bit_cast<std::uint64_t>(share);
  if (memo.share_bits == share_bits && memo.jobs == local_jobs) {
    ++scratch.stats_.decomposition_reuses;
  } else {
    memo.share_bits = share_bits;
    memo.jobs = local_jobs;
    DecomposeInto(local_jobs, node, share, memo.grants, memo.utilities);
  }
  for (std::size_t k = 0; k < local_jobs.size(); ++k) {
    const int entity = snap.EntityOfJob(local_jobs[k]);
    result.totals[static_cast<std::size_t>(entity)] = memo.grants[k];
    result.utilities[static_cast<std::size_t>(entity)] = memo.utilities[k];
  }
}

void LoadDistributor::DecomposeInto(const std::vector<int>& local_jobs,
                                    int node, MHz share,
                                    std::vector<MHz>& grant,
                                    std::vector<Utility>& utilities) const {
  const PlacementSnapshot& snap = *snapshot_;
  struct LocalJob {
    MHz cap;
    MHz min_alloc;
    JobCompletionRpf rpf;
    Utility max_u;
    /// min(cap, AllocationFor(max_u)) — the value demand_at takes for any
    /// level at or above the job's max achievable utility (the common case
    /// during the upper bisection probes).
    MHz demand_at_max;
  };
  std::vector<LocalJob> local;
  local.reserve(local_jobs.size());
  for (int j : local_jobs) {
    const JobView& jv = snap.job(j);
    JobCompletionRpf rpf(jv.profile, jv.goal, jv.work_done,
                         JobExecStart(snap, jv, node));
    const Utility max_u = rpf.max_utility();
    const MHz cap = stage_caps_[static_cast<std::size_t>(j)];
    const MHz at_max = std::min(cap, rpf.AllocationFor(max_u));
    local.push_back(LocalJob{cap, jv.min_speed, rpf, max_u, at_max});
  }
  grant.assign(local.size(), 0.0);
  utilities.assign(local.size(), kUtilityFloor);
  if (local.empty()) return;

  // Equalize the local jobs' completion RPFs within the share: bisection on
  // a common level with per-job clamping at their caps / max utilities.
  auto demand_at = [&](const LocalJob& j, Utility level) {
    if (level >= j.max_u) return j.demand_at_max;
    return std::min(j.cap, j.rpf.AllocationFor(level));
  };
  auto total_at = [&](Utility level) {
    MHz total = 0.0;
    for (const LocalJob& j : local) total += demand_at(j, level);
    return total;
  };

  Utility hi = kUtilityFloor;
  for (const LocalJob& j : local) hi = std::max(hi, j.max_u);
  Utility level = hi;
  if (total_at(hi) > share + 1e-9) {
    Utility lo = kUtilityFloor;
    for (int iter = 0; iter < options_.bisection_iters; ++iter) {
      const Utility mid = 0.5 * (lo + hi);
      if (total_at(mid) <= share) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    level = lo;
  }

  // Grant the level demands, then pour any remainder into jobs below cap
  // (they are past their max achievable utility; extra speed still helps
  // them finish sooner but cannot raise the level further).
  MHz used = 0.0;
  for (std::size_t k = 0; k < local.size(); ++k) {
    grant[k] = demand_at(local[k], level);
    used += grant[k];
  }
  MHz leftover = std::max(0.0, share - used);
  for (std::size_t k = 0; k < local.size() && leftover > 1e-9; ++k) {
    const MHz room = local[k].cap - grant[k];
    const MHz add = std::min(room, leftover);
    grant[k] += add;
    leftover -= add;
  }

  for (std::size_t k = 0; k < local.size(); ++k) {
    // A job below its stage minimum speed must pause instead (§4.1).
    if (grant[k] > 0.0 && grant[k] + 1e-9 < local[k].min_alloc) grant[k] = 0.0;
    utilities[k] = local[k].rpf.UtilityAt(grant[k]);
  }
}

DistributionResult LoadDistributor::Distribute(const PlacementMatrix& p) const {
  return Distribute(p, scratch_);
}

DistributionResult LoadDistributor::Distribute(const PlacementMatrix& p,
                                               DistributorScratch& scratch) const {
  MWP_CHECK_MSG(snapshot_->IsFeasible(p),
                "Distribute requires a feasible placement");
  return DistributeFeasible(p, JobNodes(*snapshot_, p), scratch);
}

DistributionResult LoadDistributor::Distribute(
    const PlacementMatrix& p, const IncumbentIndex& index,
    const CandidateChange& change, DistributorScratch& scratch) const {
  MWP_CHECK_MSG(change.feasible, "Distribute requires a feasible placement");
  return DistributeFeasible(p, index.CandidateJobNodes(p, change), scratch);
}

void LoadDistributor::WaterFill(std::vector<FillEntity>& entities,
                                DistributorScratch& scratch) const {
  PrepareFlowNetwork(entities, scratch);
  std::vector<MHz>& demands = scratch.demands;
  demands.assign(entities.size(), 0.0);
  auto refresh_demands = [&](Utility level) {
    for (std::size_t i = 0; i < entities.size(); ++i) {
      demands[i] =
          entities[i].active ? entities[i].DemandAt(level) : entities[i].fixed_demand;
    }
  };
  auto feasible = [&](Utility level) {
    refresh_demands(level);
    return RouteDemands(demands, scratch, nullptr);
  };

  int active_count = 0;
  for (const FillEntity& e : entities) {
    if (e.active) ++active_count;
  }

  int guard = active_count + 2;
  while (active_count > 0 && guard-- > 0) {
    Utility hi = kUtilityFloor;
    for (const FillEntity& e : entities) {
      if (e.active) hi = std::max(hi, e.max_u);
    }

    if (!feasible(kUtilityFloor)) {
      // Even the floor demands do not fit (possible only when entities were
      // probe-fixed above the floor earlier, or demands at the floor exceed
      // routable capacity): grant each remaining entity its max-flow share
      // of the floor demands. Already-fixed entities are clamped to their
      // share too: a fixed demand accepted within kFeasibilityTol in an
      // earlier round may no longer route beside the floor demands, and the
      // final demand set must be a sub-flow of this one.
      refresh_demands(kUtilityFloor);
      std::vector<std::vector<MHz>>& routing = scratch.routing;
      RouteDemands(demands, scratch, &routing);  // best-effort
      for (std::size_t i = 0; i < entities.size(); ++i) {
        FillEntity& e = entities[i];
        MHz granted = 0.0;
        for (std::size_t n = 0; n < routing[i].size(); ++n) {
          granted += routing[i][n];
        }
        if (!e.active && granted >= e.fixed_demand) continue;
        e.fixed_demand = granted;
        e.fixed_utility = e.rpf->UtilityAt(granted);
        e.active = false;
      }
      active_count = 0;
      break;
    }

    if (feasible(hi)) {
      for (FillEntity& e : entities) {
        if (!e.active) continue;
        e.fixed_demand = e.DemandAt(e.max_u);
        e.fixed_utility = e.max_u;
        e.active = false;
        --active_count;
      }
      continue;
    }

    Utility lo = kUtilityFloor;
    for (int iter = 0; iter < options_.bisection_iters; ++iter) {
      const Utility mid = 0.5 * (lo + hi);
      if (feasible(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    const Utility level = lo;

    // Fix saturated and bottlenecked entities at the level. Both are
    // granted the demand verified feasible at `level` — never more, or the
    // remaining rounds would build on an unroutable base.
    int fixed_this_round = 0;
    refresh_demands(level);
    for (FillEntity& e : entities) {
      if (!e.active) continue;
      if (level >= e.max_u - options_.level_tolerance) {
        e.fixed_demand = e.DemandAt(level);
        e.fixed_utility = e.rpf->UtilityAt(e.fixed_demand);
        e.active = false;
        --active_count;
        ++fixed_this_round;
      }
    }
    for (std::size_t i = 0; i < entities.size(); ++i) {
      FillEntity& e = entities[i];
      if (!e.active) continue;
      const MHz saved = demands[i];
      demands[i] = e.DemandAt(level + options_.probe_delta);
      const bool can_rise = RouteDemands(demands, scratch, nullptr);
      demands[i] = saved;
      if (!can_rise) {
        e.fixed_demand = e.DemandAt(level);
        e.fixed_utility = e.rpf->UtilityAt(e.fixed_demand);
        e.active = false;
        --active_count;
        ++fixed_this_round;
      }
    }
    if (fixed_this_round == 0) {
      // Numerical stalemate: freeze everyone at the level found.
      for (FillEntity& e : entities) {
        if (!e.active) continue;
        e.fixed_demand = e.DemandAt(level);
        e.fixed_utility = e.rpf->UtilityAt(e.fixed_demand);
        e.active = false;
        --active_count;
      }
    }
  }

  // Final routing with the fixed demands (always the last verified set).
  for (std::size_t i = 0; i < entities.size(); ++i) {
    demands[i] = entities[i].fixed_demand;
  }
  const bool routed = RouteDemands(demands, scratch, &scratch.routing);
  MWP_CHECK_MSG(routed, "final fixed demands must be routable");
}

void LoadDistributor::FillAndRemember(std::vector<FillEntity>& entities,
                                      DistributorScratch& scratch) const {
  DistributorScratch::FillMemo& memo = scratch.fill_memo;
  memo.valid = false;
  memo.entities.clear();
  memo.nodes.clear();
  memo.cap_bits.clear();
  for (const FillEntity& e : entities) {
    memo.nodes.insert(memo.nodes.end(), e.nodes.begin(), e.nodes.end());
    for (const MHz cap : e.edge_caps) {
      memo.cap_bits.push_back(std::bit_cast<std::uint64_t>(cap));
    }
    DistributorScratch::FillMemo::Entity m;
    m.batch = e.kind == FillEntity::Kind::kBatch;
    m.entity = e.entity;
    m.active = e.active;
    m.demand_bits = std::bit_cast<std::uint64_t>(e.fixed_demand);
    m.utility_bits = std::bit_cast<std::uint64_t>(e.fixed_utility);
    m.nodes_end = static_cast<int>(memo.nodes.size());
    memo.entities.push_back(m);
  }
  const std::uint64_t probes_before = scratch.stats_.flow_probes;
  const std::uint64_t paths_before = scratch.stats_.rerouting_paths;
  ArmEntities(entities, scratch);
  WaterFill(entities, scratch);
  for (std::size_t i = 0; i < entities.size(); ++i) {
    memo.entities[i].fixed_demand = entities[i].fixed_demand;
    memo.entities[i].fixed_utility = entities[i].fixed_utility;
  }
  memo.flow_probes = scratch.stats_.flow_probes - probes_before;
  memo.rerouting_paths = scratch.stats_.rerouting_paths - paths_before;
  memo.valid = true;
}

DistributionResult LoadDistributor::DistributeFeasible(
    const PlacementMatrix& p, std::vector<int> job_nodes,
    DistributorScratch& scratch) const {
  const PlacementSnapshot& snap = *snapshot_;
  ++scratch.stats_.distribute_calls;
  if (scratch.owner_id != id_) {
    // Scratch last used with a different distributor: its memo tables do
    // not apply to this snapshot.
    scratch.owner_id = id_;
    scratch.batch_demand_memo.clear();
    scratch.node_memo.clear();
    scratch.fill_memo.valid = false;
  }
  std::vector<FillEntity> entities = BuildEntities(p, job_nodes, scratch);
  DistributorScratch::FillMemo& memo = scratch.fill_memo;
  if (RepeatsLastFill(entities, memo)) {
    // Same inputs, same snapshot: the fill would take the same probes to
    // the same doubles, and its routing is still in the scratch.
    ++scratch.stats_.fill_reuses;
    scratch.stats_.flow_probes += memo.flow_probes;
    scratch.stats_.rerouting_paths += memo.rerouting_paths;
    for (std::size_t i = 0; i < entities.size(); ++i) {
      entities[i].fixed_demand = memo.entities[i].fixed_demand;
      entities[i].fixed_utility = memo.entities[i].fixed_utility;
    }
  } else {
    FillAndRemember(entities, scratch);
  }
  if (!scratch.shared_node) ++scratch.stats_.unshared_calls;
  const std::vector<std::vector<MHz>>& routing = scratch.routing;
  const auto num_entities = static_cast<std::size_t>(snap.num_entities());

  DistributionResult result;
  result.totals.assign(num_entities, 0.0);
  result.utilities.assign(num_entities, kUtilityFloor);
  result.placed.assign(num_entities, false);
  result.batch_level = std::numeric_limits<double>::quiet_NaN();
  result.tx_loads = LoadMatrix(snap.num_tx(), snap.num_nodes());
  // Placed: a job with a node; a tx app with a node list (BuildEntities
  // skips the others).
  for (int j = 0; j < snap.num_jobs(); ++j) {
    result.placed[static_cast<std::size_t>(snap.EntityOfJob(j))] =
        job_nodes[static_cast<std::size_t>(j)] != kInvalidNode;
  }
  for (const FillEntity& e : entities) {
    if (e.kind == FillEntity::Kind::kTx) {
      result.placed[static_cast<std::size_t>(e.entity)] = true;
    }
  }

  for (std::size_t i = 0; i < entities.size(); ++i) {
    const FillEntity& e = entities[i];
    switch (e.kind) {
      case FillEntity::Kind::kBatch: {
        result.batch_level = e.fixed_utility;
        // Group the placed jobs by hosting node (ascending job order, the
        // same order the per-node scan produced).
        std::vector<std::vector<int>>& groups = scratch.node_jobs;
        if (static_cast<int>(groups.size()) != snap.num_nodes()) {
          groups.resize(static_cast<std::size_t>(snap.num_nodes()));
        }
        for (std::vector<int>& g : groups) g.clear();
        for (int j = 0; j < snap.num_jobs(); ++j) {
          const int n = job_nodes[static_cast<std::size_t>(j)];
          if (n >= 0) groups[static_cast<std::size_t>(n)].push_back(j);
        }
        scratch.node_memo.resize(groups.size());
        for (std::size_t n = 0; n < routing[i].size(); ++n) {
          if (routing[i][n] > 0.0) {
            DecomposeNodeShare(groups[n], static_cast<int>(n), routing[i][n],
                               scratch, result);
          }
        }
        break;
      }
      case FillEntity::Kind::kTx: {
        const auto entity = static_cast<std::size_t>(e.entity);
        result.totals[entity] = e.fixed_demand;
        result.utilities[entity] = e.fixed_utility;
        const int w = snap.TxOfEntity(e.entity);
        for (std::size_t n = 0; n < routing[i].size(); ++n) {
          result.tx_loads.at(w, static_cast<int>(n)) = routing[i][n];
        }
        break;
      }
    }
  }
  result.job_nodes = std::move(job_nodes);
  return result;
}

}  // namespace mwp
