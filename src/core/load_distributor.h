// CPU load distribution for a fixed placement (the paper's L matrix).
//
// Given a candidate placement P, the controller must divide each node's CPU
// among the instances it hosts so that the ordered vector of application
// relative performance is lexicographically maximal (§3.2 "Optimization
// objective"). This is classic progressive filling over monotone RPFs:
//
//   1. raise a common utility level for all unfixed applications as far as
//      node capacities allow (bisection; feasibility of a level is a
//      transportation problem solved by max-flow over the instances);
//   2. applications that saturate (reach their maximum achievable utility)
//      or are resource-bottlenecked get fixed at the level;
//   3. repeat with the rest until everyone is fixed.
//
// The batch workload bargains as ONE entity whose RPF is the hypothetical
// aggregate curve of §4.2 (BatchAggregateRpf): its demand at a level is the
// Eq. 6 aggregate over every incomplete job — placed and queued — so CPU
// flows from transactional apps to the batch workload exactly when queued
// work drags the batch level below the transactional RP, the behaviour
// Experiment Three demonstrates. The granted aggregate is routed through
// the placed job instances (per-instance cap: the job's stage ω_max) and
// then decomposed within each node by equalizing the local jobs' completion
// RPFs.
//
// Distribute is called once per candidate placement — hundreds to thousands
// of times per control cycle — so all per-call state lives in a reusable
// DistributorScratch: the flow network is built once per Distribute as a
// sparse residual network (only the source→entity demands change between
// the ~50 feasibility probes of the bisection), the batch aggregate's
// demand curve is memoized across candidates (it depends only on the
// snapshot, not the placement), and so is each node's last decomposition
// (it depends only on the node's share and the jobs it hosts). The last
// water-fill is kept too, keyed by its fill entities: kind, snapshot
// entity, starting state, node list and edge-cap bits. The network, every
// probe's demands and verdict, and so the fixed demands, utilities and
// final routing, are functions of those and the snapshot alone, so a call
// that repeats them bit for bit replays the outcome and counts the probes
// and rerouting paths the fill took (most one-change candidates of
// identical jobs leave every node's batch cap where it was). All reuse is
// bit-for-bit neutral: memoized values are the exact doubles a fresh
// computation would produce.
//
// Each probe is an Edmonds–Karp max-flow over that network, run in two
// phases that take exactly the augmenting paths, in exactly the order, that
// the breadth-first search would pick, with the same bottlenecks and the
// same floating-point updates:
//
//   1. every direct source→entity→node→sink path, entity by entity and
//      node by node in ascending order, without a search. While a direct
//      path exists the BFS returns the first one in that order: it queues
//      the entities with unrouted demand, then their nodes grouped by the
//      first entity reaching each, and stops at the first queued node with
//      spare capacity. Augmenting a direct path lowers only its own three
//      arcs and raises only reverse arcs, which no direct path uses, so a
//      blocked direct path stays blocked and one pass meets the paths in
//      the BFS's order;
//   2. the BFS loop itself, for the longer paths that reroute earlier flow
//      through a reverse arc. Edmonds–Karp's shortest-path length never
//      shrinks, so no direct path reappears. Longer paths need a node
//      shared between entities: transactional instances beside batch jobs
//      or beside each other.
//
// When no node hosts arcs from two fill entities (every Experiment One
// call: its one batch entity is alone), phase 2 cannot find a path and
// phase 1 meets every node→sink arc at its full capacity. Distribute then
// builds no network: a probe subtracts each entity's demand down its usable
// arcs, min(node CPU, instance cap, remaining demand) at a time — phase 1's
// operands, order and update, so every verdict and routed flow is
// bit-identical.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/placement.h"
#include "core/hypothetical_rpf.h"
#include "core/incumbent_index.h"
#include "core/snapshot.h"

namespace mwp {

struct DistributionResult {
  /// Per-entity totals ω_e (0 for unplaced entities).
  std::vector<MHz> totals;
  /// Per-entity achieved utility; meaningful only for placed entities
  /// (unplaced carry kUtilityFloor). Transactional utilities come from the
  /// queuing model; job utilities from their completion RPFs at the
  /// decomposed allocation.
  std::vector<Utility> utilities;
  /// Whether the entity had at least one instance in the placement.
  std::vector<bool> placed;
  /// The level the batch aggregate reached; NaN when the placement hosts no
  /// batch entity (no placed jobs).
  Utility batch_level = std::numeric_limits<double>::quiet_NaN();
  /// Per job: the node hosting it, kInvalidNode when unplaced.
  std::vector<int> job_nodes;
  /// The transactional rows of the load matrix: CPU routed per (tx app,
  /// node), MHz, tx apps in snapshot order.
  LoadMatrix tx_loads;

  /// The load matrix L: CPU allocated per (entity, node), MHz. A job's
  /// only cell is its total on its node; a tx app's row is its routing.
  /// Built on demand (scoring a candidate never reads it), entities
  /// indexed like the snapshot's: jobs, then tx apps.
  LoadMatrix Loads() const;
};

/// Reusable buffers for Distribute: the sparse residual network and
/// Edmonds–Karp working state, plus memo tables valid for the owning
/// distributor's snapshot. Use one scratch per thread; results are
/// independent of which scratch is used (memoized values are bit-identical
/// to recomputation).
class DistributorScratch {
 public:
  DistributorScratch() = default;

  /// Activity counters, monotone over the scratch's lifetime — never reset
  /// internally. The optimizer differences them around a solve to report
  /// per-cycle distributor effort in the observability trace.
  struct Stats {
    std::uint64_t distribute_calls = 0;  ///< Distribute() invocations
    std::uint64_t flow_probes = 0;       ///< max-flow feasibility probes
    /// Augmenting paths found by BFS, i.e. rerouting earlier flow through
    /// a reverse arc (direct paths need no search).
    std::uint64_t rerouting_paths = 0;
    /// Distribute() calls where no node hosts two fill entities, so every
    /// probe ran without the flow network.
    std::uint64_t unshared_calls = 0;
    /// Per-node batch decompositions, and those served by the node memo.
    std::uint64_t decompositions = 0;
    std::uint64_t decomposition_reuses = 0;
    /// Distribute() calls that replayed the scratch's last water-fill; their
    /// probes and rerouting paths are the recorded ones, counted again.
    std::uint64_t fill_reuses = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class LoadDistributor;

  Stats stats_;

  /// Id of the distributor the memo tables belong to (0: none); they are
  /// cleared when the scratch is handed to a different distributor.
  std::uint64_t owner_id = 0;

  /// True when some node hosts arcs from two fill entities; otherwise the
  /// residual network below is not built and probes walk the direct arcs.
  bool shared_node = false;

  // Direct arcs for the unshared case, per fill entity (CSR by entity, in
  // ascending node order): the usable entity→node arcs (instance cap and
  // node CPU both above the flow epsilon), each with min(node CPU, cap)
  // and the cap itself.
  std::vector<int> direct_begin;  // per fill entity, plus an end sentinel
  std::vector<int> direct_node;
  std::vector<double> direct_limit;
  std::vector<double> direct_cap;

  // Residual network for the current Distribute call when a node is
  // shared. Vertices: source 0, fill entities 1..E, nodes E+1..E+N, sink
  // E+N+1. An arc exists where a capacity can: source→entity (the probe's
  // demand), entity→node (instance cap > 0) and node→sink (available CPU
  // > 0), each paired with a reverse arc of capacity zero. Arcs are stored
  // CSR, grouped by tail vertex in ascending head order, so the source's
  // arc to entity i is arc i and each entity's block opens with its reverse
  // arc to the source. Built in O(arcs) per Distribute, reset in O(arcs)
  // per probe.
  int vertices = 0;
  int num_fill_entities = 0;
  std::vector<int> arc_begin;        // per vertex, plus an end sentinel
  std::vector<int> arc_head;         // per arc
  std::vector<int> arc_reverse;      // per arc: its paired arc
  std::vector<double> arc_capacity;  // per arc; source arcs zero
  std::vector<double> residual;      // per arc, working
  std::vector<int> sink_arc;         // per node: node→sink arc, -1 if none
  std::vector<int> parent_arc;       // BFS tree: arc into each vertex
  std::vector<int> bfs_queue;        // flat FIFO

  // Per-call demand and routing buffers.
  std::vector<MHz> demands;
  std::vector<std::vector<MHz>> routing;

  // Per-node batch edge caps, summed per call.
  std::vector<MHz> node_caps;

  // Batch decomposition: the per-node job groups for the final assembly.
  std::vector<std::vector<int>> node_jobs;

  /// Batch aggregate demand curve memo: clamped level bits → Eq. 6
  /// aggregate. Valid across candidates because the hypothetical RPF
  /// depends only on the snapshot.
  std::unordered_map<std::uint64_t, MHz> batch_demand_memo;

  /// Last batch decomposition per node, keyed by the bits of the node's
  /// share and its ascending local job list. Valid across candidates
  /// because a node's decomposition depends only on those and the
  /// snapshot. Cleared with batch_demand_memo.
  struct NodeDecomposition {
    std::uint64_t share_bits = 0;
    std::vector<int> jobs;
    std::vector<MHz> grants;
    std::vector<Utility> utilities;
  };
  std::vector<NodeDecomposition> node_memo;

  /// The last water-fill, keyed by its inputs per fill entity: kind and
  /// snapshot entity, starting state (active flag, fixed demand and utility
  /// bits), node list and edge-cap bits. With the snapshot these decide the
  /// flow network and every probe, so a call whose inputs match bit for bit
  /// replays the outcome: each entity's fixed demand and utility, and the
  /// probes and rerouting paths the fill took. Its final routing is the one
  /// left in `routing`, and `shared_node` is its network's. Cleared with
  /// batch_demand_memo.
  struct FillMemo {
    /// False until a fill completes, and while one runs.
    bool valid = false;
    struct Entity {
      bool batch = false;
      int entity = -1;
      bool active = false;
      std::uint64_t demand_bits = 0;
      std::uint64_t utility_bits = 0;
      int nodes_end = 0;  // end of its nodes in `nodes` and `cap_bits`
      MHz fixed_demand = 0.0;
      Utility fixed_utility = kUtilityFloor;
    };
    std::vector<Entity> entities;
    std::vector<int> nodes;
    std::vector<std::uint64_t> cap_bits;
    std::uint64_t flow_probes = 0;
    std::uint64_t rerouting_paths = 0;
  };
  FillMemo fill_memo;
};

/// A fresh id for an object whose callers' scratches keep memo tables for
/// it: never 0 and never reused in the process. Scratches compare it
/// rather than the owner's address, which a later object can reuse.
std::uint64_t NewScratchOwnerId();

class LoadDistributor {
 public:
  struct Options {
    /// Convergence tolerance on the common utility level.
    double level_tolerance = 1e-4;
    /// Probe step used to detect resource-bottlenecked entities.
    double probe_delta = 1e-3;
    int bisection_iters = 48;

    /// Throws std::logic_error (MWP_CHECK) on an out-of-range field.
    void Validate() const;
  };

  explicit LoadDistributor(const PlacementSnapshot* snapshot);
  LoadDistributor(const PlacementSnapshot* snapshot, Options options);

  /// Distribute node CPU under placement `p`. `p` must be feasible. Uses the
  /// distributor's internal scratch — not safe for concurrent calls.
  DistributionResult Distribute(const PlacementMatrix& p) const;

  /// As above with caller-provided scratch; use one scratch per thread for
  /// concurrent distribution.
  DistributionResult Distribute(const PlacementMatrix& p,
                                DistributorScratch& scratch) const;

  /// As above for a search candidate `p`: `index`'s incumbent with `change`
  /// applied. The precondition checks the change's feasibility verdict, and
  /// each job's node comes from the index, re-scanned on the changed rows
  /// only. Same result as the overload above.
  DistributionResult Distribute(const PlacementMatrix& p,
                                const IncumbentIndex& index,
                                const CandidateChange& change,
                                DistributorScratch& scratch) const;

 private:
  struct FillEntity;  // internal per-entity solver state

  const PlacementSnapshot* snapshot_;
  Options options_;
  /// NewScratchOwnerId(): tells a scratch whether its memos are this
  /// distributor's.
  std::uint64_t id_ = NewScratchOwnerId();
  /// The hypothetical RPF (at snapshot time, over all incomplete jobs)
  /// driving the batch aggregate entity; null when the snapshot has no jobs.
  std::unique_ptr<HypotheticalRpf> hypothetical_;
  /// Per job: its current stage's max speed, the cap of its instance.
  std::vector<MHz> stage_caps_;
  /// Scratch for the one-argument Distribute overload.
  mutable DistributorScratch scratch_;

  /// Distribute for a placement already known to be feasible, given each
  /// job's node under it.
  DistributionResult DistributeFeasible(const PlacementMatrix& p,
                                        std::vector<int> job_nodes,
                                        DistributorScratch& scratch) const;
  /// The fill entities with their nodes, edge caps and starting state; the
  /// RPFs are attached by ArmEntities, which only a fill needs.
  std::vector<FillEntity> BuildEntities(const PlacementMatrix& p,
                                        const std::vector<int>& job_nodes,
                                        DistributorScratch& scratch) const;
  void ArmEntities(std::vector<FillEntity>& entities,
                   DistributorScratch& scratch) const;
  /// Whether `entities` are the inputs of the scratch's last water-fill.
  static bool RepeatsLastFill(const std::vector<FillEntity>& entities,
                              const DistributorScratch::FillMemo& memo);
  /// Fixes every entity's demand and utility by progressive filling and
  /// leaves the final routing in scratch.routing.
  void WaterFill(std::vector<FillEntity>& entities,
                 DistributorScratch& scratch) const;
  /// ArmEntities and WaterFill, kept in scratch.fill_memo for replay.
  void FillAndRemember(std::vector<FillEntity>& entities,
                       DistributorScratch& scratch) const;
  /// Builds the residual network for the current entity set into
  /// `scratch` (only source arcs vary per probe), or only the direct arcs
  /// when no node is shared.
  void PrepareFlowNetwork(const std::vector<FillEntity>& entities,
                          DistributorScratch& scratch) const;
  /// True when demands (per fill entity, MHz) can be routed within node
  /// capacities and per-instance caps; optionally returns the routing
  /// (fill-entity-major, nodes wide). PrepareFlowNetwork must have run for
  /// the entity set the demands belong to.
  bool RouteDemands(const std::vector<MHz>& demands,
                    DistributorScratch& scratch,
                    std::vector<std::vector<MHz>>* routing) const;
  /// Equalize local jobs' completion RPFs within one node's batch share,
  /// or replay the node's memoized result for the same share and jobs.
  /// `local_jobs` holds the snapshot job indices hosted on `node`, in
  /// ascending order.
  void DecomposeNodeShare(const std::vector<int>& local_jobs, int node,
                          MHz share, DistributorScratch& scratch,
                          DistributionResult& result) const;
  /// The decomposition itself: per local job, its grant and the utility
  /// its completion RPF gives the grant.
  void DecomposeInto(const std::vector<int>& local_jobs, int node, MHz share,
                     std::vector<MHz>& grant,
                     std::vector<Utility>& utilities) const;
};

}  // namespace mwp
