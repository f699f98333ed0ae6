// Sharded placement optimizer: per-cell solves plus a thin global
// rebalancer, for near-linear control cycles at hundreds of nodes.
//
// The monolithic PlacementOptimizer evaluates whole-cluster candidates, so
// its cycle cost grows super-linearly with node count. The sharded variant
// decomposes one cycle into:
//
//   1. Partition the cluster into cells of Options::cell_size nodes
//      (CellPartition; seeded, deterministic) and assign every snapshot
//      entity to cells (CellAssignment).
//   2. Solve every cell independently with an ordinary PlacementOptimizer
//      over its SnapshotSlice, in parallel on a ThreadPool — one cell per
//      pool index, results written to per-cell slots, so the outcome is
//      identical for any cell_threads value (the same discipline as the
//      monolithic optimizer's parallel candidate search).
//   3. Hierarchical max-min rebalance: compare per-cell utility (relative
//      performance) vectors, and move the globally worst-off job from its
//      RP-poor cell to the RP-rich cell whose *minimum* utility is highest,
//      re-solving only the two affected cells (the receiver prices the move
//      as a migrate/resume via the slice's transplant rule; the donor is
//      repaired incrementally without the job). A move is kept only when
//      the job's own utility improves by more than the tie tolerance —
//      the same lexicographic-with-tolerance objective each tier of the
//      hierarchy already optimizes. At most max_cross_cell_moves jobs move
//      per cycle (the cross-cell churn bound), with a 2x attempt cap so a
//      string of failed probes cannot stall the cycle.
//   4. Assemble the per-cell placements into one global matrix (cells
//      partition the nodes, each job lives in exactly one cell, per-cell tx
//      caps compose to the global cap — feasibility is checked) and score
//      it once with a global evaluator, yielding a standard
//      PlacementOptimizer::Result the controller consumes unchanged.
//
// With a single cell, steps 1–4 reduce to exactly the monolithic solve
// (the slice is the identity view and the rebalancer has no second cell),
// so sharded(1 cell) is bit-exact with PlacementOptimizer — property-tested
// in tests/core/sharded_optimizer_test.cc.
#pragma once

#include <cstdint>
#include <vector>

#include "core/placement_optimizer.h"
#include "core/snapshot.h"
#include "core/snapshot_slice.h"

namespace mwp {

class ShardedPlacementOptimizer {
 public:
  struct Options {
    /// Nodes per cell, >= 1 here. The partition clamps to the cluster
    /// size, so a value at or above num_nodes degenerates to one cell
    /// (= monolithic). SolvePlacement reads 0 as a monolithic solve.
    int cell_size = 32;
    /// Seed for the node shuffle; 0 keeps contiguous node-index cells.
    std::uint64_t partition_seed = 0;
    /// Concurrent cell solves: 0 = hardware concurrency, 1 = sequential.
    /// The chosen placement is identical for every value.
    int cell_threads = 0;
    /// Cross-cell churn bound: accepted job transfers per cycle. 0 disables
    /// the rebalance stage entirely.
    int max_cross_cell_moves = 8;
    /// Per-cell search options. search_threads is overridden to 1 inside
    /// each cell — cells are the unit of parallelism here, and nesting
    /// pools would oversubscribe without improving determinism.
    PlacementOptimizer::Options cell;

    /// Throws std::logic_error (MWP_CHECK) on an out-of-range field,
    /// including the per-cell search options'. Accepts cell_size 0.
    void Validate() const;
  };

  struct Result {
    /// Assembled global placement, scored by a whole-snapshot evaluator —
    /// same shape the monolithic optimizer returns. `evaluations` sums
    /// every per-cell solve (including rebalance probes that were reverted)
    /// plus the two global evaluations (incumbent and final).
    PlacementOptimizer::Result global;
    int num_cells = 0;
    /// Accepted cross-cell transfers of *placed* jobs — each costs one VM
    /// migration when the decisions are applied.
    int cross_cell_migrations = 0;
    /// All accepted transfers, including queued/suspended jobs whose move
    /// is free (they were not running anywhere).
    int cross_cell_transfers = 0;
    /// Wall-clock seconds spent solving each cell, re-solves included.
    std::vector<Seconds> cell_solve_seconds;
  };

  ShardedPlacementOptimizer(const PlacementSnapshot* snapshot, Options options);

  Result Optimize() const;

  /// Resolved concurrent cell-solve lanes.
  int cell_lanes() const { return lanes_; }

 private:
  const PlacementSnapshot* snapshot_;
  Options options_;
  int lanes_ = 1;
};

/// The one place a cycle's solve picks its engine: options.cell_size > 0
/// runs ShardedPlacementOptimizer; otherwise a PlacementOptimizer solves
/// the whole snapshot with options.cell (the result has num_cells 0 and no
/// cell timings). The controller and the replay harness both solve through
/// here.
ShardedPlacementOptimizer::Result SolvePlacement(
    const PlacementSnapshot& snapshot,
    const ShardedPlacementOptimizer::Options& options);

}  // namespace mwp
