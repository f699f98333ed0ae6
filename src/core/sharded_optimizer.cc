#include "core/sharded_optimizer.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

#include "common/check.h"
#include "core/evaluator.h"
#include "core/thread_pool.h"
#include "obs/stopwatch.h"

namespace mwp {
namespace {

int ResolveCellLanes(int cell_threads, int num_cells) {
  int lanes;
  if (cell_threads > 0) {
    lanes = std::min(cell_threads, 32);
  } else {
    const unsigned hw = std::thread::hardware_concurrency();
    lanes = std::clamp(static_cast<int>(hw), 1, 32);
  }
  return std::clamp(lanes, 1, std::max(1, num_cells));
}

/// Everything the solver holds per cell. Slice and optimizer are rebuilt
/// whenever the cell's entity set changes (a rebalance transfer).
struct CellState {
  std::unique_ptr<SnapshotSlice> slice;
  std::unique_ptr<PlacementOptimizer> optimizer;
  PlacementOptimizer::Result result;
};

}  // namespace

void ShardedPlacementOptimizer::Options::Validate() const {
  MWP_CHECK(cell_size >= 0);
  MWP_CHECK(cell_threads >= 0);
  MWP_CHECK(max_cross_cell_moves >= 0);
  cell.Validate();
}

ShardedPlacementOptimizer::Result SolvePlacement(
    const PlacementSnapshot& snapshot,
    const ShardedPlacementOptimizer::Options& options) {
  if (options.cell_size > 0) {
    return ShardedPlacementOptimizer(&snapshot, options).Optimize();
  }
  ShardedPlacementOptimizer::Result result;
  result.global = PlacementOptimizer(&snapshot, options.cell).Optimize();
  return result;
}

ShardedPlacementOptimizer::ShardedPlacementOptimizer(
    const PlacementSnapshot* snapshot, Options options)
    : snapshot_(snapshot), options_(std::move(options)) {
  MWP_CHECK(snapshot_ != nullptr);
  options_.Validate();
  MWP_CHECK(options_.cell_size >= 1);
  const int num_cells =
      (snapshot_->num_nodes() + options_.cell_size - 1) / options_.cell_size;
  lanes_ = ResolveCellLanes(options_.cell_threads, num_cells);
}

ShardedPlacementOptimizer::Result ShardedPlacementOptimizer::Optimize() const {
  const PlacementSnapshot& snap = *snapshot_;
  const CellPartition partition = CellPartition::Build(
      snap.num_nodes(), options_.cell_size, options_.partition_seed);
  CellAssignment assignment = CellAssignment::Build(snap, partition);
  const int num_cells = partition.num_cells();

  PlacementOptimizer::Options cell_options = options_.cell;
  cell_options.search_threads = 1;

  Result out;
  out.num_cells = num_cells;
  out.cell_solve_seconds.assign(static_cast<std::size_t>(num_cells), 0.0);

  std::vector<CellState> cells(static_cast<std::size_t>(num_cells));
  // Solve-activity totals are accumulated outside CellState so reverting a
  // rebalance probe (which restores the cell's previous state) still counts
  // the work the probe performed.
  int total_evaluations = 0;
  std::uint64_t total_cache_hits = 0;
  std::uint64_t total_cache_misses = 0;
  std::uint64_t total_distribute_calls = 0;

  const auto solve_cell = [&](int c) {
    const obs::Stopwatch stopwatch;
    CellState& state = cells[static_cast<std::size_t>(c)];
    state.slice =
        std::make_unique<SnapshotSlice>(snap, partition, assignment, c);
    state.optimizer = std::make_unique<PlacementOptimizer>(
        &state.slice->snapshot(), cell_options);
    state.result = state.optimizer->Optimize();
    // audit: order-fixed(slot c is written by exactly one pool index; timing only)
    out.cell_solve_seconds[static_cast<std::size_t>(c)] += stopwatch.Elapsed();
  };
  const auto charge_cell = [&](const CellState& state) {
    total_evaluations += state.result.evaluations;
    total_cache_hits += state.result.cache_hits;
    total_cache_misses += state.result.cache_misses;
    total_distribute_calls += state.result.distribute_calls;
  };

  // Stage 2: independent per-cell solves, one pool index per cell. Each
  // index writes only its own CellState and timing slot, so the outcome is
  // deterministic for any lane count.
  if (lanes_ > 1) {
    ThreadPool pool(lanes_ - 1);
    pool.ParallelFor(static_cast<std::size_t>(num_cells),
                     [&](int /*lane*/, std::size_t i) {
                       solve_cell(static_cast<int>(i));
                     });
  } else {
    for (int c = 0; c < num_cells; ++c) solve_cell(c);
  }
  for (const CellState& state : cells) charge_cell(state);

  // The global evaluator scores the assembled placement (stage 4); its
  // objective also ranks need in the rebalance.
  PlacementEvaluator evaluator(snapshot_, options_.cell.evaluator);

  // Stage 3: hierarchical max-min rebalance (sequential, deterministic).
  // Need is ranked by biased utility (u + EntityBias), so e.g. Karma credit
  // holders are picked as "worst off" earlier and receiver floors account
  // for their own credit holders — the cross-cell pass consults the same
  // objective the per-cell solves optimized.
  const double tolerance = options_.cell.evaluator.tie_tolerance;
  if (num_cells > 1 && options_.max_cross_cell_moves > 0) {
    const FairnessObjective& objective = evaluator.objective();
    std::vector<bool> ineligible(static_cast<std::size_t>(snap.num_jobs()),
                                 false);
    const auto biased = [&](const SnapshotSlice& slice, int le, Utility u) {
      const int ge = slice.global_entities()[static_cast<std::size_t>(le)];
      return u + objective.EntityBias(ge);
    };
    const auto min_utility = [&](int c) {
      const CellState& state = cells[static_cast<std::size_t>(c)];
      const auto& utilities = state.result.evaluation.entity_utilities;
      Utility floor = std::numeric_limits<Utility>::infinity();
      for (std::size_t le = 0; le < utilities.size(); ++le) {
        floor = std::min(
            floor, biased(*state.slice, static_cast<int>(le), utilities[le]));
      }
      return floor;
    };

    int attempts = 0;
    while (out.cross_cell_transfers < options_.max_cross_cell_moves &&
           attempts < 2 * options_.max_cross_cell_moves) {
      // The globally worst-off job still eligible to move (ties break
      // toward the lowest job index — global entity index == job index).
      int worst_job = -1;
      Utility worst_utility = 0.0;
      for (int c = 0; c < num_cells; ++c) {
        const CellState& state = cells[static_cast<std::size_t>(c)];
        const auto& slice = *state.slice;
        const auto& local_snap = slice.snapshot();
        for (int le = 0; le < local_snap.num_jobs(); ++le) {
          const int gj = slice.global_entities()[static_cast<std::size_t>(le)];
          if (ineligible[static_cast<std::size_t>(gj)]) continue;
          const Utility u = biased(
              slice, le,
              state.result.evaluation
                  .entity_utilities[static_cast<std::size_t>(le)]);
          if (worst_job == -1 || u < worst_utility ||
              (u == worst_utility && gj < worst_job)) {
            worst_job = gj;
            worst_utility = u;
          }
        }
      }
      if (worst_job == -1) break;
      const int donor = assignment.job_cell[static_cast<std::size_t>(worst_job)];
      const JobView& jv = snap.job(worst_job);

      // Receiver: the cell whose worst-off entity is best off (max-min),
      // provided its floor clears the moving job's utility by more than the
      // tie tolerance and it has an online, pin-allowed node with room.
      int receiver = -1;
      Utility receiver_floor = 0.0;
      for (int c = 0; c < num_cells; ++c) {
        if (c == donor) continue;
        const Utility floor = min_utility(c);
        if (floor <= worst_utility + tolerance) continue;
        const CellState& state = cells[static_cast<std::size_t>(c)];
        const auto& local_snap = state.slice->snapshot();
        bool fits = false;
        for (int n = 0; n < local_snap.num_nodes(); ++n) {
          const NodeId g =
              state.slice->global_nodes()[static_cast<std::size_t>(n)];
          if (!local_snap.NodeOnline(n)) continue;
          if (!snap.constraints().AllowsNode(jv.id, g)) continue;
          if (local_snap.FreeMemory(state.result.placement, n) + kEpsilon >=
              jv.memory) {
            fits = true;
            break;
          }
        }
        if (!fits) continue;
        if (receiver == -1 || floor > receiver_floor) {
          receiver = c;
          receiver_floor = floor;
        }
      }
      if (receiver == -1) {
        ineligible[static_cast<std::size_t>(worst_job)] = true;
        ++attempts;
        continue;
      }

      // Probe: hand the job to the receiver and re-solve it. Keep the move
      // only when the receiver actually places the job and lifts its
      // utility beyond the tolerance; otherwise restore the receiver
      // exactly as it was.
      CellState saved = std::move(cells[static_cast<std::size_t>(receiver)]);
      assignment.job_cell[static_cast<std::size_t>(worst_job)] = receiver;
      solve_cell(receiver);
      CellState& probed = cells[static_cast<std::size_t>(receiver)];
      charge_cell(probed);
      const int le = probed.slice->LocalJobOf(worst_job);
      MWP_CHECK(le >= 0);
      const bool placed = probed.result.placement.InstanceCount(le) > 0;
      // Biased like worst_utility (same entity, so the bias cancels and the
      // acceptance threshold is the raw utility lift either way).
      const Utility new_utility = biased(
          *probed.slice, le,
          probed.result.evaluation
              .entity_utilities[static_cast<std::size_t>(le)]);
      if (placed && new_utility > worst_utility + tolerance) {
        ++out.cross_cell_transfers;
        if (jv.placed()) ++out.cross_cell_migrations;
        // Incremental repair of the donor: its slice shrank by one job.
        solve_cell(donor);
        charge_cell(cells[static_cast<std::size_t>(donor)]);
      } else {
        assignment.job_cell[static_cast<std::size_t>(worst_job)] = donor;
        cells[static_cast<std::size_t>(receiver)] = std::move(saved);
      }
      ineligible[static_cast<std::size_t>(worst_job)] = true;
      ++attempts;
    }
  }

  // Stage 4: assemble and score globally.
  PlacementMatrix assembled(snap.num_entities(), snap.num_nodes());
  bool all_shortcut = true;
  for (int c = 0; c < num_cells; ++c) {
    const CellState& state = cells[static_cast<std::size_t>(c)];
    const auto& slice = *state.slice;
    const PlacementMatrix& p = state.result.placement;
    for (int le = 0; le < p.num_apps(); ++le) {
      const int ge = slice.global_entities()[static_cast<std::size_t>(le)];
      const int* row = p.RowData(le);
      for (int ln = 0; ln < p.num_nodes(); ++ln) {
        if (row[ln] != 0) {
          assembled.at(ge, slice.global_nodes()[static_cast<std::size_t>(ln)]) +=
              row[ln];
        }
      }
    }
    if (!state.result.used_shortcut) all_shortcut = false;
  }
  MWP_CHECK_MSG(snap.IsFeasible(assembled),
                "sharded assembly produced an infeasible placement");

  out.global.placement = std::move(assembled);
  out.global.evaluation = evaluator.Evaluate(out.global.placement);
  out.global.incumbent_utilities =
      RpVector(evaluator.Evaluate(snap.current_placement()).entity_utilities);
  out.global.evaluations = total_evaluations + 2;
  out.global.used_shortcut = all_shortcut && out.cross_cell_transfers == 0;
  out.global.cache_hits = total_cache_hits + evaluator.cache_hits();
  out.global.cache_misses = total_cache_misses + evaluator.cache_misses();
  out.global.distribute_calls = total_distribute_calls;
  return out;
}

}  // namespace mwp
