// Search candidates scored as changes to an indexed incumbent.
//
// The APC's search (§4.3) improves its incumbent placement one change at a
// time, so every candidate it scores differs from the incumbent in a few
// cells: residents peeled off one node plus one wished-for instance added
// there, or one job moved to that node from its own. A CandidateChange
// names those cells; an IncumbentIndex keeps what scoring would otherwise
// recompute per candidate from the dense entities × nodes matrix:
//
//   - each job's node;
//   - the rows that differ from the snapshot's current placement;
//   - whether the incumbent passed IsFeasible.
//
// From the two, a candidate's feasibility verdict, the distributor's job →
// node map and the evaluator's change list cost O(jobs + changed cells) and
// give exactly what the dense passes give (see IsFeasibleChange and the
// row-listed DiffPlacements).
#pragma once

#include <vector>

#include "cluster/placement.h"
#include "core/snapshot.h"

namespace mwp {

/// The cells where a candidate differs from the incumbent it was built
/// from. Applying it to the incumbent yields the candidate.
struct CandidateChange {
  /// One instance added (+1) or removed (-1) at (entity, node).
  struct Cell {
    int entity;
    int node;
    int delta;
  };
  std::vector<Cell> cells;
  /// Ascending distinct entities and nodes of `cells` (set by Seal).
  std::vector<int> rows;
  std::vector<int> nodes;
  /// IsFeasible's verdict for the candidate, computed from the change
  /// (PlacementEvaluator::IsFeasibleCandidate). The change-based Distribute
  /// checks it as its precondition.
  bool feasible = false;

  void Clear();
  void Add(int entity, int node, int delta) {
    cells.push_back(Cell{entity, node, delta});
  }
  /// Derives `rows` and `nodes` from `cells`; call after the last Add.
  void Seal();
  void ApplyTo(PlacementMatrix& p) const;
  void RevertFrom(PlacementMatrix& p) const;
};

/// The node hosting each job under `p` (kInvalidNode when unplaced): one
/// FirstNodeOf row scan per job.
std::vector<int> JobNodes(const PlacementSnapshot& snap,
                          const PlacementMatrix& p);

class IncumbentIndex {
 public:
  /// Indexes `incumbent` with one pass over the matrix (plus IsFeasible).
  IncumbentIndex(const PlacementSnapshot& snap,
                 const PlacementMatrix& incumbent);

  /// Re-indexes the rows `change` touched, after it was committed: applied
  /// to `incumbent`, which is now the new incumbent.
  void Commit(const PlacementMatrix& incumbent, const CandidateChange& change);

  /// Per job: the node hosting it, kInvalidNode when unplaced.
  const std::vector<int>& job_nodes() const { return job_nodes_; }
  /// Ascending entities whose incumbent row differs from the snapshot's
  /// current placement.
  const std::vector<int>& changed_rows() const { return changed_rows_; }
  /// IsFeasible(incumbent).
  bool feasible() const { return feasible_; }

  /// The candidate's job → node map: job_nodes() with the change's job
  /// rows re-scanned in `candidate` (the incumbent with `change` applied).
  std::vector<int> CandidateJobNodes(const PlacementMatrix& candidate,
                                     const CandidateChange& change) const;
  /// The rows where the candidate may differ from the current placement:
  /// the ascending union of changed_rows() and change.rows.
  void CandidateDiffRows(const CandidateChange& change,
                         std::vector<int>& out) const;

 private:
  const PlacementSnapshot* snapshot_;
  std::vector<int> job_nodes_;
  std::vector<int> changed_rows_;
  bool feasible_ = false;
};

}  // namespace mwp
