#include "core/incumbent_index.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"

namespace mwp {
namespace {

bool RowsEqual(const PlacementMatrix& a, const PlacementMatrix& b, int row) {
  const int* ra = a.RowData(row);
  return std::equal(ra, ra + a.num_nodes(), b.RowData(row));
}

void SortUnique(std::vector<int>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

void CandidateChange::Clear() {
  cells.clear();
  rows.clear();
  nodes.clear();
  feasible = false;
}

void CandidateChange::Seal() {
  rows.clear();
  nodes.clear();
  for (const Cell& c : cells) {
    rows.push_back(c.entity);
    nodes.push_back(c.node);
  }
  SortUnique(rows);
  SortUnique(nodes);
}

void CandidateChange::ApplyTo(PlacementMatrix& p) const {
  for (const Cell& c : cells) p.at(c.entity, c.node) += c.delta;
}

void CandidateChange::RevertFrom(PlacementMatrix& p) const {
  for (const Cell& c : cells) p.at(c.entity, c.node) -= c.delta;
}

std::vector<int> JobNodes(const PlacementSnapshot& snap,
                          const PlacementMatrix& p) {
  std::vector<int> nodes(static_cast<std::size_t>(snap.num_jobs()));
  for (int j = 0; j < snap.num_jobs(); ++j) {
    nodes[static_cast<std::size_t>(j)] = FirstNodeOf(p, snap.EntityOfJob(j));
  }
  return nodes;
}

IncumbentIndex::IncumbentIndex(const PlacementSnapshot& snap,
                               const PlacementMatrix& incumbent)
    : snapshot_(&snap),
      job_nodes_(JobNodes(snap, incumbent)),
      feasible_(snap.IsFeasible(incumbent)) {
  for (int e = 0; e < snap.num_entities(); ++e) {
    if (!RowsEqual(incumbent, snap.current_placement(), e)) {
      changed_rows_.push_back(e);
    }
  }
}

void IncumbentIndex::Commit(const PlacementMatrix& incumbent,
                            const CandidateChange& change) {
  const PlacementSnapshot& snap = *snapshot_;
  // Only a candidate that passed IsFeasible is scored, let alone committed.
  MWP_DCHECK(change.feasible);
  feasible_ = change.feasible;
  for (const int e : change.rows) {
    if (snap.IsJobEntity(e)) {
      job_nodes_[static_cast<std::size_t>(e)] = FirstNodeOf(incumbent, e);
    }
    const bool differs = !RowsEqual(incumbent, snap.current_placement(), e);
    const auto it =
        std::lower_bound(changed_rows_.begin(), changed_rows_.end(), e);
    const bool listed = it != changed_rows_.end() && *it == e;
    if (differs && !listed) changed_rows_.insert(it, e);
    if (!differs && listed) changed_rows_.erase(it);
  }
}

std::vector<int> IncumbentIndex::CandidateJobNodes(
    const PlacementMatrix& candidate, const CandidateChange& change) const {
  std::vector<int> nodes = job_nodes_;
  for (const int e : change.rows) {
    if (snapshot_->IsJobEntity(e)) {
      nodes[static_cast<std::size_t>(e)] = FirstNodeOf(candidate, e);
    }
  }
  return nodes;
}

void IncumbentIndex::CandidateDiffRows(const CandidateChange& change,
                                       std::vector<int>& out) const {
  out.clear();
  std::set_union(changed_rows_.begin(), changed_rows_.end(),
                 change.rows.begin(), change.rows.end(),
                 std::back_inserter(out));
}

}  // namespace mwp
