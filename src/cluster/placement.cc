#include "cluster/placement.h"

#include <algorithm>
#include <sstream>

namespace mwp {

std::vector<int> PlacementMatrix::NodesOf(int app) const {
  std::vector<int> nodes;
  for (int n = 0; n < num_nodes(); ++n) {
    if (at(app, n) > 0) nodes.push_back(n);
  }
  return nodes;
}

int FirstNodeOf(const PlacementMatrix& p, int app) {
  const int* row = p.RowData(app);
  for (int n = 0; n < p.num_nodes(); ++n) {
    if (row[n] > 0) return n;
  }
  return kInvalidNode;
}

std::string PlacementMatrix::ToString() const {
  std::ostringstream os;
  for (int m = 0; m < num_apps(); ++m) {
    os << "app " << m << ":";
    for (int n = 0; n < num_nodes(); ++n) os << ' ' << at(m, n);
    os << '\n';
  }
  return os.str();
}

std::string LoadMatrix::ToString() const {
  std::ostringstream os;
  for (int m = 0; m < num_apps(); ++m) {
    os << "app " << m << ":";
    for (int n = 0; n < num_nodes(); ++n) os << ' ' << at(m, n);
    os << '\n';
  }
  return os.str();
}

const char* ToString(PlacementChange::Kind kind) {
  switch (kind) {
    case PlacementChange::Kind::kStart:
      return "start";
    case PlacementChange::Kind::kStop:
      return "stop";
    case PlacementChange::Kind::kSuspend:
      return "suspend";
    case PlacementChange::Kind::kResume:
      return "resume";
    case PlacementChange::Kind::kMigrate:
      return "migrate";
  }
  return "?";
}

namespace {

/// Appends row `m`'s changes between the placements, if the row differs.
/// Per-node deltas are paired into migrations first: a removal on one node
/// with a matching addition on another is one live migration, not a stop +
/// start.
void AppendRowChanges(const PlacementMatrix& from, const PlacementMatrix& to,
                      int m, const std::vector<bool>& removal_is_suspend,
                      const std::vector<bool>& addition_is_resume,
                      std::vector<int>& removed_nodes,
                      std::vector<int>& added_nodes,
                      std::vector<PlacementChange>& changes) {
  const int* from_row = from.RowData(m);
  const int* to_row = to.RowData(m);
  if (std::equal(from_row, from_row + from.num_nodes(), to_row)) return;
  removed_nodes.clear();
  added_nodes.clear();
  for (int n = 0; n < from.num_nodes(); ++n) {
    int delta = to_row[n] - from_row[n];
    for (; delta < 0; ++delta) removed_nodes.push_back(n);
    for (; delta > 0; --delta) added_nodes.push_back(n);
  }
  std::size_t pairs = std::min(removed_nodes.size(), added_nodes.size());
  for (std::size_t i = 0; i < pairs; ++i) {
    changes.push_back(PlacementChange{PlacementChange::Kind::kMigrate, m,
                                      removed_nodes[i], added_nodes[i]});
  }
  for (std::size_t i = pairs; i < removed_nodes.size(); ++i) {
    changes.push_back(PlacementChange{
        removal_is_suspend[static_cast<std::size_t>(m)]
            ? PlacementChange::Kind::kSuspend
            : PlacementChange::Kind::kStop,
        m, removed_nodes[i], kInvalidNode});
  }
  for (std::size_t i = pairs; i < added_nodes.size(); ++i) {
    changes.push_back(PlacementChange{
        addition_is_resume[static_cast<std::size_t>(m)]
            ? PlacementChange::Kind::kResume
            : PlacementChange::Kind::kStart,
        m, kInvalidNode, added_nodes[i]});
  }
}

void CheckDiffShapes(const PlacementMatrix& from, const PlacementMatrix& to,
                     const std::vector<bool>& removal_is_suspend,
                     const std::vector<bool>& addition_is_resume) {
  MWP_CHECK(from.num_apps() == to.num_apps());
  MWP_CHECK(from.num_nodes() == to.num_nodes());
  MWP_CHECK(static_cast<int>(removal_is_suspend.size()) == from.num_apps());
  MWP_CHECK(static_cast<int>(addition_is_resume.size()) == from.num_apps());
}

}  // namespace

std::vector<PlacementChange> DiffPlacements(
    const PlacementMatrix& from, const PlacementMatrix& to,
    const std::vector<bool>& removal_is_suspend,
    const std::vector<bool>& addition_is_resume) {
  CheckDiffShapes(from, to, removal_is_suspend, addition_is_resume);
  std::vector<PlacementChange> changes;
  std::vector<int> removed_nodes;
  std::vector<int> added_nodes;
  for (int m = 0; m < from.num_apps(); ++m) {
    AppendRowChanges(from, to, m, removal_is_suspend, addition_is_resume,
                     removed_nodes, added_nodes, changes);
  }
  return changes;
}

std::vector<PlacementChange> DiffPlacements(
    const PlacementMatrix& from, const PlacementMatrix& to,
    std::span<const int> rows, const std::vector<bool>& removal_is_suspend,
    const std::vector<bool>& addition_is_resume) {
  CheckDiffShapes(from, to, removal_is_suspend, addition_is_resume);
  std::vector<PlacementChange> changes;
  std::vector<int> removed_nodes;
  std::vector<int> added_nodes;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    MWP_DCHECK(i == 0 || rows[i - 1] < rows[i]);
    AppendRowChanges(from, to, rows[i], removal_is_suspend,
                     addition_is_resume, removed_nodes, added_nodes, changes);
  }
  return changes;
}

std::vector<PlacementChange> DiffPlacements(const PlacementMatrix& from,
                                            const PlacementMatrix& to) {
  std::vector<bool> flags(static_cast<std::size_t>(from.num_apps()), false);
  return DiffPlacements(from, to, flags, flags);
}

}  // namespace mwp
