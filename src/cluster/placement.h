// Placement and load matrices (the paper's P and L, §3.2).
//
// Both matrices are dense app-major arrays over a snapshot of M applications
// and N nodes. Cell P[m][n] counts instances of application m on node n;
// cell L[m][n] is the CPU speed (MHz) consumed by those instances. The APC
// rebuilds these snapshots each control cycle, so the matrices are small,
// value-semantic and cheap to copy — the optimizer copies candidate
// placements freely while searching.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace mwp {

namespace internal {

template <typename T>
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(int num_apps, int num_nodes, T fill = T{})
      : num_apps_(num_apps),
        num_nodes_(num_nodes),
        cells_(static_cast<std::size_t>(num_apps) *
                   static_cast<std::size_t>(num_nodes),
               fill) {
    MWP_CHECK(num_apps >= 0 && num_nodes >= 0);
  }

  int num_apps() const { return num_apps_; }
  int num_nodes() const { return num_nodes_; }

  T& at(int app, int node) {
    BoundsCheck(app, node);
    return cells_[static_cast<std::size_t>(app) *
                      static_cast<std::size_t>(num_nodes_) +
                  static_cast<std::size_t>(node)];
  }
  const T& at(int app, int node) const {
    BoundsCheck(app, node);
    return cells_[static_cast<std::size_t>(app) *
                      static_cast<std::size_t>(num_nodes_) +
                  static_cast<std::size_t>(node)];
  }

  /// Direct pointer to one application's row (num_nodes() cells). Bounds-
  /// checks the row once — for hot loops that would otherwise pay a
  /// per-cell check through at().
  const T* RowData(int app) const {
    MWP_CHECK_MSG(app >= 0 && app < num_apps_, "row " << app << " out of "
                                                      << num_apps_);
    return cells_.data() +
           static_cast<std::size_t>(app) * static_cast<std::size_t>(num_nodes_);
  }

  /// Sum over nodes for one application (a row sum).
  T RowSum(int app) const {
    MWP_CHECK_MSG(app >= 0 && app < num_apps_, "row " << app << " out of "
                                                      << num_apps_);
    const std::size_t base =
        static_cast<std::size_t>(app) * static_cast<std::size_t>(num_nodes_);
    T total{};
    for (int n = 0; n < num_nodes_; ++n) {
      total += cells_[base + static_cast<std::size_t>(n)];
    }
    return total;
  }

  /// Sum over applications for one node (a column sum).
  T ColSum(int node) const {
    MWP_CHECK_MSG(node >= 0 && node < num_nodes_, "col " << node << " out of "
                                                         << num_nodes_);
    const auto stride = static_cast<std::size_t>(num_nodes_);
    T total{};
    for (std::size_t i = static_cast<std::size_t>(node); i < cells_.size();
         i += stride) {
      total += cells_[i];
    }
    return total;
  }

  bool operator==(const DenseMatrix&) const = default;

 private:
  void BoundsCheck(int app, int node) const {
    MWP_CHECK_MSG(app >= 0 && app < num_apps_ && node >= 0 && node < num_nodes_,
                  "matrix index (" << app << "," << node << ") out of "
                                   << num_apps_ << "x" << num_nodes_);
  }

  int num_apps_ = 0;
  int num_nodes_ = 0;
  std::vector<T> cells_;
};

}  // namespace internal

/// Instance-count matrix P. Apps and nodes are snapshot-local indices.
class PlacementMatrix : public internal::DenseMatrix<int> {
 public:
  using DenseMatrix::DenseMatrix;

  /// Number of instances of `app` across the cluster.
  int InstanceCount(int app) const { return RowSum(app); }

  /// Number of instances hosted on `node`.
  int InstancesOnNode(int node) const { return ColSum(node); }

  /// True when `app` has at least one instance anywhere.
  bool IsPlaced(int app) const { return InstanceCount(app) > 0; }

  /// Nodes currently hosting `app`, in index order.
  std::vector<int> NodesOf(int app) const;

  std::string ToString() const;
};

/// First node hosting `app`, or kInvalidNode when unplaced. Allocation-free
/// replacement for NodesOf(app).front() on single-instance entities — the
/// evaluator calls this once per job per candidate.
int FirstNodeOf(const PlacementMatrix& p, int app);

/// CPU-load matrix L, MHz per (app, node) cell.
class LoadMatrix : public internal::DenseMatrix<MHz> {
 public:
  using DenseMatrix::DenseMatrix;

  /// Total CPU speed allocated to `app` (the paper's ω_m = Σ_n L[m][n]).
  MHz AppAllocation(int app) const { return RowSum(app); }

  /// Total CPU speed consumed on `node`.
  MHz NodeLoad(int node) const { return ColSum(node); }

  std::string ToString() const;
};

/// One reconfiguration action produced by a placement controller.
struct PlacementChange {
  enum class Kind {
    kStart,    ///< boot a new instance (fresh VM)
    kStop,     ///< destroy an instance (job completed or app shrunk)
    kSuspend,  ///< suspend a job VM, preserving progress
    kResume,   ///< resume a previously suspended job VM
    kMigrate,  ///< move an instance between nodes
  };

  Kind kind;
  int app = kInvalidApp;          ///< snapshot-local app index
  int from_node = kInvalidNode;   ///< source node (kStop/kSuspend/kMigrate)
  int to_node = kInvalidNode;     ///< target node (kStart/kResume/kMigrate)

  bool operator==(const PlacementChange&) const = default;
};

const char* ToString(PlacementChange::Kind kind);

/// Computes the per-app instance additions/removals between two placements
/// over the same snapshot, pairing a removal with an addition of the same app
/// as a migration. The caller classifies non-migration removals as stop vs
/// suspend (that depends on workload state the matrix does not carry), via
/// the two predicates.
std::vector<PlacementChange> DiffPlacements(
    const PlacementMatrix& from, const PlacementMatrix& to,
    const std::vector<bool>& removal_is_suspend,
    const std::vector<bool>& addition_is_resume);

/// As above over the listed `rows` only, in ascending order: the same
/// changes in the same order whenever every row outside `rows` is equal in
/// `from` and `to`.
std::vector<PlacementChange> DiffPlacements(
    const PlacementMatrix& from, const PlacementMatrix& to,
    std::span<const int> rows, const std::vector<bool>& removal_is_suspend,
    const std::vector<bool>& addition_is_resume);

/// Convenience overload: all removals are stops, all additions are starts.
std::vector<PlacementChange> DiffPlacements(const PlacementMatrix& from,
                                            const PlacementMatrix& to);

}  // namespace mwp
