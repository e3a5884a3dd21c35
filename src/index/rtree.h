#ifndef VAQ_INDEX_RTREE_H_
#define VAQ_INDEX_RTREE_H_

#include <cstdint>
#include <vector>

#include "index/spatial_index.h"

namespace vaq {

/// R-tree over points (Guttman 1984), the index both the paper's methods
/// build on: the traditional area query issues `WindowRuns(MBR(A))` against
/// it, and the Voronoi-based method issues a single `NearestNeighbor` call
/// to find its seed.
///
/// * `Build()` is the one bulk load: Hilbert packing, see below;
/// * dynamic inserts use ChooseLeaf by least area enlargement and the
///   quadratic (or linear) split;
/// * nearest-neighbour search is best-first over MINDIST
///   (Hjaltason & Samet 1999).
class RTree : public SpatialIndex {
 public:
  /// Node-split algorithm used on dynamic-insert overflow (Guttman 1984):
  /// the quadratic split optimises dead area at O(M^2) per split; the
  /// linear split picks extreme seeds per axis and distributes the rest in
  /// one pass. Bulk loads (`Build`) never split. Benchmarked in
  /// bench_ablation_rtree_split.
  enum class SplitStrategy { kQuadratic, kLinear };

  /// `max_entries` is the node capacity M; `min_entries` the underflow
  /// bound m (only used by splits; this library does not implement delete).
  /// Preconditions: `max_entries >= 4`, `2 <= min_entries <= max_entries/2`.
  explicit RTree(int max_entries = 16, int min_entries = 6,
                 SplitStrategy split = SplitStrategy::kQuadratic);

  /// Hilbert-packed bulk load; ids are positions in `points`. Consecutive
  /// runs of `max_entries` points become leaves directly, with no sorting
  /// at any level: one O(n) pass per level. `PointDatabase` stores its
  /// points in Hilbert-curve order, where curve runs are spatially compact,
  /// so the leaves come out tight. Input order affects only how tight the
  /// MBRs are, never the result of any query.
  void Build(const std::vector<Point>& points) override;
  std::size_t size() const override { return count_; }
  /// `WindowRuns` with no runs and a stack of its own.
  void WindowQuery(const Box& window, std::vector<PointId>* out,
                   IndexStats* stats = nullptr) const override;

  /// The points of one leaf that a window traversal reported: ids
  /// `(*out)[begin, end)`, all of which lie in `box`, the leaf's MBR
  /// clipped to the window.
  struct LeafRun {
    std::uint32_t begin;
    std::uint32_t end;
    Box box;
  };

  /// The window traversal: appends the ids of all points inside `window`
  /// (borders inclusive) to `out`, leaf by leaf, and, when `runs` is
  /// non-null, one `LeafRun` per leaf that reported at least one point.
  /// The runs tile the appended range in order. `stack` is the caller's
  /// traversal scratch (cleared on entry), so a caller that keeps it
  /// allocates nothing per call.
  void WindowRuns(const Box& window, std::vector<PointId>* out,
                  std::vector<LeafRun>* runs, std::vector<std::int32_t>* stack,
                  IndexStats* stats = nullptr) const;
  PointId NearestNeighbor(const Point& q,
                          IndexStats* stats = nullptr) const override;
  void KNearestNeighbors(const Point& q, std::size_t k,
                         std::vector<PointId>* out,
                         IndexStats* stats = nullptr) const override;
  std::string_view Name() const override { return "rtree"; }

  /// Dynamic insert (Guttman). Usable to grow a bulk-loaded tree.
  void Insert(const Point& p, PointId id);

  /// Height of the tree (1 = root is a leaf); 0 when empty.
  int Height() const;

  /// Validates structural invariants (bounds containment, entry counts);
  /// used by tests. Returns false and leaves a message in `*why` on failure.
  bool CheckInvariants(std::string* why) const;

 private:
  struct Entry {
    Box box;        // Degenerate box of the point for leaves; child MBR
                    // for internal nodes.
    std::int32_t id;  // PointId for leaves; child node index otherwise.
  };
  struct Node {
    Box bounds;
    bool leaf = true;
    std::vector<Entry> entries;
  };

  std::int32_t NewNode(bool leaf);
  void RecomputeBounds(std::int32_t node_id);
  std::int32_t ChooseLeaf(std::int32_t node_id, const Box& box,
                          std::vector<std::int32_t>* path) const;
  /// Splits `node_id` (which overflowed) in place; returns the new sibling.
  std::int32_t SplitNode(std::int32_t node_id);
  /// PickSeeds variants: fill `*seed_a`/`*seed_b` with the two seed
  /// positions within `entries`.
  void PickSeedsQuadratic(const std::vector<Entry>& entries,
                          std::size_t* seed_a, std::size_t* seed_b) const;
  void PickSeedsLinear(const std::vector<Entry>& entries, std::size_t* seed_a,
                       std::size_t* seed_b) const;
  void InsertEntry(const Entry& entry);

  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
  std::size_t count_ = 0;
  int max_entries_;
  int min_entries_;
  SplitStrategy split_;
};

}  // namespace vaq

#endif  // VAQ_INDEX_RTREE_H_
