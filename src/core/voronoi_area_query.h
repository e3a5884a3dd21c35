#ifndef VAQ_CORE_VORONOI_AREA_QUERY_H_
#define VAQ_CORE_VORONOI_AREA_QUERY_H_

#include "core/area_query.h"
#include "core/point_database.h"

namespace vaq {

/// The paper's contribution (Algorithm 1, Fig. 1b): incremental candidate
/// generation over Voronoi-neighbour links instead of a window query.
///
///   1. seed  := NN(P, any position inside A)   — one index lookup;
///   2. BFS from the seed over Voronoi neighbours:
///        * a candidate inside A joins the result and expands to all its
///          neighbours (paper Property 7: they are internal or boundary
///          points);
///        * a candidate outside A expands only along Delaunay edges that
///          intersect A (paper Property 9 — this is what keeps the flood
///          from leaking into the rest of the MBR).
///
/// Candidates are therefore the internal points plus a thin shell of
/// boundary points — proportional to the boundary length of A rather than
/// to area(MBR(A)) - area(A).
class VoronoiAreaQuery : public MethodAreaQuery {
 public:
  /// How the flood expands out of a candidate that is *outside* A.
  enum class ExpansionRule {
    /// Paper Algorithm 1, line 21: follow edge (p, pn) iff the segment
    /// intersects A. Minimal candidates; can (rarely) miss points beyond
    /// point-free corridors of extremely concave polygons (see DESIGN.md).
    kPaperSegment,
    /// Follow the edge iff the Voronoi cell of `pn` intersects A. Provably
    /// complete for any connected query area (cells tile the plane, so the
    /// cells meeting A form a connected patch of the dual graph), at the
    /// cost of cell-vs-polygon tests. The materialised cells only tile the
    /// diagram's clip box, so when A extends beyond it — a shard of a
    /// partitioned database answering a cross-shard area, or a query
    /// hugging the data boundary — clipped cells are additionally treated
    /// as intersecting A, which restores the plane-tiling argument (see
    /// `VoronoiDiagram::CellWasClipped`). Benchmarked as an ablation; the
    /// sharded layer forces this rule for its legs.
    kCellOverlap,
  };

  struct Options {
    ExpansionRule expansion = ExpansionRule::kPaperSegment;
  };

  /// `db` must outlive this object. Its R-tree provides the seed NN lookup
  /// (the paper also uses an R-tree here, "for fairness").
  explicit VoronoiAreaQuery(const PointDatabase* db)
      : VoronoiAreaQuery(db, Options{}) {}
  VoronoiAreaQuery(const PointDatabase* db, Options options);

  std::vector<PointId> RunUnordered(const Polygon& area,
                                    QueryContext& ctx) const override;
  std::string_view Name() const override {
    return options_.expansion == ExpansionRule::kPaperSegment
               ? "voronoi"
               : "voronoi-cell-overlap";
  }

 private:
  bool CellIntersectsArea(PointId v, const PreparedArea& area) const;

  // Stateless beyond construction-time configuration: the epoch-marked
  // visited set and candidate queue live in the caller's `QueryContext`,
  // so one instance can serve concurrent queries.
  Options options_;
};

}  // namespace vaq

#endif  // VAQ_CORE_VORONOI_AREA_QUERY_H_
