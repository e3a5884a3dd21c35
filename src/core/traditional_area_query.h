#ifndef VAQ_CORE_TRADITIONAL_AREA_QUERY_H_
#define VAQ_CORE_TRADITIONAL_AREA_QUERY_H_

#include "core/area_query.h"
#include "core/point_database.h"

namespace vaq {

/// The classical filter-refine area query the paper compares against
/// (Fig. 1a): window-query the database's R-tree with MBR(A) to get the
/// candidate set, then refine each candidate with a point-in-polygon test.
///
/// The refine step works leaf by leaf against the `PreparedArea` built for
/// the query polygon: each R-tree leaf the filter met is settled whole when
/// its MBR (clipped to the window) classifies inside or outside, and only
/// the points of straddling leaves are fetched and run through the batched
/// SoA kernel (O(1) per point away from the boundary, an exact but locally
/// pruned edge test in boundary cells). Results are identical to naive
/// per-candidate `Polygon::Contains` validation, and the stats count every
/// candidate as validated and fetched, as that validation would (DESIGN.md
/// §7).
class TraditionalAreaQuery : public MethodAreaQuery {
 public:
  /// `db` must outlive this object; its R-tree is the filter index.
  explicit TraditionalAreaQuery(const PointDatabase* db)
      : MethodAreaQuery(db) {}

  std::vector<PointId> RunUnordered(const Polygon& area,
                                    QueryContext& ctx) const override;
  std::string_view Name() const override { return "traditional"; }
};

}  // namespace vaq

#endif  // VAQ_CORE_TRADITIONAL_AREA_QUERY_H_
