#ifndef VAQ_CORE_TRADITIONAL_AREA_QUERY_H_
#define VAQ_CORE_TRADITIONAL_AREA_QUERY_H_

#include "core/area_query.h"
#include "core/point_database.h"

namespace vaq {

/// The classical filter-refine area query the paper compares against
/// (Fig. 1a): window-query the database's R-tree with MBR(A) to get the
/// candidate set, then refine each candidate with a point-in-polygon test.
///
/// The refine step runs a batched SoA kernel over the `PreparedArea` built
/// for the query polygon: candidate coordinates are classified in blocks
/// against the prepared grid (O(1) per point away from the boundary), and
/// only points landing in boundary cells pay an exact — but locally
/// pruned — edge test. Results are identical to naive per-candidate
/// `Polygon::Contains` validation, at a fraction of the cost.
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
