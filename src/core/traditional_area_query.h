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
  /// How the index filter step works.
  enum class Filter {
    /// Paper-faithful: `WindowQuery(MBR(A))`, then refine every candidate.
    /// `stats.candidates` is the MBR population, as in Tables I/II.
    kWindowMBR,
    /// Polygon-aware: `RTree::PolygonQuery` prunes subtrees outside
    /// A and bulk-accepts subtrees inside A during the traversal, so the
    /// filter output *is* the result set (candidates == results) and the
    /// refine step disappears. `stats.bulk_accepted` counts points never
    /// individually validated.
    kPolygonIndex,
  };

  struct Options {
    Filter filter = Filter::kWindowMBR;
  };

  /// `db` must outlive this object; its R-tree is the filter index.
  explicit TraditionalAreaQuery(const PointDatabase* db)
      : TraditionalAreaQuery(db, Options{}) {}
  TraditionalAreaQuery(const PointDatabase* db, Options options)
      : MethodAreaQuery(db), options_(options) {}

  std::vector<PointId> RunUnordered(const Polygon& area,
                                    QueryContext& ctx) const override;
  std::string_view Name() const override {
    return options_.filter == Filter::kWindowMBR ? "traditional"
                                                 : "traditional-polyfilter";
  }

 private:
  Options options_;
};

}  // namespace vaq

#endif  // VAQ_CORE_TRADITIONAL_AREA_QUERY_H_
