#ifndef VAQ_CORE_BRUTE_FORCE_AREA_QUERY_H_
#define VAQ_CORE_BRUTE_FORCE_AREA_QUERY_H_

#include "core/area_query.h"
#include "core/point_database.h"

namespace vaq {

/// Index-free linear scan: validates every point in the database. Ground
/// truth for correctness tests and the "no index" row of ablations.
class BruteForceAreaQuery : public MethodAreaQuery {
 public:
  /// `db` must outlive this object.
  explicit BruteForceAreaQuery(const PointDatabase* db)
      : MethodAreaQuery(db) {}

  std::vector<PointId> RunUnordered(const Polygon& area,
                                    QueryContext& ctx) const override;
  std::string_view Name() const override { return "brute-force"; }
};

}  // namespace vaq

#endif  // VAQ_CORE_BRUTE_FORCE_AREA_QUERY_H_
