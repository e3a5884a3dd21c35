#ifndef VAQ_CORE_GRID_SWEEP_AREA_QUERY_H_
#define VAQ_CORE_GRID_SWEEP_AREA_QUERY_H_

#include <vector>

#include "core/area_query.h"
#include "core/point_database.h"

namespace vaq {

/// A third area-query strategy, the classic raster refinement of GIS
/// engines: rasterise the query polygon onto a uniform grid over the data
/// and classify each cell of the polygon's MBR:
///   * cell fully inside A  -> accept every point wholesale (no
///     per-point validation at all);
///   * cell crossing the boundary of A -> validate each point;
///   * cell outside A -> skip.
/// Like the paper's Voronoi method, its validation count is proportional
/// to the boundary length of A rather than to area(MBR) - area(A), but it
/// pays cell-classification geometry (polygon-vs-box tests) instead of
/// graph traversal, and it needs its own raster structure. Included as a
/// strong extra baseline in the ablation benches.
class GridSweepAreaQuery : public MethodAreaQuery {
 public:
  /// Builds the raster over `db`'s points with ~`target_bucket_size`
  /// points per cell. `db` must outlive this object.
  explicit GridSweepAreaQuery(const PointDatabase* db,
                              int target_bucket_size = 8);

  std::vector<PointId> RunUnordered(const Polygon& area,
                                    QueryContext& ctx) const override;
  std::string_view Name() const override { return "grid-sweep"; }

  int grid_side() const { return side_; }

 private:
  Box CellBox(int cx, int cy) const;

  std::vector<std::vector<PointId>> cells_;
  Box world_;
  int side_ = 1;
  double cell_w_ = 1.0;
  double cell_h_ = 1.0;
};

}  // namespace vaq

#endif  // VAQ_CORE_GRID_SWEEP_AREA_QUERY_H_
