#include "core/area_query.h"

#include <chrono>

#include "core/point_database.h"

namespace vaq {

std::vector<PointId> AreaQuery::Run(const Polygon& area,
                                    QueryStats* stats) const {
  static thread_local QueryContext ctx;
  std::vector<PointId> result = Run(area, ctx);
  if (stats != nullptr) *stats = ctx.stats;
  return result;
}

std::vector<PointId> MethodAreaQuery::Run(const Polygon& area,
                                          QueryContext& ctx) const {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<PointId> ids = RunUnordered(area, ctx);
  ctx.SortIds(ids, db_->size());
  ctx.stats.elapsed_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  return ids;
}

}  // namespace vaq
