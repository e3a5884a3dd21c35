#include "core/traditional_area_query.h"

#include <algorithm>
#include <chrono>

#include "core/batch_refine.h"
#include "geometry/prepared_area.h"

namespace vaq {

std::vector<PointId> TraditionalAreaQuery::RunUnordered(
    const Polygon& area, QueryContext& ctx) const {
  QueryStats* stats = &ctx.stats;
  stats->Reset();
  const auto t0 = std::chrono::steady_clock::now();
  IndexStats& filter_io = ctx.ScratchIndexStats();

  // Filter: all points inside the MBR of the query area.
  std::vector<PointId>& candidates = ctx.ScratchCandidates();
  db_->rtree().WindowQuery(area.Bounds(), &candidates, &filter_io);

  // The filter ran first, so the exact candidate count sizes the
  // prepared grid: the build cost amortises over this many point tests.
  // `PreparedKernel` also selects the specialised batch classifier
  // (convex half-plane / small-m / grid-residual) for the polygon.
  const PolygonKernel& kernel = ctx.PreparedKernel(area, candidates.size());

  // Refine: the shared batched SoA kernel (see batch_refine.h) streams
  // candidate blocks through the IO boundary and the prepared grid;
  // every survivor is a result. The full candidate list is known up
  // front, so hint the out-of-core page cache once for the whole
  // refine pass (no-op on the in-memory backend).
  db_->PrefetchPoints(candidates.data(), candidates.size());
  std::vector<PointId> result;
  result.reserve(candidates.size());
  ForEachRefinedBlock(
      *db_, kernel, candidates.data(), candidates.size(), stats, ctx.cancel(),
      [&](const PointId* ids, std::size_t m, const double*, const double*,
          const bool* inside) {
        for (std::size_t j = 0; j < m; ++j) {
          if (inside[j]) result.push_back(ids[j]);
        }
      });
  stats->candidates = candidates.size();

  stats->results = result.size();
  stats->candidate_hits = stats->results;
  stats->visited_rejected = stats->candidates - stats->candidate_hits;
  stats->index_node_accesses = filter_io.node_accesses;
  stats->elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  return result;
}

}  // namespace vaq
