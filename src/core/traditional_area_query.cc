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

  // Filter: all points inside the MBR of the query area, reported leaf by
  // leaf.
  std::vector<PointId>& candidates = ctx.ScratchCandidates();
  std::vector<RTree::LeafRun>& runs = ctx.ScratchLeafRuns();
  db_->rtree().WindowRuns(area.Bounds(), &candidates, &runs,
                          &ctx.ScratchNodeStack(), &filter_io);

  // The filter ran first, so the exact candidate count sizes the
  // prepared grid: the build cost amortises over this many point tests.
  // `PreparedKernel` also selects the specialised batch classifier
  // (convex half-plane / small-m / grid-residual) for the polygon.
  const PolygonKernel& kernel = ctx.PreparedKernel(area, candidates.size());
  const PreparedArea& prep = kernel.prep();

  // Settle whole leaves: a run whose clipped leaf box the prepared grid
  // classifies inside is all answer, one classified outside is none of
  // it. Only straddling runs are compacted, in place, to the front of the
  // candidate vector for the per-point refine. Settled points are
  // charged as fetched, so the paper's counters stay those of a refine
  // over every candidate, but they touch no page.
  std::vector<PointId> result;
  result.reserve(candidates.size());
  std::size_t straddling = 0;
  for (const RTree::LeafRun& run : runs) {
    const auto first = candidates.begin() + run.begin;
    const auto last = candidates.begin() + run.end;
    switch (prep.ClassifyBox(run.box)) {
      case PreparedArea::Region::kInside:
        result.insert(result.end(), first, last);
        break;
      case PreparedArea::Region::kOutside:
        break;
      case PreparedArea::Region::kStraddling:
        std::copy(first, last, candidates.begin() + straddling);
        straddling += run.end - run.begin;
        break;
    }
  }
  db_->ChargeFetches(candidates.size() - straddling, stats);
  if (!candidates.empty()) stats->kernel_kind |= kernel.stats_mask();

  // Refine: the shared batched SoA kernel (see batch_refine.h) streams
  // the straddling blocks through the IO boundary and the prepared grid;
  // every survivor is a result. The straddling list is known up front,
  // so hint the out-of-core page cache once for the whole refine pass
  // (no-op on the in-memory backend).
  db_->PrefetchPoints(candidates.data(), straddling);
  ForEachRefinedBlock(
      *db_, kernel, candidates.data(), straddling, stats, ctx.cancel(),
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
