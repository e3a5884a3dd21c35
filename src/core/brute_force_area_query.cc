#include "core/brute_force_area_query.h"

#include <chrono>

namespace vaq {

std::vector<PointId> BruteForceAreaQuery::RunUnordered(
    const Polygon& area, QueryContext& ctx) const {
  QueryStats* stats = &ctx.stats;
  stats->Reset();
  const auto t0 = std::chrono::steady_clock::now();
  // Deliberately *not* accelerated with a PreparedArea: this scan is the
  // ground truth every equivalence test and mismatch counter compares the
  // other methods against, so it must stay independent of the structure
  // those methods validate through — a shared PreparedArea bug would
  // otherwise fail every method identically and go unseen.
  std::vector<PointId> result;
  const std::size_t n = db_->size();
  const CancelToken* cancel = ctx.cancel();
  for (PointId id = 0; id < n; ++id) {
    // The oracle scan has no refine blocks, so it polls the cancel token
    // itself at the same granularity the shared kernel does (O(block)
    // abort bound; a pointer test per stride when no token is set).
    if ((id & 255u) == 0 && cancel != nullptr) cancel->Check();
    const Point p = db_->FetchPoint(id, stats);
    if (area.Contains(p)) result.push_back(id);
  }
  stats->candidates = n;
  stats->results = result.size();
  stats->candidate_hits = stats->results;
  stats->visited_rejected = stats->candidates - stats->candidate_hits;
  stats->elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  return result;
}

}  // namespace vaq
