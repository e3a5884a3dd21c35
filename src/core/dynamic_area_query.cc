#include "core/dynamic_area_query.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "core/batch_refine.h"
#include "geometry/prepared_area.h"

namespace vaq {

namespace {

/// The base method's unordered core plus the delta-refine pass, with
/// `ctx.stats` filled for both. Returns the base hits as base-internal
/// ids in no particular order, tombstoned ones included; the delta hits,
/// already stable ids, land in `delta_hits`.
std::vector<PointId> BaseAndDeltaHits(
    const DynamicPointDatabase::Snapshot& snap, DynamicMethod method,
    const Polygon& area, QueryContext& ctx,
    std::vector<PointId>& delta_hits) {
  // Base pass: the wrapped implementation resets and fills ctx.stats.
  std::vector<PointId> result =
      snap.BaseQuery(method).RunUnordered(area, ctx);

  // Delta-refine pass: stream the snapshot's SoA delta buffer through the
  // blocked classification kernel. No object IO — the buffer is the
  // memtable — but the scans are candidates like any other.
  const std::size_t dn = snap.delta_size();
  if (dn > 0) {
    if (method == DynamicMethod::kBruteForce) {
      // The brute-force wrapper stays PreparedArea-independent on the
      // delta too (see BruteForceAreaQuery): it is the ground truth the
      // cross-method checks compare against, so a shared PreparedArea
      // bug must not fail all four dynamic methods identically. The
      // exact scan is fine — the delta is threshold-bounded.
      snap.ForEachDeltaRun([&](std::size_t run_offset, const double* xs,
                                const double* ys, std::size_t n) {
        for (std::size_t j = 0; j < n; ++j) {
          if (area.Contains({xs[j], ys[j]})) {
            delta_hits.push_back(snap.DeltaStableId(run_offset + j));
          }
        }
      });
    } else {
      // `PreparedKernel` is memoized on the polygon, so when the base pass
      // already built the (larger, base-sized) grid for this area this
      // returns its kernel unchanged; only paths where the base never
      // prepared — e.g. the voronoi flood's empty-base early return — pay
      // a fresh delta-sized build.
      const PolygonKernel& kernel = ctx.PreparedKernel(area, dn);
      ctx.stats.kernel_kind |= kernel.stats_mask();
      snap.ForEachDeltaRun([&](std::size_t run_offset, const double* xs,
                                const double* ys, std::size_t n) {
        ForEachClassifiedBlock(
            kernel, xs, ys, n,
            [&](std::size_t offset, std::size_t m, const bool* inside) {
              for (std::size_t j = 0; j < m; ++j) {
                if (inside[j]) {
                  delta_hits.push_back(
                      snap.DeltaStableId(run_offset + offset + j));
                }
              }
            });
      });
    }
    ctx.stats.delta_candidates = dn;
    ctx.stats.candidates += dn;
    ctx.stats.candidate_hits += delta_hits.size();
    ctx.stats.visited_rejected += dn - delta_hits.size();
  }
  return result;
}

/// Turns `BaseAndDeltaHits`' output into the unordered answer, in place:
/// drops tombstoned base hits, maps the rest to stable ids and appends the
/// delta hits. A tombstoned hit stays a validated candidate (it was
/// fetched and passed the geometry test) — it just is not a result.
void ToLiveStableIds(const DynamicPointDatabase::Snapshot& snap,
                     std::vector<PointId>& ids,
                     const std::vector<PointId>& delta_hits) {
  std::size_t live = 0;
  for (const PointId id : ids) {
    if (!snap.IsTombstoned(id)) ids[live++] = snap.StableId(id);
  }
  ids.resize(live);
  ids.insert(ids.end(), delta_hits.begin(), delta_hits.end());
}

void Finish(std::size_t results, std::chrono::steady_clock::time_point t0,
            QueryStats& stats) {
  stats.results = results;
  stats.elapsed_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
}

}  // namespace

std::vector<PointId> RunDynamicSnapshotQuery(
    const DynamicPointDatabase::Snapshot& snap, DynamicMethod method,
    const Polygon& area, QueryContext& ctx) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<PointId>& delta_hits = ctx.ScratchDelta();
  std::vector<PointId> result =
      BaseAndDeltaHits(snap, method, area, ctx, delta_hits);

  // The one ordering pass, in the stable ids the caller sees. Bitmap:
  // tombstone skip, stable-id remap and delta merge all write straight
  // into the bitmap, which emits the answer ascending into the base hits'
  // own storage. Comparison sort (small answers): remap in place, append
  // the delta, sort once. `bound` counts tombstoned hits too; they are
  // few, and the rule only has to pick the cheaper side.
  const PointId limit = snap.stable_limit();
  const std::size_t bound = result.size() + delta_hits.size();
  if (QueryContext::UseBitmapOrder(bound, limit)) {
    const QueryContext::OrderBitmap order = ctx.BeginOrder(limit);
    for (const PointId id : result) {
      if (!snap.IsTombstoned(id)) order.Mark(snap.StableId(id));
    }
    for (const PointId id : delta_hits) order.Mark(id);
    result.resize(bound);
    result.resize(ctx.EmitOrdered(result.data()));
  } else {
    ToLiveStableIds(snap, result, delta_hits);
    std::sort(result.begin(), result.end());
  }
  Finish(result.size(), t0, ctx.stats);
  return result;
}

std::vector<PointId> RunDynamicSnapshotQueryUnordered(
    const DynamicPointDatabase::Snapshot& snap, DynamicMethod method,
    const Polygon& area, QueryContext& ctx) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<PointId>& delta_hits = ctx.ScratchDelta();
  std::vector<PointId> result =
      BaseAndDeltaHits(snap, method, area, ctx, delta_hits);
  ToLiveStableIds(snap, result, delta_hits);
  Finish(result.size(), t0, ctx.stats);
  return result;
}

}  // namespace vaq
