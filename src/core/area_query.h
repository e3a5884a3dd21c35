#ifndef VAQ_CORE_AREA_QUERY_H_
#define VAQ_CORE_AREA_QUERY_H_

#include <string_view>
#include <vector>

#include "core/query_context.h"
#include "core/query_stats.h"
#include "geometry/polygon.h"
#include "index/spatial_index.h"

namespace vaq {

class PointDatabase;

/// Interface of an area-query implementation: given a simple query polygon
/// `area`, return the ids of every database point contained in it.
///
/// Implementations are stateless: all per-execution scratch (visited set,
/// candidate queues, stats) lives in the caller-provided `QueryContext`, so
/// one query object can serve any number of threads concurrently as long as
/// each thread brings its own context (the `QueryEngine` does exactly
/// that).
///
/// Implementations:
///  * `TraditionalAreaQuery` — filter (R-tree window query on MBR(A)) +
///                             refine;
///  * `VoronoiAreaQuery`     — the paper's incremental candidate generation
///                             over the Voronoi/Delaunay graph (Algorithm 1),
///                             seeded by one R-tree nearest-neighbour
///                             lookup, in both expansion-rule modes;
///  * `GridSweepAreaQuery`   — raster filter baseline;
///  * `BruteForceAreaQuery`  — linear scan, ground truth for tests;
///  * `PlannedAreaQuery`     — the served entry point: pins a snapshot of
///                             any backend (immutable, dynamic, sharded)
///                             and runs the method its cost model picks,
///                             or the one `PlanHints::force_method` names.
///
/// Both index-backed methods always read the database's own Hilbert-packed
/// `RTree`; no other index can be injected.
class AreaQuery {
 public:
  virtual ~AreaQuery() = default;

  /// Executes the query using `ctx` for all mutable scratch. The returned
  /// ids are sorted ascending (so result sets compare directly across
  /// implementations). `ctx.stats` is reset and filled with this
  /// execution's counters.
  virtual std::vector<PointId> Run(const Polygon& area,
                                   QueryContext& ctx) const = 0;

  /// Single-threaded convenience wrapper: runs against a per-thread
  /// context owned by the library. If `stats` is non-null it receives the
  /// execution's counters. Safe to call from several threads at once (each
  /// gets its own context), but reuses no scratch across query objects in
  /// different translation units — engines should prefer the explicit
  /// context overload.
  std::vector<PointId> Run(const Polygon& area,
                           QueryStats* stats = nullptr) const;

  /// Answers `area` without executing anything when the answer is already
  /// known (a result-cache hit): fills `ids` and `stats` and returns true.
  /// Returns false, touching neither, when the query has to run. Cheap
  /// enough for `QueryEngine::Submit` to call on the submitting thread
  /// before it enqueues. The default knows no answers; only the planned
  /// query, which owns a result cache, overrides it.
  virtual bool TryServeCached(const Polygon& /*area*/,
                              const PlanHints& /*hints*/,
                              std::vector<PointId>& /*ids*/,
                              QueryStats& /*stats*/) const {
    return false;
  }

  /// Implementation name for benchmark tables.
  virtual std::string_view Name() const = 0;
};

/// One of the four fixed methods over one immutable `PointDatabase`
/// (traditional, voronoi, grid-sweep, brute force). Each implements only
/// its unordered core; `Run` is that core plus one `SortIds`, so direct
/// callers still get ascending ids. Composite queries (the dynamic and
/// sharded paths) call the core instead and order the answer once, in
/// the id space their own caller sees (DESIGN.md §15).
class MethodAreaQuery : public AreaQuery {
 public:
  /// The method's core: resets and fills `ctx.stats` exactly like `Run`
  /// and returns the hits as ids of the database, in no particular order.
  virtual std::vector<PointId> RunUnordered(const Polygon& area,
                                            QueryContext& ctx) const = 0;

  using AreaQuery::Run;
  /// `RunUnordered` plus `SortIds`; `ctx.stats.elapsed_ms` covers both.
  std::vector<PointId> Run(const Polygon& area,
                           QueryContext& ctx) const final;

 protected:
  /// `db` must outlive this object.
  explicit MethodAreaQuery(const PointDatabase* db) : db_(db) {}

  const PointDatabase* db_;
};

}  // namespace vaq

#endif  // VAQ_CORE_AREA_QUERY_H_
