#ifndef VAQ_CORE_DYNAMIC_AREA_QUERY_H_
#define VAQ_CORE_DYNAMIC_AREA_QUERY_H_

#include "core/area_query.h"
#include "core/dynamic_point_database.h"

namespace vaq {

/// Runs one area query against an already-pinned snapshot: the selected
/// method's unordered core over the base, the delta-refine pass, then one
/// fused ordering pass that skips tombstoned hits, maps the rest to
/// stable ids, merges the delta hits and emits the answer ascending (the
/// base hits are never sorted in base-internal ids; DESIGN.md §15). This
/// is the body of `DynamicAreaQuery::Run` minus the pin, exposed so
/// callers that must hold several snapshots consistent with each other —
/// the planner keys its result cache on the pinned version — can execute
/// against the exact version they pinned instead of whatever is current
/// when the query runs. `ctx.stats` is reset and filled like any
/// `AreaQuery::Run`.
std::vector<PointId> RunDynamicSnapshotQuery(
    const DynamicPointDatabase::Snapshot& snap, DynamicMethod method,
    const Polygon& area, QueryContext& ctx);

/// `RunDynamicSnapshotQuery` without the ordering: the same live stable
/// ids and `ctx.stats`, in no particular order. For callers that order a
/// larger answer once themselves — a sharded leg, whose ids the gather
/// maps to global ids and sorts together with every other leg's.
std::vector<PointId> RunDynamicSnapshotQueryUnordered(
    const DynamicPointDatabase::Snapshot& snap, DynamicMethod method,
    const Polygon& area, QueryContext& ctx);

/// Area query over a `DynamicPointDatabase`: pins the current snapshot,
/// runs the selected base implementation (voronoi / traditional /
/// grid-sweep / brute-force) over the immutable base, then merges a
/// delta-refine pass — the snapshot's SoA delta buffer streamed through
/// the same blocked classification kernel the base methods use — and
/// filters tombstoned base hits. Results are stable ids (see
/// `DynamicPointDatabase`), sorted ascending.
///
/// Stateless like every `AreaQuery`: per-execution scratch lives in the
/// caller's `QueryContext` (the delta pass uses `ScratchDelta`), and the
/// snapshot pin makes `Run` safe against concurrent `Insert`/`Erase`/
/// `Compact` — register instances with a `QueryEngine` and mutate away.
///
/// Stats: `ctx.stats` is the base execution's counters plus the delta
/// pass — delta scans count as `candidates` (and `delta_candidates`) and
/// keep the `candidates == candidate_hits + visited_rejected` invariant,
/// but charge no `geometry_loads` (the delta buffer is memory-resident by
/// design). `candidate_hits` counts geometric hits; `results` can be
/// smaller when tombstones exclude validated base hits.
class DynamicAreaQuery : public AreaQuery {
 public:
  /// `db` must outlive this object.
  DynamicAreaQuery(const DynamicPointDatabase* db, DynamicMethod method)
      : db_(db), method_(method) {}

  using AreaQuery::Run;
  std::vector<PointId> Run(const Polygon& area,
                           QueryContext& ctx) const override;

  std::string_view Name() const override {
    switch (method_) {
      case DynamicMethod::kVoronoi:
        return "dyn-voronoi";
      case DynamicMethod::kTraditional:
        return "dyn-traditional";
      case DynamicMethod::kGridSweep:
        return "dyn-grid-sweep";
      case DynamicMethod::kBruteForce:
        break;
    }
    return "dyn-brute-force";
  }

 private:
  const DynamicPointDatabase* db_;
  DynamicMethod method_;
};

}  // namespace vaq

#endif  // VAQ_CORE_DYNAMIC_AREA_QUERY_H_
