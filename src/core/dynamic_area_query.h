#ifndef VAQ_CORE_DYNAMIC_AREA_QUERY_H_
#define VAQ_CORE_DYNAMIC_AREA_QUERY_H_

#include "core/area_query.h"
#include "core/dynamic_point_database.h"

namespace vaq {

/// Runs one area query over a `DynamicPointDatabase` against an
/// already-pinned snapshot (`DynamicPointDatabase::snapshot()`): the
/// selected method's unordered core over the immutable base, a
/// delta-refine pass — the snapshot's SoA delta buffer streamed through
/// the same blocked classification kernel the base methods use — and one
/// fused ordering pass that skips tombstoned hits, maps the rest to
/// stable ids, merges the delta hits and emits the answer ascending (the
/// base hits are never sorted in base-internal ids; DESIGN.md §15).
/// Results are stable ids (see `DynamicPointDatabase`).
///
/// The pin is the caller's: the execution reads that snapshot only, so it
/// is immune to concurrent `Insert`/`Erase`/`Compact`, and callers that
/// derive other state from the snapshot — the planner keys its result
/// cache on the pinned version — execute against the exact version they
/// pinned. Whole-database callers go through `DynamicPointDatabase::Query`
/// (`PlanHints::force_method` fixes the method). Per-execution scratch
/// lives in `ctx` (the delta pass uses `ScratchDelta`).
///
/// Stats: `ctx.stats` is reset and filled with the base execution's
/// counters plus the delta pass — delta scans count as `candidates` (and
/// `delta_candidates`) and keep the
/// `candidates == candidate_hits + visited_rejected` invariant, but
/// charge no `geometry_loads` (the delta buffer is memory-resident by
/// design). `candidate_hits` counts geometric hits; `results` can be
/// smaller when tombstones exclude validated base hits.
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

}  // namespace vaq

#endif  // VAQ_CORE_DYNAMIC_AREA_QUERY_H_
