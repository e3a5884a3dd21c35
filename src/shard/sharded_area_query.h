#ifndef VAQ_SHARD_SHARDED_AREA_QUERY_H_
#define VAQ_SHARD_SHARDED_AREA_QUERY_H_

#include "core/area_query.h"
#include "core/dynamic_point_database.h"
#include "engine/query_engine.h"
#include "shard/sharded_database.h"

namespace vaq {

/// Failure policy of one sharded scatter-gather (DESIGN.md §12).
///
/// Defaults preserve the strict contract: no per-leg deadline, no
/// retries, and any leg failure fails the whole query (the gather still
/// drains every in-flight leg first — never a silent partial answer).
struct ShardPolicy {
  /// Per-leg deadline in ms, measured from that leg's dispatch (scatter
  /// submit or inline start); each retry attempt gets a fresh budget.
  /// 0 = none. Legs also inherit the parent query's token: cancelling
  /// the parent aborts every leg at its next block boundary.
  double leg_timeout_ms = 0.0;
  /// Extra attempts for a failed leg, run inline on the gathering thread
  /// after every first-round leg has been drained (retrying while other
  /// legs are still in flight would just contend with them).
  int max_leg_retries = 0;
  /// Degraded partial-result mode: when legs still fail after retries,
  /// return the surviving shards' results instead of throwing, with
  /// `QueryStats::shards_failed` counting the losses and
  /// `QueryStats::degraded` set — the caller explicitly opted into an
  /// answer that may be a subset of the truth, and the flags make that
  /// visible end to end (engine aggregation, experiment JSON). A parent
  /// cancellation/deadline is *not* a shard failure: it aborts the whole
  /// query with `QueryAbortedError` in either mode.
  bool allow_partial = false;
};

/// Runs one scatter-gather area query against an already-pinned
/// cross-shard snapshot. The caller pins (`ShardedDatabase::snapshot()`),
/// so every leg answers the same version of the database whatever
/// mutations run concurrently; a caller that derives other state from the
/// snapshot — the planner keys its result cache on
/// `Snapshot::version()` — executes against the exact version it pinned.
///
///  1. **Prune**: classify each live shard's MBR against the prepared
///     query polygon (`PreparedArea::ClassifyBox`, O(1) per shard); a
///     `kOutside` verdict skips the shard entirely. The MBRs are
///     conservative (exact after compaction, grown by inserts), so a
///     prune is always sound.
///  2. **Scatter** the surviving shards: each runs `method`
///     (`RunDynamicSnapshotQueryUnordered`) against its pinned shard
///     snapshot and remaps its hits to global stable ids, unordered. With
///     a `scatter_engine` the legs run as `QueryEngine::SubmitWith` jobs
///     in parallel — under the blocking IO model the shards overlap their
///     object fetches, which is where the sharded layout's throughput
///     comes from; with a null engine they run sequentially on the
///     caller's context, with the same results and merged counters.
///  3. **Gather**: concatenate the per-shard hits and order them with one
///     `SortIds` over global ids, the only sort of a sharded answer
///     (global id ranges interleave across shards, so a per-leg sort
///     would be wasted; DESIGN.md §15). Merge the per-shard `QueryStats`
///     by summation, which preserves the
///     `candidates == candidate_hits + visited_rejected` invariant.
///     `stats.shards_hit`/`shards_pruned` record the scatter fan-out
///     (they always sum to the shard count); `elapsed_ms` is the
///     end-to-end wall time of the whole scatter-gather, not the sum of
///     the legs.
///
/// `policy` sets the per-leg timeout/retry budget and the partial-result
/// mode (see `ShardPolicy`). `ctx.stats` is reset and filled like any
/// `AreaQuery::Run`.
///
/// **Pool rule**: the scatter engine should be a pool dedicated to shard
/// legs — a sharded query blocks its calling thread until its legs
/// finish, so legs queued behind other sharded queries occupying every
/// worker of the same pool would deadlock. Calling this from a worker of
/// `scatter_engine` anyway (a query registered on the pool it scatters
/// into) is *safe but pointless*: the call detects it
/// (`QueryEngine::OnWorkerThread`) and degrades to inline legs. Fan-out
/// legs are `SubmitWith` tasks, excluded from the scatter engine's
/// client-facing `Stats()`.
std::vector<PointId> RunShardedSnapshotQuery(
    const ShardedDatabase::Snapshot& snap, DynamicMethod method,
    const Polygon& area, QueryContext& ctx, QueryEngine* scatter_engine,
    const ShardPolicy& policy);

}  // namespace vaq

#endif  // VAQ_SHARD_SHARDED_AREA_QUERY_H_
