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
/// cross-shard snapshot: MBR prune, scatter (parallel legs through
/// `scatter_engine`, or sequential inline legs when it is null or the
/// caller is itself a worker of that pool), gather + merge + sort. This
/// is the body of `ShardedAreaQuery::Run` minus the pin, exposed for the
/// same reason as `RunDynamicSnapshotQuery`: a caller that derives other
/// state from the snapshot — the planner keys its result cache on
/// `Snapshot::version()` — must execute against the exact version it
/// pinned, not whatever is current when the query runs.
/// `ctx.stats` is reset and filled like any `AreaQuery::Run`.
std::vector<PointId> RunShardedSnapshotQuery(
    const ShardedDatabase::Snapshot& snap, DynamicMethod method,
    const Polygon& area, QueryContext& ctx, QueryEngine* scatter_engine,
    const ShardPolicy& policy);

/// Scatter-gather area query over a `ShardedDatabase`:
///
///  1. **Pin** one cross-shard snapshot, so every sub-query answers the
///     same version of the database whatever mutations run concurrently.
///  2. **Prune**: classify each live shard's MBR against the prepared
///     query polygon (`PreparedArea::ClassifyBox`, O(1) per shard); a
///     `kOutside` verdict skips the shard entirely. The MBRs are
///     conservative (exact after compaction, grown by inserts), so a
///     prune is always sound.
///  3. **Scatter** the surviving shards: each runs the selected method
///     (`RunDynamicSnapshotQueryUnordered`) against its pinned shard
///     snapshot and remaps its hits to global stable ids, unordered. With
///     a scatter engine the legs run as `QueryEngine::SubmitWith` jobs in
///     parallel — under the blocking IO model the shards overlap their
///     object fetches, which is where the sharded layout's throughput
///     comes from; without one they run sequentially on the caller's
///     context.
///  4. **Gather**: concatenate the per-shard hits and order them with one
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
/// Stateless and engine-registrable like every `AreaQuery`. **Pool
/// rule**: the scatter engine should be a pool dedicated to shard legs —
/// a sharded query blocks its calling thread until its legs finish, so
/// legs queued behind other sharded queries occupying every worker of
/// the same pool would deadlock. Registering this query with its own
/// scatter engine anyway is *safe but pointless*: `Run` detects that it
/// is executing on a worker of the scatter pool and degrades to inline
/// legs (`QueryEngine::OnWorkerThread`). (Fan-out legs are `SubmitWith`
/// tasks, excluded from the scatter engine's client-facing `Stats()`.)
class ShardedAreaQuery : public AreaQuery {
 public:
  /// `db` (and `scatter_engine`, if given) must outlive this object.
  /// A null `scatter_engine` runs surviving shards sequentially inline —
  /// same results and merged counters, no intra-query parallelism.
  /// `policy` sets the per-leg timeout/retry budget and the partial-result
  /// mode; the default is strict (see `ShardPolicy`).
  ShardedAreaQuery(const ShardedDatabase* db, DynamicMethod method,
                   QueryEngine* scatter_engine = nullptr,
                   ShardPolicy policy = {})
      : db_(db),
        method_(method),
        scatter_engine_(scatter_engine),
        policy_(policy) {}

  const ShardPolicy& policy() const { return policy_; }

  using AreaQuery::Run;
  std::vector<PointId> Run(const Polygon& area,
                           QueryContext& ctx) const override;

  std::string_view Name() const override {
    switch (method_) {
      case DynamicMethod::kVoronoi:
        return "sharded-voronoi";
      case DynamicMethod::kTraditional:
        return "sharded-traditional";
      case DynamicMethod::kGridSweep:
        return "sharded-grid-sweep";
      case DynamicMethod::kBruteForce:
        break;
    }
    return "sharded-brute-force";
  }

 private:
  const ShardedDatabase* db_;
  DynamicMethod method_;
  QueryEngine* scatter_engine_;
  ShardPolicy policy_;
};

}  // namespace vaq

#endif  // VAQ_SHARD_SHARDED_AREA_QUERY_H_
