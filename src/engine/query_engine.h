#ifndef VAQ_ENGINE_QUERY_ENGINE_H_
#define VAQ_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/area_query.h"
#include "core/cancel.h"
#include "core/query_context.h"
#include "engine/bounded_queue.h"
#include "engine/errors.h"
#include "geometry/polygon.h"
#include "planner/query_plan.h"

namespace vaq {

struct EngineOptions {
  /// Worker thread count; 0 means `std::thread::hardware_concurrency()`.
  int num_threads = 0;
  /// Bound of the MPMC work queue; `Submit` blocks (backpressure) when the
  /// queue is full.
  std::size_t queue_capacity = 1024;
  /// Admission control: when true, a `Submit` against a full queue throws
  /// `EngineOverloadedError` instead of blocking — the engine sheds load
  /// so a saturating client observes a typed overload signal rather than
  /// unbounded latency. Off by default (blocking backpressure, the batch
  /// benches' behaviour).
  bool shed_on_full = false;
};

/// Per-submission controls (deadline / cancellation); default = none.
struct SubmitOptions {
  /// Abort the query once this many ms have elapsed *from submission*
  /// (queue wait included — a queued query past its deadline fails fast
  /// without running). 0 = no deadline.
  double deadline_ms = 0.0;
  /// External cancellation handle: the caller keeps a reference and may
  /// `Cancel()` it anytime; the query observes it at its next block
  /// boundary. Created internally when only a deadline is requested.
  std::shared_ptr<CancelToken> cancel;
  /// Planner hints of this submission (forced method, cache/scatter
  /// opt-outs). The worker installs them on its `QueryContext` around the
  /// task — like the cancel token — so a registered `PlannedAreaQuery`
  /// picks them up through the hint-less `AreaQuery::Run` interface.
  /// Ignored by the fixed-method query objects. Defaults = automatic.
  PlanHints hints{};
};

/// Outcome of one engine-executed query.
struct QueryResult {
  std::vector<PointId> ids;
  QueryStats stats;
};

/// Aggregated counters for one registered query method. The per-query
/// `QueryStats` records merge via `QueryStats::MergeFrom` — the same
/// merge the sharded gather uses — so every stats field (including ones
/// added later) aggregates here without a hand-written summation to keep
/// in sync. `totals.elapsed_ms` is the summed per-query execution time;
/// the mask fields (`kernel_kind`, `degraded`, `plan_method`,
/// `plan_reason`) OR across queries.
struct MethodEngineStats {
  std::string name;
  std::uint64_t queries = 0;
  /// Queries that completed degraded (partial results after leg failure).
  /// Counted per *query*, unlike `totals.degraded` which is the OR'd
  /// flag — an engine window needs "how many", not "whether any".
  std::uint64_t degraded_queries = 0;
  /// Merged per-query stats of every completed query of this method.
  QueryStats totals;
};

/// Snapshot of engine-level statistics since construction or the last
/// `ResetStats()`.
struct EngineStats {
  std::uint64_t queries_completed = 0;
  double wall_ms = 0.0;
  double throughput_qps = 0.0;
  /// End-to-end latency (submission to completion, including queue wait),
  /// nearest-rank percentiles over all completed queries in the window.
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  /// Per-method IO and work counters, indexed by registration order.
  std::vector<MethodEngineStats> methods;
};

/// Nearest-rank percentile of an ascending-sorted sample vector: the
/// smallest sample whose rank is >= q * n (so p50 of [1..100] is 50, p99
/// is 99); 0.0 on an empty vector. This is the estimator behind
/// `EngineStats::latency_p50_ms`/`p95`/`p99`, exposed so its order
/// statistics are testable against known distributions directly.
double NearestRankPercentile(const std::vector<double>& sorted, double q);

/// Executes area queries on a fixed pool of worker threads.
///
/// The engine is the concurrency boundary of the library: query objects
/// are stateless and the `PointDatabase` is immutable after construction,
/// so the only mutable per-query state is the `QueryContext` scratch arena
/// — and the engine owns exactly one per worker thread. A context is
/// reused across every query its worker executes, so steady-state
/// execution allocates only result vectors.
///
/// Usage:
///   QueryEngine engine({.num_threads = 4});
///   const int voronoi = engine.RegisterMethod(&voronoi_query);
///   auto results = engine.RunBatch(polygons, voronoi);   // blocking
///   auto future  = engine.Submit(polygon, voronoi);      // async
///
/// Thread safety: `Submit`/`RunBatch`/`Stats` may be called from any
/// thread. `RegisterMethod` must complete before queries that use the new
/// method id are submitted. Do not call `RunBatch`/`Submit(...).wait()`
/// from inside a worker (queries never enqueue queries).
class QueryEngine {
 public:
  explicit QueryEngine(EngineOptions options = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Registers a query implementation (which must outlive the engine) and
  /// returns its method id for `Submit`/`RunBatch`.
  int RegisterMethod(const AreaQuery* query);

  /// Submits one query; the future resolves with its result and stats.
  ///
  /// A query whose answer is already known — a result-cache hit of a
  /// planned method (`AreaQuery::TryServeCached`) — is answered on the
  /// calling thread: the returned future is already satisfied, nothing is
  /// enqueued and no worker wakes. A hit is therefore never blocked or
  /// shed by a full queue. Every other query is enqueued: `Submit` blocks
  /// while the work queue is full (unless `EngineOptions::shed_on_full`,
  /// which throws `EngineOverloadedError` instead).
  ///
  /// Throws `EngineStoppedError` after `Stop()`, hit or not. With a
  /// deadline or cancel token in `opts`, the query aborts cooperatively
  /// — a token already expired at submission, or a queued task past its
  /// deadline, fails fast without running; a running one observes the
  /// token at its next block boundary — and the future (never `Submit`
  /// itself) delivers `QueryAbortedError`.
  std::future<QueryResult> Submit(Polygon area, int method = 0,
                                  SubmitOptions opts = {});

  /// Enqueues one query against an ad-hoc query object that was never
  /// registered — the scatter path of `RunShardedSnapshotQuery`, whose
  /// per-shard sub-queries are ephemeral objects bound to a pinned
  /// snapshot.
  /// `query` must stay alive until the returned future resolves (the
  /// caller waits on it before destroying the object). Ad-hoc executions
  /// are internal fan-out legs of one client query: they are excluded
  /// from `Stats()` (completed counts, latency percentiles, per-method
  /// counters), which keeps engine statistics in units of client queries.
  /// `cancel` (may be null) is the leg's token — typically chained to the
  /// parent query's token so cancelling the parent aborts every leg.
  std::future<QueryResult> SubmitWith(const AreaQuery* query, Polygon area,
                                      std::shared_ptr<CancelToken> cancel =
                                          nullptr);

  /// Stops the engine: closes the work queue (queued tasks still run to
  /// completion; to abort them too, cancel their tokens first) and joins
  /// the workers. Idempotent; racing `Submit`s either enqueue before the
  /// close or throw `EngineStoppedError` — no submission is silently
  /// dropped with a stranded future. The destructor calls it.
  void Stop();

  /// Runs every polygon through `method` across the pool and returns the
  /// results in input order — identical to running them sequentially,
  /// whatever the thread interleaving (each query is independent and the
  /// ids of each result are sorted).
  std::vector<QueryResult> RunBatch(std::span<const Polygon> areas,
                                    int method = 0);

  /// Aggregated statistics since construction / last `ResetStats()`.
  EngineStats Stats() const;
  void ResetStats();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// True when called from one of *this* engine's worker threads. The
  /// self-submission guard: a task that blocks on futures of its own
  /// pool can deadlock it (workers waiting on work only those same
  /// workers could pop), so composite queries check this and fall back
  /// to inline execution (see `RunShardedSnapshotQuery`).
  bool OnWorkerThread() const;

 private:
  struct Task {
    Polygon area;
    const AreaQuery* query;
    int method;  // Registered method id, or < 0 for an ad-hoc SubmitWith.
    std::chrono::steady_clock::time_point submitted;
    /// Deadline/cancellation handle (null = none). Shared: the submitter
    /// may hold it to cancel, the worker polls it during execution.
    std::shared_ptr<CancelToken> cancel;
    /// Planner hints, installed on the worker context around the run.
    PlanHints hints{};
    std::promise<QueryResult> promise;
  };

  /// Counters of completed client queries, accumulated under the slot's
  /// own mutex and folded into EngineStats by `Stats()`, so no one lock
  /// serialises the whole pool. Each worker owns one slot; one more
  /// collects the cache hits `Submit` serves on submitting threads.
  ///
  /// Latency samples are decimated once they reach a cap (keep every
  /// other sample, double the recording stride), so an open-ended query
  /// stream holds percentile memory bounded while the samples stay
  /// uniformly spread over the stats window.
  struct StatsSlot {
    std::mutex mu;
    std::uint64_t completed = 0;
    std::uint64_t latency_stride = 1;  // Record every stride-th query.
    std::vector<double> latencies_ms;
    std::vector<MethodEngineStats> methods;
  };

  struct WorkerState {
    QueryContext ctx;  // Touched only by the owning worker.
    StatsSlot stats;
  };

  void WorkerLoop(WorkerState* state);
  std::future<QueryResult> Enqueue(Task task, const char* site);
  /// Serves `task` on the calling thread if its token is already expired
  /// (the future carries the abort) or its answer is cached; returns
  /// nullopt when the task has to be enqueued.
  std::optional<std::future<QueryResult>> TryServeOnCaller(Task& task);
  /// Records one completed client query of `task` into `slot`.
  static void Record(StatsSlot& slot, const Task& task,
                     const QueryStats& stats);
  /// Calls `fn` on every stats slot: the workers', then the caller slot.
  template <typename Fn>
  void ForEachSlot(Fn fn) const;

  EngineOptions options_;

  std::mutex methods_mu_;
  std::vector<const AreaQuery*> methods_;

  BoundedQueue<Task> queue_;
  std::vector<std::unique_ptr<WorkerState>> states_;
  std::vector<std::thread> workers_;

  /// Hits served on submitting threads (see `StatsSlot`).
  mutable StatsSlot caller_stats_;

  std::mutex stop_mu_;  // Serialises Stop().
  /// Set by Stop() before the queue closes; atomic so `Submit` can read
  /// it without the lock (a stopped engine serves no hits either).
  std::atomic<bool> stopped_{false};

  mutable std::mutex window_mu_;
  std::chrono::steady_clock::time_point window_start_;
};

}  // namespace vaq

#endif  // VAQ_ENGINE_QUERY_ENGINE_H_
