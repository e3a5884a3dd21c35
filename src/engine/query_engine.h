#ifndef VAQ_ENGINE_QUERY_ENGINE_H_
#define VAQ_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
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
  /// opt-outs). They are installed on the executing slot's context around
  /// the run — like the cancel token — so a registered `PlannedAreaQuery`
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
  /// Completed client queries that executed on the submitting thread:
  /// `Run` calls that found an execution slot free, plus result-cache
  /// hits. The rest waited in the queue and ran on a worker.
  std::uint64_t ran_on_caller = 0;
  /// Per-method IO and work counters, indexed by registration order.
  std::vector<MethodEngineStats> methods;
};

/// Nearest-rank percentile of an ascending-sorted sample vector: the
/// smallest sample whose rank is >= q * n (so p50 of [1..100] is 50, p99
/// is 99); 0.0 on an empty vector. This is the estimator behind
/// `EngineStats::latency_p50_ms`/`p95`/`p99`, exposed so its order
/// statistics are testable against known distributions directly.
double NearestRankPercentile(const std::vector<double>& sorted, double q);

/// Executes area queries on a fixed pool of worker threads, or on the
/// calling thread while the pool has nothing queued.
///
/// The engine is the concurrency boundary of the library: query objects
/// are stateless and the `PointDatabase` is immutable after construction,
/// so the only mutable per-query state is the `QueryContext` scratch arena.
/// The engine owns `num_threads` *execution slots*, each one context plus
/// the stats of the queries run on it, and a query runs only while it
/// holds a slot. So at most `num_threads` queries run at once, whichever
/// threads run them, and steady-state execution allocates only result
/// vectors.
///
/// **Who runs what.** `Submit` enqueues; a worker pops the task, takes a
/// free slot (waiting for one if callers hold them all) and runs it.
/// `Run` blocks: it runs the query on the calling thread when the queue is
/// empty, no worker is waiting for a slot and a slot is free, and
/// otherwise enqueues and waits exactly like `Submit(...).get()`. A caller
/// never takes a slot that a popped or queued task is owed, so a `Run`
/// never overtakes work submitted before it. Result-cache hits are
/// answered on the submitting thread by both entry points without a slot.
///
/// Usage:
///   QueryEngine engine({.num_threads = 4});
///   const int voronoi = engine.RegisterMethod(&voronoi_query);
///   auto results = engine.RunBatch(polygons, voronoi);   // blocking
///   auto future  = engine.Submit(polygon, voronoi);      // async
///   auto result  = engine.Run(polygon, voronoi);         // blocking, one
///
/// Thread safety: `Submit`/`Run`/`RunBatch`/`Stats` may be called from any
/// thread. `RegisterMethod` must complete before queries that use the new
/// method id are submitted. Do not call `Run`/`RunBatch`/
/// `Submit(...).wait()` from inside a running query (queries never enqueue
/// queries); a composite query that fans out into its own engine checks
/// `OnWorkerThread()` and runs inline instead.
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

  /// Runs one query and returns its result: the blocking form of `Submit`,
  /// for callers that would wait on the future at once (the server's
  /// connection threads).
  ///
  /// The query runs on the calling thread when the work queue is empty, no
  /// worker waits for a slot and an execution slot is free; the caller
  /// holds that slot for the run, so the `num_threads` bound on running
  /// queries still holds. Otherwise a cache hit is answered here, and any
  /// other query is enqueued and awaited: it runs after everything queued
  /// before it. Deadlines count from this call.
  ///
  /// Raises what the future of `Submit` would deliver, from this call:
  /// `EngineStoppedError` after `Stop()`, `EngineOverloadedError` against
  /// a full queue under `shed_on_full`, `QueryAbortedError` for an expired
  /// deadline or a cancelled token (without running the query), and
  /// whatever the query itself throws.
  QueryResult Run(Polygon area, int method = 0, SubmitOptions opts = {});

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
  /// the workers. Idempotent; racing `Submit`s and `Run`s either enqueue
  /// (or start on their caller) before the close or throw
  /// `EngineStoppedError` — no submission is silently dropped with a
  /// stranded future. A `Run` already executing on its caller finishes
  /// there; the engine must outlive it. The destructor calls it.
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

  /// True when called on a thread that holds one of *this* engine's
  /// execution slots: a worker running a task, or a `Run` caller running
  /// its query. The self-submission guard: a query that blocks on futures
  /// of its own engine can deadlock it (slot holders waiting on legs that
  /// only a slot could run), so composite queries check this and fall
  /// back to inline execution (see `RunShardedSnapshotQuery`).
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
  /// serialises the whole pool. Each execution slot owns one; one more
  /// collects the cache hits answered on submitting threads.
  ///
  /// Latency samples are decimated once they reach a cap (keep every
  /// other sample, double the recording stride), so an open-ended query
  /// stream holds percentile memory bounded while the samples stay
  /// uniformly spread over the stats window.
  struct StatsSlot {
    std::mutex mu;
    std::uint64_t completed = 0;
    std::uint64_t ran_on_caller = 0;
    std::uint64_t latency_stride = 1;  // Record every stride-th query.
    std::vector<double> latencies_ms;
    std::vector<MethodEngineStats> methods;
  };

  /// One execution slot. Only the thread holding it touches `ctx`.
  struct Slot {
    QueryContext ctx;
    StatsSlot stats;
  };
  /// Holds a slot for one execution (see query_engine.cc).
  class SlotHold;

  void WorkerLoop();
  Task MakeTask(Polygon area, int method, SubmitOptions opts,
                const char* site);
  std::future<QueryResult> Enqueue(Task task, const char* site);
  /// The one execute path, shared by workers, caller runs and cache hits.
  /// Fails fast on an expired or cancelled token; then runs `task` on
  /// `slot` (held until return, released on every exit), or with no slot
  /// answers it from the result cache and returns nullopt on a miss.
  /// Records each completed client query once. Throws what the query
  /// throws.
  std::optional<QueryResult> Execute(Task& task, Slot* slot, bool on_caller);
  /// Takes a free slot for a `Run` caller, or null when the queue holds
  /// work, a worker waits for a slot, or every slot is taken.
  Slot* TryTakeCallerSlot();
  /// Takes a slot for a worker that popped a task; waits for one.
  Slot* TakeWorkerSlot();
  void ReleaseSlot(Slot* slot);
  /// Records one completed client query of `task` into `slot`.
  static void Record(StatsSlot& slot, const Task& task,
                     const QueryStats& stats, bool on_caller);
  /// Calls `fn` on every stats slot: the execution slots', then the
  /// caller slot.
  template <typename Fn>
  void ForEachSlot(Fn fn) const;

  EngineOptions options_;

  std::mutex methods_mu_;
  std::vector<const AreaQuery*> methods_;

  BoundedQueue<Task> queue_;
  std::vector<std::unique_ptr<Slot>> slots_;

  /// The free slots, LIFO so the warmest scratch context is reused first;
  /// workers wait on `slot_freed_` for one.
  std::mutex slots_mu_;
  std::condition_variable slot_freed_;
  std::vector<Slot*> free_slots_;
  /// Tasks enqueued that hold no slot yet: queued, or popped by a worker
  /// waiting for a slot. Raised before the push, lowered when the worker
  /// takes its slot; a caller runs only while it is zero.
  std::atomic<std::size_t> unslotted_{0};

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
