#include "engine/query_engine.h"

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_area_query.h"
#include "core/cancel.h"
#include "core/grid_sweep_area_query.h"
#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

std::vector<Polygon> RandomPolygons(int count, double size_fraction,
                                    std::uint64_t seed) {
  Rng rng(seed);
  PolygonSpec spec;
  spec.query_size_fraction = size_fraction;
  std::vector<Polygon> areas;
  areas.reserve(count);
  for (int i = 0; i < count; ++i) {
    areas.push_back(GenerateQueryPolygon(spec, kUnit, &rng));
  }
  return areas;
}

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() {
    Rng rng(4242);
    db_ = std::make_unique<PointDatabase>(
        GenerateUniformPoints(5000, kUnit, &rng));
  }
  std::unique_ptr<PointDatabase> db_;
};

TEST_F(QueryEngineTest, ConcurrentBatchesMatchBruteForceGroundTruth) {
  // The concurrency regression of ISSUE 1: N threads x M random polygons
  // through the engine, every result checked against the sequential
  // brute-force scan.
  const VoronoiAreaQuery voronoi(db_.get());
  const TraditionalAreaQuery traditional(db_.get());
  const GridSweepAreaQuery sweep(db_.get());
  const BruteForceAreaQuery brute(db_.get());

  QueryEngine engine({.num_threads = 4, .queue_capacity = 16});
  const int vaq_id = engine.RegisterMethod(&voronoi);
  const int trad_id = engine.RegisterMethod(&traditional);
  const int sweep_id = engine.RegisterMethod(&sweep);

  const std::vector<Polygon> areas = RandomPolygons(64, 0.03, 7);
  const std::vector<QueryResult> vaq_results = engine.RunBatch(areas, vaq_id);
  const std::vector<QueryResult> trad_results =
      engine.RunBatch(areas, trad_id);
  const std::vector<QueryResult> sweep_results =
      engine.RunBatch(areas, sweep_id);

  ASSERT_EQ(vaq_results.size(), areas.size());
  for (std::size_t i = 0; i < areas.size(); ++i) {
    const std::vector<PointId> truth = brute.Run(areas[i]);
    EXPECT_EQ(vaq_results[i].ids, truth) << "voronoi, polygon " << i;
    EXPECT_EQ(trad_results[i].ids, truth) << "traditional, polygon " << i;
    EXPECT_EQ(sweep_results[i].ids, truth) << "grid-sweep, polygon " << i;
  }
}

TEST_F(QueryEngineTest, BatchedResultsIdenticalToSequential) {
  // Determinism check: the 4-thread batch must return bit-identical result
  // sets, in input order, to a sequential single-context loop.
  const VoronoiAreaQuery voronoi(db_.get());
  const std::vector<Polygon> areas = RandomPolygons(48, 0.02, 13);

  QueryContext ctx;
  std::vector<std::vector<PointId>> sequential;
  sequential.reserve(areas.size());
  for (const Polygon& area : areas) sequential.push_back(voronoi.Run(area, ctx));

  QueryEngine engine({.num_threads = 4});
  engine.RegisterMethod(&voronoi);
  const std::vector<QueryResult> batched = engine.RunBatch(areas);

  ASSERT_EQ(batched.size(), sequential.size());
  for (std::size_t i = 0; i < areas.size(); ++i) {
    EXPECT_EQ(batched[i].ids, sequential[i]) << "polygon " << i;
  }
}

TEST_F(QueryEngineTest, SubmitResolvesFuturesWithStats) {
  const TraditionalAreaQuery traditional(db_.get());
  QueryEngine engine({.num_threads = 2});
  engine.RegisterMethod(&traditional);

  const std::vector<Polygon> areas = RandomPolygons(8, 0.05, 3);
  std::vector<std::future<QueryResult>> futures;
  for (const Polygon& area : areas) futures.push_back(engine.Submit(area));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    QueryResult r = futures[i].get();
    EXPECT_EQ(r.ids.size(), r.stats.results);
    EXPECT_GE(r.stats.candidates, r.stats.results);
    EXPECT_GT(r.stats.elapsed_ms, 0.0);
  }
}

TEST_F(QueryEngineTest, EngineStatsAggregatePerMethod) {
  const TraditionalAreaQuery traditional(db_.get());
  const VoronoiAreaQuery voronoi(db_.get());
  QueryEngine engine({.num_threads = 2});
  const int trad_id = engine.RegisterMethod(&traditional);
  const int vaq_id = engine.RegisterMethod(&voronoi);

  const std::vector<Polygon> areas = RandomPolygons(20, 0.02, 21);
  engine.RunBatch(areas, trad_id);
  engine.RunBatch(areas, vaq_id);

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_completed, 2 * areas.size());
  EXPECT_GT(stats.throughput_qps, 0.0);
  EXPECT_GT(stats.latency_p50_ms, 0.0);
  EXPECT_LE(stats.latency_p50_ms, stats.latency_p95_ms);
  EXPECT_LE(stats.latency_p95_ms, stats.latency_p99_ms);

  ASSERT_EQ(stats.methods.size(), 2u);
  EXPECT_EQ(stats.methods[trad_id].name, "traditional");
  EXPECT_EQ(stats.methods[vaq_id].name, "voronoi");
  EXPECT_EQ(stats.methods[trad_id].queries, areas.size());
  EXPECT_EQ(stats.methods[vaq_id].queries, areas.size());
  EXPECT_GT(stats.methods[trad_id].totals.geometry_loads, 0u);
  EXPECT_GT(stats.methods[vaq_id].totals.neighbor_expansions, 0u);
  // The whole point of the paper: fewer candidates on the Voronoi path.
  EXPECT_LT(stats.methods[vaq_id].totals.candidates,
            stats.methods[trad_id].totals.candidates);

  engine.ResetStats();
  const EngineStats cleared = engine.Stats();
  EXPECT_EQ(cleared.queries_completed, 0u);
  EXPECT_TRUE(cleared.methods.empty());
}

TEST_F(QueryEngineTest, ManyProducerThreadsShareOneEngine) {
  // MPMC path: several client threads submit concurrently against a small
  // queue (so producers block on backpressure) while 4 workers drain.
  const VoronoiAreaQuery voronoi(db_.get());
  const BruteForceAreaQuery brute(db_.get());
  QueryEngine engine({.num_threads = 4, .queue_capacity = 4});
  engine.RegisterMethod(&voronoi);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      const std::vector<Polygon> areas =
          RandomPolygons(kPerProducer, 0.02, 100 + t);
      for (const Polygon& area : areas) {
        const QueryResult r = engine.Submit(area).get();
        if (r.ids != brute.Run(area)) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.Stats().queries_completed,
            static_cast<std::uint64_t>(kProducers * kPerProducer));
}

TEST_F(QueryEngineTest, CellOverlapModeSafeUnderConcurrency) {
  // The cell-overlap ablation touches the lazily built Voronoi diagram;
  // its std::once_flag guard must make concurrent first use safe. Build
  // the query objects inside threads so the lazy init itself races.
  std::atomic<int> failures{0};
  const BruteForceAreaQuery brute(db_.get());
  const std::vector<Polygon> areas = RandomPolygons(8, 0.03, 31);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      VoronoiAreaQuery::Options options;
      options.expansion = VoronoiAreaQuery::ExpansionRule::kCellOverlap;
      const VoronoiAreaQuery query(db_.get(), options);
      QueryContext ctx;
      for (const Polygon& area : areas) {
        if (query.Run(area, ctx) != brute.Run(area)) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Admission: `Run` executes on the caller only while an execution slot is
// free and nothing is queued; callers and workers share `num_threads`
// slots. The suite names match the fault-injection job's sanitizer regex.
// ---------------------------------------------------------------------------

/// A stub query that records how many of its runs overlap and in which
/// order they start (each polygon's first x is its tag), and parks until
/// released, polling the context's cancel token like a real kernel.
class ProbeQuery final : public AreaQuery {
 public:
  explicit ProbeQuery(std::chrono::microseconds hold =
                          std::chrono::microseconds{0})
      : hold_(hold) {}

  std::vector<PointId> Run(const Polygon& area,
                           QueryContext& ctx) const override {
    const int now = running_.fetch_add(1) + 1;
    int peak = peak_.load();
    while (now > peak && !peak_.compare_exchange_weak(peak, now)) {
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      order_.push_back(static_cast<int>(area.vertices().front().x));
    }
    started_.fetch_add(1);
    struct Leave {
      std::atomic<int>& running;
      ~Leave() { running.fetch_sub(1); }
    } leave{running_};
    while (!release_.load()) {
      ctx.CheckCancelled();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(hold_);
    return {};
  }
  std::string_view Name() const override { return "probe"; }

  void WaitStarted(int n) const {
    while (started_.load() < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  int started() const { return started_.load(); }
  int peak() const { return peak_.load(); }
  std::vector<int> order() const {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }
  void Release() const { release_.store(true); }

 private:
  const std::chrono::microseconds hold_;
  mutable std::atomic<int> running_{0};
  mutable std::atomic<int> peak_{0};
  mutable std::atomic<int> started_{0};
  mutable std::atomic<bool> release_{false};
  mutable std::mutex mu_;
  mutable std::vector<int> order_;
};

/// A triangle whose first vertex's x is `tag`, the probe's run label.
Polygon Tagged(int tag) {
  const double x = tag;
  return Polygon({{x, 0.0}, {x + 1.0, 0.0}, {x + 0.5, 1.0}});
}

std::shared_ptr<CancelToken> ExpiredToken() {
  auto token = std::make_shared<CancelToken>();
  token->SetDeadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  return token;
}

/// Runs `fn`, which must throw `QueryAbortedError`, and returns its reason.
template <typename Fn>
QueryAbortedError::Reason AbortReason(Fn fn) {
  try {
    fn();
  } catch (const QueryAbortedError& e) {
    return e.reason();
  }
  ADD_FAILURE() << "expected QueryAbortedError";
  return QueryAbortedError::Reason::kCancelled;
}

TEST(EngineOverloadRunTest, MixedRunAndSubmitNeverExceedThreadCount) {
  // 4x num_threads threads, half calling Run and half Submit().get(), each
  // query holding its slot for a while: the running count peaks at the
  // thread count, caller runs included, and every query counts once.
  constexpr int kThreads = 3;
  constexpr int kCallers = 4 * kThreads;
  constexpr int kPerCaller = 12;
  const ProbeQuery probe(std::chrono::microseconds{300});
  probe.Release();
  QueryEngine engine({.num_threads = kThreads, .queue_capacity = 64});
  const int method = engine.RegisterMethod(&probe);
  std::atomic<bool> go{false};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerCaller; ++i) {
        if (c % 2 == 0) {
          engine.Run(Tagged(c), method);
        } else {
          engine.Submit(Tagged(c), method).get();
        }
      }
    });
  }
  go.store(true);
  for (std::thread& t : callers) t.join();

  EXPECT_LE(probe.peak(), kThreads);
  EXPECT_GE(probe.peak(), 2) << "the callers never overlapped";
  const EngineStats stats = engine.Stats();
  constexpr std::uint64_t kTotal = kCallers * kPerCaller;
  EXPECT_EQ(stats.queries_completed, kTotal);
  ASSERT_EQ(stats.methods.size(), 1u);
  EXPECT_EQ(stats.methods[0].queries, kTotal);
  // Only Run calls may run on the caller (the probe has no cache).
  EXPECT_LE(stats.ran_on_caller, kTotal / 2);
}

TEST(EngineOverloadRunTest, IdleEngineRunsEveryQueryOnTheCaller) {
  const ProbeQuery probe;
  probe.Release();
  QueryEngine engine({.num_threads = 2});
  const int method = engine.RegisterMethod(&probe);
  for (int i = 0; i < 10; ++i) engine.Run(Tagged(i), method);
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_completed, 10u);
  EXPECT_EQ(stats.ran_on_caller, 10u);
  EXPECT_EQ(probe.order(), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

/// Counts the runs during which its engine claims the running thread as
/// its own (`OnWorkerThread`), the self-scatter guard's flag.
class GuardProbe final : public AreaQuery {
 public:
  std::vector<PointId> Run(const Polygon&, QueryContext&) const override {
    runs_.fetch_add(1);
    if (engine_->OnWorkerThread()) guarded_.fetch_add(1);
    if (other_->OnWorkerThread()) foreign_.fetch_add(1);
    return {};
  }
  std::string_view Name() const override { return "guard-probe"; }

  const QueryEngine* engine_ = nullptr;
  const QueryEngine* other_ = nullptr;
  mutable std::atomic<int> runs_{0};
  mutable std::atomic<int> guarded_{0};
  mutable std::atomic<int> foreign_{0};
};

TEST(EngineOverloadRunTest, CallerRunsCountAsTheEnginesOwnThreads) {
  // A query running on its caller holds a slot exactly like a worker, so
  // the engine must claim that thread too, or a composite query would
  // scatter into the engine it occupies. The flag names this engine only,
  // and it is gone once the run returns.
  GuardProbe probe;
  QueryEngine engine({.num_threads = 2});
  QueryEngine other({.num_threads = 1});
  probe.engine_ = &engine;
  probe.other_ = &other;
  const int method = engine.RegisterMethod(&probe);
  for (int i = 0; i < 5; ++i) engine.Run(Tagged(i), method);
  for (int i = 0; i < 5; ++i) engine.Submit(Tagged(i), method).get();
  EXPECT_EQ(probe.runs_.load(), 10);
  EXPECT_EQ(probe.guarded_.load(), 10);
  EXPECT_EQ(probe.foreign_.load(), 0);
  EXPECT_EQ(engine.Stats().ran_on_caller, 5u);
  EXPECT_FALSE(engine.OnWorkerThread());
}

TEST(EngineOverloadRunTest, RunDoesNotOvertakeQueuedWork) {
  // One slot. Run(1) takes it on its caller; Submit(2) is popped by the
  // worker, which waits for the slot; Submit(3) stays queued. Run(4) then
  // finds work owed a slot and queues behind it, even when the slot frees.
  ProbeQuery probe;
  QueryEngine engine({.num_threads = 1, .queue_capacity = 8});
  const int method = engine.RegisterMethod(&probe);
  std::thread first([&] { engine.Run(Tagged(1), method); });
  probe.WaitStarted(1);
  std::future<QueryResult> second = engine.Submit(Tagged(2), method);
  std::future<QueryResult> third = engine.Submit(Tagged(3), method);
  std::atomic<bool> calling{false};
  std::thread fourth([&] {
    calling.store(true);
    engine.Run(Tagged(4), method);
  });
  while (!calling.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(probe.started(), 1) << "a query ran without a free slot";
  probe.Release();
  first.join();
  second.get();
  third.get();
  fourth.join();
  EXPECT_EQ(probe.order(), (std::vector<int>{1, 2, 3, 4}));
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_completed, 4u);
  EXPECT_EQ(stats.ran_on_caller, 1u);
}

TEST(EngineOverloadRunTest, RunAgainstFullShedQueueThrowsOverloaded) {
  ProbeQuery probe;
  QueryEngine engine(
      {.num_threads = 1, .queue_capacity = 1, .shed_on_full = true});
  const int method = engine.RegisterMethod(&probe);
  // The worker holds the only slot on q1; q2 fills the queue.
  std::future<QueryResult> q1 = engine.Submit(Tagged(1), method);
  probe.WaitStarted(1);
  std::future<QueryResult> q2 = engine.Submit(Tagged(2), method);
  try {
    engine.Run(Tagged(3), method);
    FAIL() << "expected EngineOverloadedError";
  } catch (const EngineOverloadedError& e) {
    EXPECT_EQ(e.capacity(), 1u);
  }
  EXPECT_THROW(engine.Submit(Tagged(3), method), EngineOverloadedError);
  probe.Release();
  q1.get();
  q2.get();
  // The shed attempts left no phantom queued work behind: the idle engine
  // runs the next query on its caller again.
  engine.Run(Tagged(4), method);
  EXPECT_EQ(probe.order(), (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(engine.Stats().ran_on_caller, 1u);
}

TEST(EngineShutdownRunTest, RunAfterStopThrowsTypedError) {
  const ProbeQuery probe;
  probe.Release();
  QueryEngine engine({.num_threads = 2});
  const int method = engine.RegisterMethod(&probe);
  engine.Stop();
  EXPECT_THROW(engine.Run(Tagged(1), method), EngineStoppedError);
  EXPECT_THROW(engine.Submit(Tagged(1), method), EngineStoppedError);
  EXPECT_THROW(engine.Run(Tagged(1), method + 1), std::out_of_range);
  EXPECT_EQ(probe.started(), 0);
  EXPECT_EQ(engine.Stats().queries_completed, 0u);
}

TEST(EngineDeadlineRunTest, ExpiredDeadlineFailsFastLikeSubmit) {
  // Whether a slot is free (the caller path) or not (the queue path), an
  // expired token raises the abort Submit's future delivers, unrun.
  ProbeQuery probe;
  QueryEngine engine({.num_threads = 1});
  const int method = engine.RegisterMethod(&probe);
  using Reason = QueryAbortedError::Reason;
  EXPECT_EQ(AbortReason([&] {
              engine.Run(Tagged(1), method, {.cancel = ExpiredToken()});
            }),
            Reason::kDeadline);
  EXPECT_EQ(AbortReason([&] {
              engine.Submit(Tagged(1), method, {.cancel = ExpiredToken()})
                  .get();
            }),
            Reason::kDeadline);
  std::future<QueryResult> blocker = engine.Submit(Tagged(2), method);
  probe.WaitStarted(1);
  EXPECT_EQ(AbortReason([&] {
              engine.Run(Tagged(3), method, {.cancel = ExpiredToken()});
            }),
            Reason::kDeadline);
  probe.Release();
  blocker.get();
  EXPECT_EQ(probe.order(), std::vector<int>{2});
  EXPECT_EQ(engine.Stats().queries_completed, 1u);
}

TEST(EngineDeadlineRunTest, QueuedAndCallerRunsObserveTheirDeadlines) {
  ProbeQuery probe;  // Released only after both deadlines have fired.
  QueryEngine engine({.num_threads = 1});
  const int method = engine.RegisterMethod(&probe);
  using Reason = QueryAbortedError::Reason;
  SubmitOptions short_deadline;
  short_deadline.deadline_ms = 20.0;
  // Free slot: the caller runs the query and observes the deadline
  // mid-flight, at the probe's next poll.
  EXPECT_EQ(AbortReason([&] {
              engine.Run(Tagged(1), method, short_deadline);
            }),
            Reason::kDeadline);
  // Busy slot: the Run queues, its deadline lapses in the queue, and the
  // worker fails it fast without running it.
  std::future<QueryResult> blocker = engine.Submit(Tagged(2), method);
  probe.WaitStarted(2);
  std::thread release([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    probe.Release();
  });
  short_deadline.deadline_ms = 10.0;
  EXPECT_EQ(AbortReason([&] {
              engine.Run(Tagged(3), method, short_deadline);
            }),
            Reason::kDeadline);
  release.join();
  blocker.get();
  EXPECT_EQ(probe.order(), (std::vector<int>{1, 2}));
}

TEST(EngineCancelRunTest, CancelledTokenAbortsCallerRunAndFailsFastUnrun) {
  ProbeQuery probe;  // Never released: only Cancel() ends a run.
  QueryEngine engine({.num_threads = 1});
  const int method = engine.RegisterMethod(&probe);
  using Reason = QueryAbortedError::Reason;
  auto cancelled = std::make_shared<CancelToken>();
  cancelled->Cancel();
  EXPECT_EQ(AbortReason([&] {
              engine.Run(Tagged(1), method, {.cancel = cancelled});
            }),
            Reason::kCancelled);
  EXPECT_EQ(probe.started(), 0);

  auto token = std::make_shared<CancelToken>();
  std::promise<QueryAbortedError::Reason> reason;
  std::thread caller([&] {
    reason.set_value(AbortReason(
        [&] { engine.Run(Tagged(2), method, {.cancel = token}); }));
  });
  probe.WaitStarted(1);
  token->Cancel();
  EXPECT_EQ(reason.get_future().get(), Reason::kCancelled);
  caller.join();
  // The aborted caller run gave its slot back: a queued query gets it.
  probe.Release();
  EXPECT_NO_THROW(engine.Submit(Tagged(3), method).get());
  EXPECT_EQ(probe.order(), (std::vector<int>{2, 3}));
}

}  // namespace
}  // namespace vaq
