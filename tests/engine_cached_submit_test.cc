// `QueryEngine::Submit` answers a result-cache hit on the submitting
// thread: the future is already satisfied, nothing is enqueued, and the
// hit is counted exactly once — in the engine window, in the per-method
// totals and in the cache's own counters. Misses still run on the pool.

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cancel.h"
#include "core/dynamic_point_database.h"
#include "engine/errors.h"
#include "engine/query_engine.h"
#include "planner/planned_area_query.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

std::vector<Polygon> Areas(std::uint64_t seed, int count) {
  Rng rng(seed);
  PolygonSpec spec;
  spec.query_size_fraction = 0.05;
  std::vector<Polygon> areas;
  for (int i = 0; i < count; ++i) {
    areas.push_back(GenerateQueryPolygon(spec, kUnit, &rng));
  }
  return areas;
}

/// Occupies a worker until released, so a test controls whether the pool
/// could have served anything.
class GateQuery final : public AreaQuery {
 public:
  using AreaQuery::Run;
  std::vector<PointId> Run(const Polygon&, QueryContext& ctx) const override {
    started_.fetch_add(1);
    while (!release_.load()) {
      ctx.CheckCancelled();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return {};
  }
  std::string_view Name() const override { return "gate"; }

  void WaitStarted(int n) const {
    while (started_.load() < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  void Release() const { release_.store(true); }

 private:
  mutable std::atomic<int> started_{0};
  mutable std::atomic<bool> release_{false};
};

/// Releases the gate on scope exit, so a failed assertion cannot leave
/// the engine's destructor joining a parked worker. Declare it after the
/// engine: it must release before the engine stops.
struct ReleaseOnExit {
  const GateQuery& gate;
  ~ReleaseOnExit() { gate.Release(); }
};

bool Ready(const std::future<QueryResult>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

class EngineCachedSubmitTest : public ::testing::Test {
 protected:
  EngineCachedSubmitTest() {
    Rng rng(1313);
    db_ = std::make_unique<DynamicPointDatabase>(
        GenerateUniformPoints(5000, kUnit, &rng));
  }

  const PlannedAreaQuery& planned() const { return *db_->PlannedQuery(); }

  /// Makes `area` resident: second-hit admission declines the first
  /// offer and admits the second. Returns the answer.
  std::vector<PointId> Warm(QueryEngine& engine, int method,
                            const Polygon& area) {
    engine.Submit(area, method).get();
    const QueryResult second = engine.Submit(area, method).get();
    EXPECT_EQ(second.stats.result_cache_misses, 1u);
    return second.ids;
  }

  std::unique_ptr<DynamicPointDatabase> db_;
};

TEST_F(EngineCachedSubmitTest, HitIsReadyOnReturnWhileTheOnlyWorkerIsBlocked) {
  const GateQuery gate;
  QueryEngine engine({.num_threads = 1});
  const int gate_id = engine.RegisterMethod(&gate);
  const int planned_id = engine.RegisterMethod(db_->PlannedQuery());
  const ReleaseOnExit release{gate};
  const Polygon area = Areas(1, 1)[0];
  const std::vector<PointId> truth = Warm(engine, planned_id, area);
  ASSERT_FALSE(truth.empty());

  // The only worker is parked inside the gate: whatever answers the hit
  // cannot be a worker thread.
  std::future<QueryResult> blocker = engine.Submit(area, gate_id);
  gate.WaitStarted(1);
  std::future<QueryResult> hit = engine.Submit(area, planned_id);
  const bool ready = Ready(hit);
  gate.Release();
  EXPECT_TRUE(ready) << "a cache hit must not wait for the pool";
  const QueryResult result = hit.get();
  EXPECT_EQ(result.ids, truth);
  EXPECT_EQ(result.stats.result_cache_hits, 1u);
  EXPECT_TRUE(result.stats.plan_reason & plan_reason::kCacheHit);
  EXPECT_NO_THROW(blocker.get());
}

TEST_F(EngineCachedSubmitTest, HitCountsOnceInTheEngineWindow) {
  QueryEngine engine({.num_threads = 2});
  const int planned_id = engine.RegisterMethod(db_->PlannedQuery());
  const Polygon area = Areas(2, 1)[0];
  Warm(engine, planned_id, area);
  engine.ResetStats();

  const QueryResult hit = engine.Submit(area, planned_id).get();
  ASSERT_EQ(hit.stats.result_cache_hits, 1u);
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_completed, 1u);
  EXPECT_GT(stats.latency_p50_ms, 0.0);
  ASSERT_EQ(stats.methods.size(), 1u);
  EXPECT_EQ(stats.methods[0].name, "auto");
  EXPECT_EQ(stats.methods[0].queries, 1u);
  EXPECT_EQ(stats.methods[0].totals.result_cache_hits, 1u);
  EXPECT_EQ(stats.methods[0].totals.result_cache_misses, 0u);
  EXPECT_EQ(stats.methods[0].totals.results, hit.ids.size());

  engine.ResetStats();
  EXPECT_EQ(engine.Stats().queries_completed, 0u)
      << "ResetStats must clear the caller-side slot too";
}

TEST_F(EngineCachedSubmitTest, CacheCountersAreExactOverAHitMissMix) {
  QueryEngine engine({.num_threads = 3});
  const int planned_id = engine.RegisterMethod(db_->PlannedQuery());
  const std::vector<Polygon> hot = Areas(3, 4);
  const std::vector<Polygon> cold = Areas(4, 12);
  for (const Polygon& area : hot) Warm(engine, planned_id, area);

  // A probe that misses counts nothing and leaves its outputs alone; the
  // execution that follows counts the miss.
  std::vector<PointId> ids = {42};
  QueryStats probe_stats;
  probe_stats.results = 7;
  const std::uint64_t misses_before_probe = planned().cache().misses();
  EXPECT_FALSE(planned().TryServeCached(cold[0], PlanHints{}, ids,
                                        probe_stats));
  EXPECT_EQ(planned().cache().misses(), misses_before_probe);
  EXPECT_EQ(ids, std::vector<PointId>{42});
  EXPECT_EQ(probe_stats.results, 7u);

  engine.ResetStats();
  const std::uint64_t hits0 = planned().cache().hits();
  const std::uint64_t misses0 = planned().cache().misses();
  std::vector<std::future<QueryResult>> futures;
  for (std::size_t i = 0; i < cold.size(); ++i) {
    futures.push_back(engine.Submit(hot[i % hot.size()], planned_id));
    futures.push_back(engine.Submit(cold[i], planned_id));
  }
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (std::future<QueryResult>& f : futures) {
    const QueryResult r = f.get();
    ASSERT_EQ(r.stats.result_cache_hits + r.stats.result_cache_misses, 1u);
    hits += r.stats.result_cache_hits;
    misses += r.stats.result_cache_misses;
  }
  EXPECT_EQ(hits, cold.size());
  EXPECT_EQ(misses, cold.size());
  EXPECT_EQ(planned().cache().hits() - hits0, hits);
  EXPECT_EQ(planned().cache().misses() - misses0, misses);

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_completed, futures.size());
  ASSERT_EQ(stats.methods.size(), 1u);
  EXPECT_EQ(stats.methods[0].totals.result_cache_hits, hits);
  EXPECT_EQ(stats.methods[0].totals.result_cache_misses, misses);
}

TEST_F(EngineCachedSubmitTest, SheddingEngineStillAnswersAHitButShedsAMiss) {
  const GateQuery gate;
  QueryEngine engine(
      {.num_threads = 1, .queue_capacity = 1, .shed_on_full = true});
  const int gate_id = engine.RegisterMethod(&gate);
  const int planned_id = engine.RegisterMethod(db_->PlannedQuery());
  const ReleaseOnExit release{gate};
  const std::vector<Polygon> areas = Areas(5, 2);
  const std::vector<PointId> truth = Warm(engine, planned_id, areas[0]);

  // Worker busy on q1, q2 fills the one-slot queue.
  std::future<QueryResult> q1 = engine.Submit(areas[0], gate_id);
  gate.WaitStarted(1);
  std::future<QueryResult> q2 = engine.Submit(areas[0], gate_id);

  std::future<QueryResult> hit;
  ASSERT_NO_THROW(hit = engine.Submit(areas[0], planned_id))
      << "a cache hit is never shed";
  EXPECT_TRUE(Ready(hit));
  EXPECT_THROW(engine.Submit(areas[1], planned_id), EngineOverloadedError);

  gate.Release();
  EXPECT_EQ(hit.get().ids, truth);
  EXPECT_NO_THROW(q1.get());
  EXPECT_NO_THROW(q2.get());
}

TEST_F(EngineCachedSubmitTest, ExpiredTokenReachesTheFutureForHitAndMiss) {
  QueryEngine engine({.num_threads = 1});
  const int planned_id = engine.RegisterMethod(db_->PlannedQuery());
  const std::vector<Polygon> areas = Areas(6, 2);
  Warm(engine, planned_id, areas[0]);
  engine.ResetStats();
  const std::uint64_t hits0 = planned().cache().hits();
  const std::uint64_t misses0 = planned().cache().misses();

  auto cancelled = std::make_shared<CancelToken>();
  cancelled->Cancel();
  auto expired = std::make_shared<CancelToken>();
  expired->SetDeadline(CancelToken::Clock::now() - std::chrono::seconds(1));

  struct Case {
    const Polygon* area;
    std::shared_ptr<CancelToken> token;
    QueryAbortedError::Reason reason;
  };
  const Case cases[] = {
      {&areas[0], cancelled, QueryAbortedError::Reason::kCancelled},
      {&areas[1], cancelled, QueryAbortedError::Reason::kCancelled},
      {&areas[0], expired, QueryAbortedError::Reason::kDeadline},
      {&areas[1], expired, QueryAbortedError::Reason::kDeadline},
  };
  for (const Case& c : cases) {
    std::future<QueryResult> f;
    ASSERT_NO_THROW(f = engine.Submit(*c.area, planned_id,
                                      {.cancel = c.token}))
        << "an abort is delivered through the future, never by Submit";
    try {
      f.get();
      ADD_FAILURE() << "expected QueryAbortedError";
    } catch (const QueryAbortedError& e) {
      EXPECT_EQ(e.reason(), c.reason);
    }
  }
  // Aborted queries neither complete nor touch the cache counters.
  EXPECT_EQ(engine.Stats().queries_completed, 0u);
  EXPECT_EQ(planned().cache().hits(), hits0);
  EXPECT_EQ(planned().cache().misses(), misses0);
}

TEST_F(EngineCachedSubmitTest, HitStatsEqualRunPlannedHitStats) {
  QueryEngine engine({.num_threads = 2});
  const int planned_id = engine.RegisterMethod(db_->PlannedQuery());
  const Polygon area = Areas(7, 1)[0];
  Warm(engine, planned_id, area);

  PlanHints forced;
  forced.force_method = DynamicMethod::kGridSweep;
  for (const PlanHints& hints : {PlanHints{}, forced}) {
    QueryContext ctx;
    const std::vector<PointId> direct_ids =
        planned().RunPlanned(area, ctx, hints);
    const QueryStats direct = ctx.stats;
    ASSERT_EQ(direct.result_cache_hits, 1u);

    SubmitOptions opts;
    opts.hints = hints;
    const QueryResult served = engine.Submit(area, planned_id, opts).get();
    EXPECT_EQ(served.ids, direct_ids);
    EXPECT_EQ(served.stats.results, direct.results);
    EXPECT_EQ(served.stats.plan_method, direct.plan_method);
    EXPECT_EQ(served.stats.plan_reason, direct.plan_reason);
    EXPECT_TRUE(served.stats.plan_reason & plan_reason::kCacheHit);
    EXPECT_EQ(served.stats.result_cache_hits, direct.result_cache_hits);
    EXPECT_EQ(served.stats.result_cache_misses, 0u);
    EXPECT_EQ(served.stats.candidates, 0u) << "nothing ran";
  }
}

TEST_F(EngineCachedSubmitTest, StoppedEngineServesNoHit) {
  QueryEngine engine({.num_threads = 1});
  const int planned_id = engine.RegisterMethod(db_->PlannedQuery());
  const Polygon area = Areas(8, 1)[0];
  Warm(engine, planned_id, area);
  engine.Stop();
  EXPECT_THROW(engine.Submit(area, planned_id), EngineStoppedError);
}

}  // namespace
}  // namespace vaq
