#include "planner/query_planner.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/dynamic_point_database.h"
#include "planner/cost_model.h"
#include "planner/planned_area_query.h"
#include "planner/query_plan.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

PlanFeatures MemoryFeatures() {
  PlanFeatures f;
  f.n = 100000;
  f.mbr_share = 0.1;
  f.poly_share = 0.08;
  f.perimeter_sides = 1.0;
  f.io_ns_per_load = 0.0;
  f.paged = false;
  return f;
}

PlanFeatures IoFeatures() {
  PlanFeatures f = MemoryFeatures();
  f.io_ns_per_load = 1000.0;  // The crossover study's smallest latency.
  return f;
}

TEST(SelectivityBucketTest, MapsSharesToLog2Buckets) {
  // Bucket b covers (2^-(b+1), 2^-b].
  EXPECT_EQ(QueryPlanner::SelectivityBucket(1.0), 0);
  EXPECT_EQ(QueryPlanner::SelectivityBucket(0.6), 0);
  EXPECT_EQ(QueryPlanner::SelectivityBucket(0.5), 1);
  EXPECT_EQ(QueryPlanner::SelectivityBucket(0.3), 1);
  EXPECT_EQ(QueryPlanner::SelectivityBucket(0.25), 2);
  EXPECT_EQ(QueryPlanner::SelectivityBucket(0.01), 6);
}

TEST(SelectivityBucketTest, ClampsDegenerateShares) {
  EXPECT_EQ(QueryPlanner::SelectivityBucket(0.0), kNumSelectivityBuckets - 1);
  EXPECT_EQ(QueryPlanner::SelectivityBucket(-0.5),
            kNumSelectivityBuckets - 1);
  EXPECT_EQ(QueryPlanner::SelectivityBucket(1e-9),
            kNumSelectivityBuckets - 1);
  EXPECT_EQ(QueryPlanner::SelectivityBucket(2.0), 0);
}

TEST(QueryPlannerTest, SeedModelPicksTraditionalInMemory) {
  // Raw in-memory timing: per-candidate CPU dominates and the window
  // filter's cheap per-candidate cost wins — the paper's Table I regime.
  const QueryPlanner planner;
  const QueryPlan plan = planner.Plan(MemoryFeatures(), PlanHints{});
  EXPECT_EQ(plan.method, DynamicMethod::kTraditional);
  EXPECT_FALSE(plan.io_bound);
  EXPECT_TRUE(plan.reason & plan_reason::kSeedModel);
  EXPECT_FALSE(plan.reason & plan_reason::kLearnedModel);
  EXPECT_FALSE(plan.reason & plan_reason::kIoBound);
  EXPECT_GT(plan.predicted_cost_ns, 0.0);
  EXPECT_GT(plan.predicted_candidates, 0.0);
}

TEST(QueryPlannerTest, SeedModelPicksVoronoiUnderIo) {
  // Simulated disk: every candidate costs a fetch, so the Voronoi
  // method's smaller candidate set wins — the paper's crossover.
  const QueryPlanner planner;
  const QueryPlan plan = planner.Plan(IoFeatures(), PlanHints{});
  EXPECT_EQ(plan.method, DynamicMethod::kVoronoi);
  EXPECT_TRUE(plan.io_bound);
  EXPECT_TRUE(plan.reason & plan_reason::kIoBound);
}

TEST(QueryPlannerTest, TinyDataFallsBackToBruteForce) {
  PlanFeatures f = MemoryFeatures();
  f.n = 100;  // Fixed index/prepare overheads dwarf 100 * 31ns.
  const QueryPlanner planner;
  const QueryPlan plan = planner.Plan(f, PlanHints{});
  EXPECT_EQ(plan.method, DynamicMethod::kBruteForce);
  EXPECT_TRUE(plan.reason & plan_reason::kTinyData);
}

TEST(QueryPlannerTest, SeedModelPicksNoBruteForLargeStarsOnFreshDatabase) {
  // A fresh database has no learned state, so the seed alone decides. At
  // 10^5 points a large star costs brute force 2-5x the window filter (it
  // tests every point, and the points inside the MBR pay the exact edge
  // test), so no such query may plan brute.
  const Box unit{{0.0, 0.0}, {1.0, 1.0}};
  Rng rng(1);
  const DynamicPointDatabase db(GenerateUniformPoints(100000, unit, &rng));
  for (const double size : {0.32, 0.64}) {
    PolygonSpec spec;
    spec.query_size_fraction = size;
    for (int i = 0; i < 50; ++i) {
      const Polygon area = GenerateQueryPolygon(spec, unit, &rng);
      EXPECT_NE(db.PlannedQuery()->PlanFor(area).method,
                DynamicMethod::kBruteForce)
          << "size " << size << ", polygon " << i;
    }
  }
}

TEST(QueryPlannerTest, SeedModelPicksNoVoronoiForThinStarsOnFreshDatabase) {
  // In memory the flood costs ~5x the window filter per candidate, so it
  // can only win when it visits far fewer points. Stars with a deep radius
  // floor fill little of their MBR, and the flood's shell follows their
  // long ring, so neither side of the estimate may flatter the flood.
  const Box unit{{0.0, 0.0}, {1.0, 1.0}};
  Rng rng(1);
  const DynamicPointDatabase db(GenerateUniformPoints(100000, unit, &rng));
  for (const double size : {0.32, 0.50, 0.64}) {
    PolygonSpec spec;
    spec.query_size_fraction = size;
    spec.min_radius_fraction = 0.1;
    for (int i = 0; i < 50; ++i) {
      const Polygon area = GenerateQueryPolygon(spec, unit, &rng);
      EXPECT_NE(db.PlannedQuery()->PlanFor(area).method,
                DynamicMethod::kVoronoi)
          << "size " << size << ", polygon " << i;
    }
  }
}

TEST(QueryPlannerTest, ForcedMethodShortCircuitsTheModel) {
  PlanHints hints;
  hints.force_method = DynamicMethod::kGridSweep;
  const QueryPlanner planner;
  const QueryPlan plan = planner.Plan(IoFeatures(), hints);
  EXPECT_EQ(plan.method, DynamicMethod::kGridSweep);
  EXPECT_TRUE(plan.reason & plan_reason::kForced);
  // Forcing still yields honest predictions for the forced method.
  EXPECT_GT(plan.predicted_cost_ns, 0.0);
  // Forcing brute must not masquerade as a tiny-data decision.
  hints.force_method = DynamicMethod::kBruteForce;
  const QueryPlan forced_brute = planner.Plan(MemoryFeatures(), hints);
  EXPECT_FALSE(forced_brute.reason & plan_reason::kTinyData);
}

TEST(QueryPlannerTest, ExpectedTestsTracksPredictionClampedToN) {
  const QueryPlanner planner;
  PlanFeatures f = MemoryFeatures();
  const QueryPlan plan = planner.Plan(f, PlanHints{});
  EXPECT_EQ(plan.expected_tests,
            static_cast<std::size_t>(plan.predicted_candidates));
  PlanHints brute;
  brute.force_method = DynamicMethod::kBruteForce;
  const QueryPlan all = planner.Plan(f, brute);
  EXPECT_LE(all.expected_tests, f.n);
}

TEST(QueryPlannerTest, ObserveLearnsAndFlipsTheChoice) {
  // Feed the planner evidence that traditional is 8x slower than the
  // seed claims in this (memory, bucket) slot; after a few EWMA steps it
  // must switch to the runner-up and report the choice as learned.
  QueryPlanner planner;
  const PlanFeatures f = MemoryFeatures();
  QueryPlan plan = planner.Plan(f, PlanHints{});
  ASSERT_EQ(plan.method, DynamicMethod::kTraditional);
  for (int i = 0; i < 6; ++i) {
    plan = planner.Plan(f, PlanHints{});
    if (plan.method != DynamicMethod::kTraditional) break;
    QueryStats stats;
    stats.candidates =
        static_cast<std::uint64_t>(plan.predicted_candidates);
    stats.elapsed_ms = plan.predicted_cost_ns * 8.0 / 1e6;
    planner.Observe(plan, f, stats);
  }
  const QueryPlan after = planner.Plan(f, PlanHints{});
  EXPECT_NE(after.method, DynamicMethod::kTraditional);
  EXPECT_GT(planner.TimeFactor(DynamicMethod::kTraditional, plan.bucket,
                               /*io_bound=*/false),
            1.5);
  EXPECT_GT(planner.observations(), 0u);
}

TEST(QueryPlannerTest, FirstObservationSeedsLaterOnesDecay) {
  QueryPlanner planner;
  const PlanFeatures f = MemoryFeatures();
  const QueryPlan plan = planner.Plan(f, PlanHints{});
  QueryStats stats;
  stats.candidates = static_cast<std::uint64_t>(plan.predicted_candidates);
  stats.elapsed_ms = plan.predicted_cost_ns * 2.0 / 1e6;
  planner.Observe(plan, f, stats);
  // First observation seeds the factor outright (no decay from 1.0).
  EXPECT_NEAR(planner.TimeFactor(plan.method, plan.bucket, false), 2.0,
              1e-9);
  // A second, perfectly-predicted query decays it back toward 1 by alpha.
  // Force the method: the inflated factor may have flipped the unforced
  // choice, and the test must keep observing the same slot.
  PlanHints pin;
  pin.force_method = plan.method;
  const QueryPlan plan2 = planner.Plan(f, pin);
  QueryStats exact;
  exact.candidates =
      static_cast<std::uint64_t>(plan2.predicted_candidates);
  // plan2's prediction already includes the 2.0 factor; measured equal to
  // raw-model cost means ratio 1.
  exact.elapsed_ms = plan2.predicted_cost_ns / 2.0 / 1e6;
  planner.Observe(plan2, f, exact);
  EXPECT_NEAR(planner.TimeFactor(plan2.method, plan2.bucket, false),
              2.0 + 0.25 * (1.0 - 2.0), 1e-9);
}

TEST(QueryPlannerTest, FactorsClampAgainstOutliers) {
  QueryPlanner planner;
  const PlanFeatures f = MemoryFeatures();
  for (int i = 0; i < 20; ++i) {
    PlanHints pin;
    pin.force_method = DynamicMethod::kTraditional;
    const QueryPlan plan = planner.Plan(f, pin);
    QueryStats stats;
    stats.candidates =
        static_cast<std::uint64_t>(plan.predicted_candidates * 1000.0);
    stats.elapsed_ms = plan.predicted_cost_ns * 1000.0 / 1e6;
    planner.Observe(plan, f, stats);
  }
  EXPECT_LE(planner.TimeFactor(DynamicMethod::kTraditional,
                               QueryPlanner::SelectivityBucket(f.mbr_share),
                               false),
            8.0);
  EXPECT_LE(planner.CandFactor(DynamicMethod::kTraditional,
                               QueryPlanner::SelectivityBucket(f.mbr_share),
                               false),
            8.0);
}

TEST(QueryPlannerTest, LearnedSlotsAreKeyedPerIoClassAndBucket) {
  // Poisoning the memory slot must not leak into the IO slot or into a
  // different selectivity bucket.
  QueryPlanner planner;
  const PlanFeatures f = MemoryFeatures();
  const QueryPlan plan = planner.Plan(f, PlanHints{});
  QueryStats stats;
  stats.candidates = static_cast<std::uint64_t>(plan.predicted_candidates);
  stats.elapsed_ms = plan.predicted_cost_ns * 4.0 / 1e6;
  planner.Observe(plan, f, stats);
  EXPECT_NEAR(planner.TimeFactor(plan.method, plan.bucket, true), 1.0,
              1e-12);
  EXPECT_NEAR(
      planner.TimeFactor(plan.method, (plan.bucket + 1) % 8, false), 1.0,
      1e-12);
}

TEST(QueryPlannerTest, ScatterOnlyWhenLegsAmortiseTheOverhead) {
  // Large sharded database, broad query: plenty of surviving shards and
  // leg cost far above the submit overhead -> scatter.
  PlanFeatures f = IoFeatures();
  f.n = 1000000;
  f.num_shards = 8;
  f.mbr_share = 0.5;
  f.poly_share = 0.4;
  const QueryPlanner planner;
  const QueryPlan fan = planner.Plan(f, PlanHints{});
  EXPECT_TRUE(fan.scatter);
  EXPECT_TRUE(fan.reason & plan_reason::kScatter);
  EXPECT_FALSE(fan.reason & plan_reason::kInline);

  // Tiny selective query: at most one shard survives the MBR prune, so
  // fanning out cannot win.
  PlanFeatures narrow = f;
  narrow.mbr_share = 0.01;
  narrow.poly_share = 0.008;
  const QueryPlan inl = planner.Plan(narrow, PlanHints{});
  EXPECT_FALSE(inl.scatter);
  EXPECT_TRUE(inl.reason & plan_reason::kInline);

  // The caller's opt-out pins the plan inline regardless of cost.
  PlanHints no_fan;
  no_fan.allow_scatter = false;
  const QueryPlan pinned = planner.Plan(f, no_fan);
  EXPECT_FALSE(pinned.scatter);
  EXPECT_TRUE(pinned.reason & plan_reason::kInline);

  // Unsharded plans carry neither fanout bit.
  const QueryPlan flat = planner.Plan(MemoryFeatures(), PlanHints{});
  EXPECT_FALSE(flat.reason &
               (plan_reason::kScatter | plan_reason::kInline));
}

TEST(CostModelTest, CandidateEstimatesMatchTheClosedForms) {
  const CostModel model;
  const PlanFeatures f = MemoryFeatures();
  EXPECT_DOUBLE_EQ(
      model.ExpectedCandidates(DynamicMethod::kTraditional, f),
      static_cast<double>(f.n) * f.mbr_share);
  EXPECT_DOUBLE_EQ(model.ExpectedCandidates(DynamicMethod::kGridSweep, f),
                   static_cast<double>(f.n) * f.mbr_share);
  EXPECT_DOUBLE_EQ(model.ExpectedCandidates(DynamicMethod::kBruteForce, f),
                   static_cast<double>(f.n));
  const double n = static_cast<double>(f.n);
  EXPECT_DOUBLE_EQ(
      model.ExpectedCandidates(DynamicMethod::kVoronoi, f),
      n * f.poly_share + model.shell_coeff * f.perimeter_sides * std::sqrt(n));
}

TEST(CostModelTest, IoPerLoadReflectsBackendConfiguration) {
  const CostModel model;
  PlanFeatures f = MemoryFeatures();
  EXPECT_DOUBLE_EQ(model.IoNsPerLoad(f), 0.0);
  f.paged = true;
  EXPECT_DOUBLE_EQ(model.IoNsPerLoad(f), model.paged_load_ns);
  f.io_ns_per_load = 1000.0;
  EXPECT_GE(model.IoNsPerLoad(f), 1000.0);
}

}  // namespace
}  // namespace vaq
