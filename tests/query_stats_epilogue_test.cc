// Regression: every exit path of `VoronoiAreaQuery::Run` — including the
// empty-database early return — must leave a fully populated stats slot
// (`elapsed_ms`, `index_node_accesses`), not the half-reset state the
// pre-epilogue code left behind.
//
// Also asserts the candidate-accounting invariant: the flood reports its
// visited-but-rejected candidates (the boundary shell) distinctly, so
//   candidates == candidate_hits + visited_rejected
// and `candidate_hits == results` on every exit path — the epilogue no
// longer hides the flood's true visited counts behind the result count.

#include <gtest/gtest.h>

#include "core/point_database.h"
#include "core/voronoi_area_query.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit{{0.0, 0.0}, {1.0, 1.0}};

void ExpectCandidateInvariant(const QueryStats& s) {
  EXPECT_EQ(s.candidate_hits, s.results);
  EXPECT_EQ(s.candidates, s.candidate_hits + s.visited_rejected);
  EXPECT_EQ(s.RedundantValidations(), s.visited_rejected);
}

Polygon TestArea() {
  Rng qrng(7);
  PolygonSpec spec;
  spec.query_size_fraction = 0.05;
  return GenerateQueryPolygon(spec, kUnit, &qrng);
}

TEST(QueryStatsEpilogueTest, EmptyDatabaseFillsStats) {
  PointDatabase db(std::vector<Point>{});
  const VoronoiAreaQuery vaq(&db);
  QueryContext ctx;
  // Poison the slot: Run must overwrite every field via its Reset() +
  // epilogue, not leave stale values or zeros from a skipped epilogue.
  ctx.stats.elapsed_ms = -1.0;
  ctx.stats.index_node_accesses = 12345;
  ctx.stats.results = 999;
  EXPECT_TRUE(vaq.Run(TestArea(), ctx).empty());
  EXPECT_GT(ctx.stats.elapsed_ms, 0.0);
  EXPECT_EQ(ctx.stats.index_node_accesses, 0u);
  EXPECT_EQ(ctx.stats.results, 0u);
  EXPECT_EQ(ctx.stats.candidates, 0u);
  ExpectCandidateInvariant(ctx.stats);
}

TEST(QueryStatsEpilogueTest, NormalRunStillFillsStats) {
  Rng rng(56);
  PointDatabase db(GenerateUniformPoints(2000, kUnit, &rng));
  const VoronoiAreaQuery vaq(&db);
  QueryContext ctx;
  const auto result = vaq.Run(TestArea(), ctx);
  EXPECT_FALSE(result.empty());
  EXPECT_GT(ctx.stats.elapsed_ms, 0.0);
  EXPECT_GT(ctx.stats.index_node_accesses, 0u);
  EXPECT_EQ(ctx.stats.results, result.size());
  EXPECT_GE(ctx.stats.candidates, ctx.stats.results);
  // A normal run visits a non-empty boundary shell: the rejected
  // candidates must be reported, not folded into the hit count.
  EXPECT_GT(ctx.stats.visited_rejected, 0u);
  ExpectCandidateInvariant(ctx.stats);
}

TEST(QueryStatsEpilogueTest, PagedRunKeepsFetchAccountingInvariant) {
  // On a paged backend the epilogue additionally owns the page counters:
  //   page_cache_hits + page_cache_misses == pages_touched
  // must hold on a populated stats slot, and a flood over a cache smaller
  // than the dataset must report real page traffic.
  Rng rng(57);
  PointDatabase::Options options;
  options.storage.backend = StorageBackend::kMmap;
  options.storage.cache_pages = 4;  // 2000 pts ≈ 8 pages of 4 KiB.
  PointDatabase db(GenerateUniformPoints(2000, kUnit, &rng), options);
  const VoronoiAreaQuery vaq(&db);
  QueryContext ctx;
  ctx.stats.pages_touched = 12345;  // Poison: Run must reset, then count.
  const auto result = vaq.Run(TestArea(), ctx);
  EXPECT_FALSE(result.empty());
  EXPECT_GT(ctx.stats.pages_touched, 0u);
  EXPECT_EQ(ctx.stats.page_cache_hits + ctx.stats.page_cache_misses,
            ctx.stats.pages_touched);
  ExpectCandidateInvariant(ctx.stats);
}

}  // namespace
}  // namespace vaq
