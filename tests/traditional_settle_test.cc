// The traditional method settles whole R-tree leaves against the prepared
// grid and fetches only the points of straddling leaves. That must change
// neither its answers nor the paper's counters: over stars, combs, U shapes
// and corridors — including windows whose edges cut through leaves and pass
// exactly through data points — forced traditional returns brute force's
// ids, `candidates` is the number of points in MBR(A), and every candidate
// is charged one geometry load and counted once as a hit or a rejection.
//
// VAQ_TEST_STORAGE=mmap (or mmap_uring) serves the database from the paged
// backend behind a tiny cache; VAQ_FORCE_SCALAR=1 pins the scalar kernels.

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_area_query.h"
#include "core/dynamic_point_database.h"
#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "planner/query_plan.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

StorageOptions TestStorageFromEnv() {
  StorageOptions storage;
  const char* env = std::getenv("VAQ_TEST_STORAGE");
  if (env == nullptr) return storage;
  if (std::strcmp(env, "mmap") == 0) {
    storage.backend = StorageBackend::kMmap;
  } else if (std::strcmp(env, "mmap_uring") == 0) {
    storage.backend = StorageBackend::kMmapUring;
  }
  storage.cache_pages = 8;  // Tiny: force genuine evictions and misses.
  return storage;
}

struct Shape {
  std::string name;
  Polygon area;
};

/// The corpus: random stars at the served sizes, combs, both U
/// orientations, a diagonal and an L-shaped corridor (large MBR, tiny
/// area: almost every leaf settles outside), and rectangles, whose MBR is
/// the polygon itself, placed so their edges run exactly through data
/// points.
std::vector<Shape> Corpus(const std::vector<Point>& points, Rng* rng) {
  std::vector<Shape> shapes;
  PolygonSpec spec;
  for (const double size : {0.01, 0.08, 0.32}) {
    spec.query_size_fraction = size;
    for (int i = 0; i < 6; ++i) {
      shapes.push_back({"star", GenerateQueryPolygon(spec, kUnit, rng)});
    }
  }
  for (const int teeth : {3, 8, 16}) {
    const double x = rng->Uniform(0.0, 0.3);
    const double y = rng->Uniform(0.0, 0.3);
    shapes.push_back(
        {"comb", GenerateCombPolygon(Box{{x, y}, {x + 0.6, y + 0.5}},
                                     teeth)});
  }
  for (const bool down : {true, false}) {
    shapes.push_back(
        {"U", GenerateUPolygon(Box{{0.15, 0.2}, {0.8, 0.75}}, 0.07, down)});
    const Box wide{{0.05, 0.1}, {0.95, 0.9}};
    shapes.push_back({"thin U", GenerateUPolygon(wide, 0.01, down)});
  }
  shapes.push_back({"diagonal corridor",
                    Polygon({{0.1, 0.12}, {0.12, 0.1}, {0.9, 0.88},
                             {0.88, 0.9}})});
  shapes.push_back({"L corridor",
                    Polygon({{0.1, 0.1}, {0.9, 0.1}, {0.9, 0.13},
                             {0.13, 0.13}, {0.13, 0.9}, {0.1, 0.9}})});
  for (int i = 0; i < 4; ++i) {
    const Point& a = points[rng->UniformInt(0, points.size() - 1)];
    const Point& b = points[rng->UniformInt(0, points.size() - 1)];
    Box r;
    r.ExpandToInclude(a);
    r.ExpandToInclude(b);
    if (r.Width() <= 0.0 || r.Height() <= 0.0) continue;
    shapes.push_back({"rectangle",
                      Polygon({r.min, {r.max.x, r.min.y}, r.max,
                               {r.min.x, r.max.y}})});
  }
  return shapes;
}

std::uint64_t PointsInBox(const std::vector<Point>& points, const Box& box) {
  std::uint64_t n = 0;
  for (const Point& p : points) n += box.Contains(p) ? 1 : 0;
  return n;
}

TEST(TraditionalSettleTest, MatchesBruteForceAndKeepsTheCounters) {
  for (const PointDistribution distribution :
       {PointDistribution::kUniform, PointDistribution::kClustered}) {
    Rng rng(1606);
    PointDatabase::Options options;
    options.storage = TestStorageFromEnv();
    const PointDatabase db(GeneratePoints(20000, kUnit, distribution, &rng),
                           options);
    const TraditionalAreaQuery trad(&db);
    const BruteForceAreaQuery brute(&db);
    QueryContext ctx;
    for (const Shape& shape : Corpus(db.points(), &rng)) {
      SCOPED_TRACE(shape.name);
      const std::vector<PointId> truth = brute.Run(shape.area, ctx);
      EXPECT_EQ(trad.Run(shape.area, ctx), truth);
      const QueryStats& s = ctx.stats;
      EXPECT_EQ(s.candidates, PointsInBox(db.points(), shape.area.Bounds()));
      EXPECT_EQ(s.results, truth.size());
      EXPECT_EQ(s.candidate_hits, s.results);
      EXPECT_EQ(s.visited_rejected, s.candidates - s.results);
      EXPECT_EQ(s.geometry_loads, s.candidates);
      EXPECT_EQ(s.bulk_accepted, 0u);
      EXPECT_EQ(s.page_cache_hits + s.page_cache_misses, s.pages_touched);
      if (s.candidates > 0) {
        EXPECT_NE(s.kernel_kind, 0u);
      }
    }
  }
}

TEST(TraditionalSettleTest, SettledLeavesTouchNoPage) {
  // Pages of 16 points, the size of a leaf. Fetching every candidate
  // would touch at least candidates / 16 pages; with the interior leaves
  // of a large square settled, only the leaves along its border are
  // fetched.
  Rng rng(99);
  PointDatabase::Options options;
  options.storage.backend = StorageBackend::kMmap;
  options.storage.page_size_bytes = 256;
  options.storage.cache_pages = 8;
  const PointDatabase db(GenerateUniformPoints(20000, kUnit, &rng), options);
  ASSERT_NE(db.page_store(), nullptr);
  const std::size_t per_page = db.page_store()->points_per_page();
  ASSERT_EQ(per_page, 16u);
  const Polygon square({{0.1, 0.1}, {0.9, 0.1}, {0.9, 0.9}, {0.1, 0.9}});
  const TraditionalAreaQuery trad(&db);
  QueryContext ctx;
  const std::vector<PointId> ids = trad.Run(square, ctx);
  EXPECT_EQ(ids.size(), PointsInBox(db.points(), square.Bounds()));
  EXPECT_EQ(ctx.stats.geometry_loads, ctx.stats.candidates);
  EXPECT_GT(ctx.stats.pages_touched, 0u);
  EXPECT_LT(2 * ctx.stats.pages_touched, ctx.stats.candidates / per_page);
}

TEST(TraditionalSettleTest, ServedPathMatchesBruteForce) {
  // The same corpus through the database `vaq_server` serves, forced to
  // traditional (uncached: the cache key ignores the method).
  Rng rng(2718);
  DynamicPointDatabase::Options options;
  options.base.storage = TestStorageFromEnv();
  const std::vector<Point> points = GenerateUniformPoints(20000, kUnit, &rng);
  const DynamicPointDatabase db(points, options);
  QueryContext ctx;
  const PlanHints traditional{.force_method = DynamicMethod::kTraditional,
                              .use_cache = false};
  const PlanHints brute{.force_method = DynamicMethod::kBruteForce,
                        .use_cache = false};
  for (const Shape& shape : Corpus(points, &rng)) {
    SCOPED_TRACE(shape.name);
    const std::vector<PointId> truth = db.Query(shape.area, ctx, brute);
    EXPECT_EQ(db.Query(shape.area, ctx, traditional), truth);
    EXPECT_EQ(ctx.stats.candidates,
              PointsInBox(points, shape.area.Bounds()));
    EXPECT_EQ(ctx.stats.geometry_loads, ctx.stats.candidates);
  }
}

}  // namespace
}  // namespace vaq
