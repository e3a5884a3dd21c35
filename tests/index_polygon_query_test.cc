// Polygon-aware index filtering: `SpatialIndex::PolygonQuery` must return
// exactly the brute-force polygon filter on every index (R-tree bulk
// loaded and dynamically grown, kd-tree, quadtree, uniform grid), while
// pruning outside subtrees and bulk-accepting inside ones.

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "delaunay/hilbert.h"
#include "geometry/prepared_area.h"
#include "index/grid_index.h"
#include "index/kdtree.h"
#include "index/quadtree.h"
#include "index/rtree.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit{{0.0, 0.0}, {1.0, 1.0}};

std::vector<PointId> BruteFilter(const std::vector<Point>& points,
                                 const Polygon& poly) {
  std::vector<PointId> out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (poly.Contains(points[i])) out.push_back(static_cast<PointId>(i));
  }
  return out;
}

class IndexPolygonQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(321);
    const auto generated = GeneratePoints(
        4000, kUnit, PointDistribution::kClustered, &rng);
    // Hilbert order, the order `PointDatabase` stores points in and the
    // one the packed R-tree load turns into tight leaves.
    for (const std::uint32_t i : HilbertOrder(generated)) {
      points_.push_back(generated[i]);
    }
    indexes_.push_back(std::make_unique<RTree>());
    indexes_.push_back(std::make_unique<KDTree>());
    indexes_.push_back(std::make_unique<Quadtree>());
    indexes_.push_back(std::make_unique<GridIndex>());
    for (auto& index : indexes_) index->Build(points_);
  }

  std::vector<Point> points_;
  std::vector<std::unique_ptr<SpatialIndex>> indexes_;
};

TEST_F(IndexPolygonQueryTest, MatchesBruteForceOnEveryIndex) {
  Rng qrng(654);
  PolygonSpec spec;
  for (const double qs : {0.01, 0.08, 0.32}) {
    spec.query_size_fraction = qs;
    for (int rep = 0; rep < 10; ++rep) {
      const Polygon area = GenerateQueryPolygon(spec, kUnit, &qrng);
      const PreparedArea prep(area);
      const std::vector<PointId> truth = BruteFilter(points_, area);
      for (const auto& index : indexes_) {
        std::vector<PointId> got;
        index->PolygonQuery(prep, &got);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, truth)
            << index->Name() << " qs " << qs << " rep " << rep;
      }
    }
  }
}

TEST_F(IndexPolygonQueryTest, BulkAcceptsAndPrunes) {
  // A large query area must produce bulk-accepted points on tree indexes
  // and touch fewer nodes than window-query + full refinement would.
  Rng qrng(99);
  PolygonSpec spec;
  spec.query_size_fraction = 0.32;
  const Polygon area = GenerateQueryPolygon(spec, kUnit, &qrng);
  const PreparedArea prep(area);
  for (const auto& index : indexes_) {
    IndexStats stats;
    std::vector<PointId> got;
    index->PolygonQuery(prep, &got, &stats);
    EXPECT_GT(stats.bulk_accepted, 0u) << index->Name();
    EXPECT_LE(stats.bulk_accepted, stats.entries_reported) << index->Name();
    EXPECT_EQ(stats.entries_reported, got.size()) << index->Name();
  }
}

TEST_F(IndexPolygonQueryTest, DynamicallyGrownRTree) {
  RTree rtree;
  rtree.Build(points_);
  Rng rng(12);
  std::vector<Point> all = points_;
  for (int i = 0; i < 500; ++i) {
    const Point p{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    rtree.Insert(p, static_cast<PointId>(all.size()));
    all.push_back(p);
  }
  Rng qrng(13);
  PolygonSpec spec;
  spec.query_size_fraction = 0.16;
  for (int rep = 0; rep < 5; ++rep) {
    const Polygon area = GenerateQueryPolygon(spec, kUnit, &qrng);
    const PreparedArea prep(area);
    std::vector<PointId> got;
    rtree.PolygonQuery(prep, &got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, BruteFilter(all, area)) << "rep " << rep;
  }
}

TEST_F(IndexPolygonQueryTest, EmptyIndexAndDisjointArea) {
  RTree empty;
  empty.Build({});
  Rng qrng(5);
  PolygonSpec spec;
  const Polygon area = GenerateQueryPolygon(spec, kUnit, &qrng);
  const PreparedArea prep(area);
  std::vector<PointId> got;
  empty.PolygonQuery(prep, &got);
  EXPECT_TRUE(got.empty());

  // Area entirely off the data domain: everything prunes.
  const Polygon off = Polygon::FromBox(Box::FromExtents(5, 5, 6, 6));
  const PreparedArea off_prep(off);
  for (const auto& index : indexes_) {
    got.clear();
    IndexStats stats;
    index->PolygonQuery(off_prep, &got, &stats);
    EXPECT_TRUE(got.empty()) << index->Name();
  }
}

TEST_F(IndexPolygonQueryTest, TraditionalPolygonFilterMatchesWindowFilter) {
  PointDatabase db(points_);
  const TraditionalAreaQuery window_filter(&db);
  TraditionalAreaQuery::Options options;
  options.filter = TraditionalAreaQuery::Filter::kPolygonIndex;
  const TraditionalAreaQuery polygon_filter(&db, options);
  EXPECT_EQ(polygon_filter.Name(), "traditional-polyfilter");

  Rng qrng(31);
  PolygonSpec spec;
  for (const double qs : {0.01, 0.32}) {
    spec.query_size_fraction = qs;
    for (int rep = 0; rep < 8; ++rep) {
      const Polygon area = GenerateQueryPolygon(spec, kUnit, &qrng);
      QueryStats ws, ps;
      const auto expected = window_filter.Run(area, &ws);
      const auto got = polygon_filter.Run(area, &ps);
      EXPECT_EQ(got, expected) << "qs " << qs << " rep " << rep;
      // The polygon filter's candidate set is the result set: no redundant
      // validations, and every fetched object is returned.
      EXPECT_EQ(ps.candidates, ps.results);
      EXPECT_EQ(ps.RedundantValidations(), 0u);
      EXPECT_LE(ps.candidates, ws.candidates);
    }
  }
}

}  // namespace
}  // namespace vaq
