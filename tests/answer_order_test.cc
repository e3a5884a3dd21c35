// The ordering contract of every served answer: ids strictly ascending in
// the id space the caller sees, and equal to a brute-force scan of the
// live point set. The served digests (count + sum) cannot see an ordering
// bug, so this is the test that does.
//
// Composite queries order once, in the client's ids: the dynamic path
// fuses tombstone skip, stable-id remap and delta merge into one pass, a
// sharded answer's legs come back unordered and the gather sorts once.
// Each path is run on polygons on both sides of the bitmap/sort crossover
// (`QueryContext::UseBitmapOrder`), over a database with tombstoned base
// points and a non-empty delta.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_area_query.h"
#include "core/dynamic_point_database.h"
#include "engine/query_engine.h"
#include "geometry/wkt.h"
#include "server/client.h"
#include "server/query_server.h"
#include "shard/sharded_area_query.h"
#include "shard/sharded_database.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};
constexpr std::size_t kPoints = 20000;

constexpr DynamicMethod kMethods[] = {
    DynamicMethod::kTraditional, DynamicMethod::kVoronoi,
    DynamicMethod::kGridSweep, DynamicMethod::kBruteForce};
/// The four forced methods, then the planner's own choice.
constexpr std::optional<DynamicMethod> kPlans[] = {
    DynamicMethod::kTraditional, DynamicMethod::kVoronoi,
    DynamicMethod::kGridSweep, DynamicMethod::kBruteForce, std::nullopt};

Polygon Square(Point center, double half) {
  return Polygon{{{center.x - half, center.y - half},
                  {center.x + half, center.y - half},
                  {center.x + half, center.y + half},
                  {center.x - half, center.y + half}}};
}

struct Case {
  std::string name;
  Polygon area;
};

/// Empty, tiny (comparison-sort side), 1% and 32% (bitmap side).
std::vector<Case> Cases(Point tiny_center) {
  Rng rng(314);
  PolygonSpec one;
  one.query_size_fraction = 0.01;
  PolygonSpec big;
  big.query_size_fraction = 0.32;
  return {{"empty", Square({2.5, 2.5}, 0.1)},
          {"tiny", Square(tiny_center, 0.012)},
          {"1%", GenerateQueryPolygon(one, kUnit, &rng)},
          {"32%", GenerateQueryPolygon(big, kUnit, &rng)}};
}

/// The live set, tracked beside the database under test: stable id ->
/// point, iterated in ascending id order.
using LiveSet = std::map<PointId, Point>;

std::vector<PointId> BruteForce(const LiveSet& live, const Polygon& area) {
  std::vector<PointId> ids;
  for (const auto& [id, p] : live) {
    if (area.Contains(p)) ids.push_back(id);
  }
  return ids;
}

::testing::AssertionResult AscendingAndExact(
    const std::vector<PointId>& ids, const std::vector<PointId>& truth) {
  for (std::size_t i = 1; i < ids.size(); ++i) {
    if (ids[i - 1] >= ids[i]) {
      return ::testing::AssertionFailure()
             << "not strictly ascending at position " << i << ": "
             << ids[i - 1] << " then " << ids[i];
    }
  }
  if (ids != truth) {
    return ::testing::AssertionFailure()
           << ids.size() << " ids differ from the brute-force "
           << truth.size();
  }
  return ::testing::AssertionSuccess();
}

std::string Label(const Case& c, std::optional<DynamicMethod> m) {
  return c.name + " / " + (m ? std::string(MethodName(*m)) : "auto");
}

/// Applies the same mutations to either database: tombstones about a
/// tenth of the base (including the tiny polygon's centre point), then
/// inserts a delta of fresh points (some inside the tiny polygon) and
/// erases a few of them again.
template <typename Db>
void Mutate(Db& db, LiveSet& live, Point tiny_center) {
  Rng rng(99);
  for (PointId id = 0; id < kPoints; id += 10) {
    ASSERT_TRUE(db.Erase(id));
    live.erase(id);
  }
  std::vector<Point> fresh = GenerateUniformPoints(600, kUnit, &rng);
  for (int i = 0; i < 4; ++i) {
    fresh.push_back({tiny_center.x + 0.002 * (i + 1), tiny_center.y});
  }
  std::vector<PointId> inserted;
  for (const Point& p : fresh) {
    const std::optional<PointId> id = db.Insert(p);
    if (!id) continue;
    live[*id] = p;
    inserted.push_back(*id);
  }
  for (std::size_t i = 0; i < inserted.size(); i += 7) {
    ASSERT_TRUE(db.Erase(inserted[i]));
    live.erase(inserted[i]);
  }
}

class AnswerOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2026);
    points_ = GenerateUniformPoints(kPoints, kUnit, &rng);
    // Base id 0 is tombstoned by `Mutate`; the tiny polygon sits on it.
    tiny_center_ = points_[0];
    for (PointId id = 0; id < kPoints; ++id) live_[id] = points_[id];
  }

  std::vector<Point> points_;
  Point tiny_center_;
  LiveSet live_;
};

TEST_F(AnswerOrderTest, DynamicAnswersAscendInStableIds) {
  DynamicPointDatabase::Options options;
  options.auto_compact = false;
  DynamicPointDatabase db(points_, options);
  ASSERT_NO_FATAL_FAILURE(Mutate(db, live_, tiny_center_));
  const auto snap = db.snapshot();
  ASSERT_GT(snap->delta_size(), 0u);
  ASSERT_LT(snap->live_size(), snap->base().size() + snap->delta_size());

  // The cases straddle the crossover, so both ordering branches run.
  const std::vector<Case> cases = Cases(tiny_center_);
  const std::size_t tiny = BruteForce(live_, cases[1].area).size();
  ASSERT_TRUE(BruteForce(live_, cases[0].area).empty());
  ASSERT_GT(tiny, 0u);
  ASSERT_FALSE(QueryContext::UseBitmapOrder(tiny + 8, snap->stable_limit()));
  ASSERT_TRUE(QueryContext::UseBitmapOrder(
      BruteForce(live_, cases[2].area).size(), snap->stable_limit()));

  QueryContext ctx;
  for (const Case& c : cases) {
    const std::vector<PointId> truth = BruteForce(live_, c.area);
    for (const DynamicMethod m : kMethods) {
      const std::vector<PointId> ids =
          RunDynamicSnapshotQuery(*snap, m, c.area, ctx);
      EXPECT_TRUE(AscendingAndExact(ids, truth)) << Label(c, m);
      EXPECT_EQ(ctx.stats.results, ids.size()) << Label(c, m);
    }
    for (const std::optional<DynamicMethod> m : kPlans) {
      PlanHints hints;
      hints.force_method = m;
      hints.use_cache = false;
      EXPECT_TRUE(AscendingAndExact(db.Query(c.area, ctx, hints), truth))
          << Label(c, m);
    }
    // The planned path through the result cache: a declined miss, an
    // admitted miss, then a hit served from the stored copy.
    for (int run = 0; run < 3; ++run) {
      EXPECT_TRUE(AscendingAndExact(db.Query(c.area, ctx), truth))
          << Label(c, std::nullopt) << " cached run " << run;
    }
  }
}

TEST_F(AnswerOrderTest, ShardedGatherAscendsInGlobalIds) {
  ShardedDatabase::Options options;
  options.num_shards = 4;
  options.shard.auto_compact = false;
  ShardedDatabase db(points_, options);
  ASSERT_NO_FATAL_FAILURE(Mutate(db, live_, tiny_center_));
  QueryEngine scatter({.num_threads = 2});

  QueryContext ctx;
  for (const Case& c : Cases(tiny_center_)) {
    const std::vector<PointId> truth = BruteForce(live_, c.area);
    for (const DynamicMethod m : kMethods) {
      EXPECT_TRUE(AscendingAndExact(
          RunShardedSnapshotQuery(*db.snapshot(), m, c.area, ctx, nullptr, {}),
          truth))
          << Label(c, m) << " inline";
      EXPECT_TRUE(AscendingAndExact(RunShardedSnapshotQuery(*db.snapshot(), m,
                                                            c.area, ctx,
                                                            &scatter, {}),
                                    truth))
          << Label(c, m) << " scattered";
    }
    EXPECT_TRUE(AscendingAndExact(db.Query(c.area, ctx, &scatter), truth))
        << Label(c, std::nullopt);
  }
}

TEST_F(AnswerOrderTest, WireAnswersAscend) {
  DynamicPointDatabase::Options options;
  options.auto_compact = false;
  DynamicPointDatabase db(points_, options);
  ASSERT_NO_FATAL_FAILURE(Mutate(db, live_, tiny_center_));
  QueryServer::Options server_options;
  server_options.engine_threads = 2;
  QueryServer server(&db, server_options);
  server.Start();
  QueryClient client(server.port());

  for (const Case& c : Cases(tiny_center_)) {
    const std::vector<PointId> truth = BruteForce(live_, c.area);
    for (const std::optional<DynamicMethod> m : kPlans) {
      WireQueryRequest req;
      req.force_method = m;
      req.use_cache = false;
      req.wkt = ToWkt(c.area);
      EXPECT_TRUE(AscendingAndExact(client.Query(req).ids, truth))
          << Label(c, m);
    }
  }
  server.Stop();
}

}  // namespace
}  // namespace vaq
