// google-benchmark micro-benchmarks of the four spatial indexes:
// build, window query and nearest-neighbour throughput. Every index reads
// the points in Hilbert order, the order `PointDatabase` stores them in.

#include <map>
#include <memory>

#include <benchmark/benchmark.h>

#include "delaunay/hilbert.h"
#include "index/grid_index.h"
#include "index/kdtree.h"
#include "index/quadtree.h"
#include "index/rtree.h"
#include "workload/point_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit{{0.0, 0.0}, {1.0, 1.0}};

std::unique_ptr<SpatialIndex> MakeIndex(int kind) {
  switch (kind) {
    case 0: return std::make_unique<RTree>();
    case 1: return std::make_unique<KDTree>();
    case 2: return std::make_unique<Quadtree>();
    default: return std::make_unique<GridIndex>();
  }
}

const char* KindName(int kind) {
  switch (kind) {
    case 0: return "rtree";
    case 1: return "kdtree";
    case 2: return "quadtree";
    default: return "grid";
  }
}

const std::vector<Point>& SharedPoints(std::size_t n) {
  static auto* cache = new std::map<std::size_t, std::vector<Point>>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    Rng rng(4242);
    const auto raw = GenerateUniformPoints(n, kUnit, &rng);
    std::vector<Point> ordered;
    ordered.reserve(n);
    for (const std::uint32_t i : HilbertOrder(raw)) ordered.push_back(raw[i]);
    it = cache->emplace(n, std::move(ordered)).first;
  }
  return it->second;
}

void BM_IndexBuild(benchmark::State& state) {
  const auto& points = SharedPoints(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    auto index = MakeIndex(static_cast<int>(state.range(0)));
    index->Build(points);
    benchmark::DoNotOptimize(index->size());
  }
  state.SetLabel(KindName(static_cast<int>(state.range(0))));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_IndexBuild)
    ->ArgsProduct({{0, 1, 2, 3}, {100000}})
    ->Unit(benchmark::kMillisecond);

void BM_IndexWindowQuery(benchmark::State& state) {
  const auto& points = SharedPoints(200000);
  auto index = MakeIndex(static_cast<int>(state.range(0)));
  index->Build(points);
  Rng rng(1);
  std::vector<PointId> out;
  for (auto _ : state) {
    const double x = rng.Uniform(0.0, 0.9);
    const double y = rng.Uniform(0.0, 0.9);
    out.clear();
    index->WindowQuery(Box::FromExtents(x, y, x + 0.1, y + 0.1), &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetLabel(KindName(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_IndexWindowQuery)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_IndexNearestNeighbor(benchmark::State& state) {
  const auto& points = SharedPoints(200000);
  auto index = MakeIndex(static_cast<int>(state.range(0)));
  index->Build(points);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index->NearestNeighbor({rng.Uniform(0, 1), rng.Uniform(0, 1)}));
  }
  state.SetLabel(KindName(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_IndexNearestNeighbor)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_RTreeDynamicInsert(benchmark::State& state) {
  const auto& points = SharedPoints(50000);
  for (auto _ : state) {
    RTree tree;
    tree.Build({});
    for (std::size_t i = 0; i < points.size(); ++i) {
      tree.Insert(points[i], static_cast<PointId>(i));
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_RTreeDynamicInsert)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vaq

BENCHMARK_MAIN();
