#ifndef VAQ_PLANNER_COST_MODEL_H_
#define VAQ_PLANNER_COST_MODEL_H_

#include <cstddef>

#include "core/method.h"

namespace vaq {

/// Per-query features the planner's cost model consumes. All are O(1) to
/// compute at plan time: the shares come from the query polygon's own
/// geometry against the database bounds (the `PreparedArea::
/// EstimateMbrShare` idea), the IO figures from the backend's
/// configuration, never from running the query.
struct PlanFeatures {
  /// Live points in the (pinned) database version.
  std::size_t n = 0;
  /// Query-MBR area / database-bounds area, clamped to [0, 1]. The
  /// selectivity proxy of the filter-refine methods: the window filter
  /// produces ~ n * mbr_share candidates.
  double mbr_share = 0.0;
  /// Polygon area / database-bounds area, clamped to [0, 1]. The Voronoi
  /// flood's result-size proxy: it visits ~ n * poly_share interior
  /// points plus a boundary shell.
  double poly_share = 0.0;
  /// Ring perimeter / sqrt(database-bounds area): the boundary's length in
  /// domain sides. On uniform data the ring crosses about
  /// perimeter_sides * sqrt(n) Voronoi cells, which sizes the flood's
  /// boundary shell.
  double perimeter_sides = 0.0;
  /// Simulated object-fetch latency per geometry load
  /// (`PointDatabase::simulated_fetch_ns`); the paper's disk-resident
  /// cost knob. 0 on raw in-memory timing.
  double io_ns_per_load = 0.0;
  /// True when geometry is served by an out-of-core page-cache backend
  /// (mmap/pread); adds an effective per-load cost even when
  /// `io_ns_per_load` is 0.
  bool paged = false;
  /// Shard count of the database (1 = unsharded); with the per-leg
  /// estimate, drives the fanout-vs-inline call.
  std::size_t num_shards = 1;
};

/// Static cost model: per-method candidate and wall-time estimators with
/// coefficients seeded from a fit to the committed BENCH_table1/2
/// baselines (see PAPER.md for the rows). The seed encodes the paper's
/// crossover — per-candidate CPU favours the traditional filter-refine
/// path, per-candidate IO favours the Voronoi method's smaller candidate
/// set — and the planner's EWMA layer multiplies it per
/// (method, selectivity-bucket) as live observations arrive.
struct CostModel {
  /// Per-candidate CPU cost (ns), indexed by `DynamicMethod`. Measured
  /// per-candidate cost falls with candidate count, as fixed costs
  /// amortise and (traditional) more R-tree leaves settle whole against
  /// the prepared grid: the traditional method runs ~95 / 30 / 13.6 /
  /// 9.3 / 8.4 ns per candidate at 0.1% / 1% / 8% / 32% / 64% stars over
  /// 10^5 uniform points (`TraditionalAreaQuery::Run`, Release, GCC 12,
  /// one pinned Xeon core, best of five runs per polygon). Its seed
  /// takes 12 ns and its fixed cost 12 us, which puts 1% / 8% / 32% /
  /// 64% stars at 24 / 108 / 398 / 780 us against 30 / 109 / 299 / 537
  /// us measured; the bucketed EWMA absorbs the rest of the slope. Brute
  /// force tests every point, and points inside the query MBR pay the
  /// exact edge test, so its per-point cost rises with selectivity: ~4 /
  /// 17 / 31 ns at 1% / 32% / 64% stars over 10^5 points
  /// (`BruteForceAreaQuery`, same host), 2-5x traditional's time
  /// throughout. The seed is the 64% figure, above traditional's, so
  /// beyond a few thousand points the seed never ranks brute first.
  /// (Seeded at the 1% figure, a fresh 10^5-point database planned brute
  /// for every 32% star until the EWMAs learned it away.)
  double cpu_ns[kNumDynamicMethods] = {62.0, 12.0, 36.0, 31.0};
  /// Per-query fixed overhead (ns): index descent / flood seeding /
  /// prepared-grid build amortisation.
  double fixed_ns[kNumDynamicMethods] = {12000.0, 12000.0, 8000.0, 1500.0};
  /// Voronoi boundary shell: visited-but-rejected points per Voronoi cell
  /// the ring crosses, ~ shell_coeff * perimeter_sides * sqrt(n) on
  /// uniform data. Measured 1.07-1.09 on 10^5 uniform points for stars of
  /// 1-64% MBR share (radius floors 0.35 and 0.1) and for combs. A shell
  /// sized from sqrt(interior) instead reads 0.85x of the measured one on
  /// the thin stars and 0.28x on the combs.
  double shell_coeff = 1.08;
  /// Effective extra per-load cost (ns) on paged backends when no
  /// explicit `io_ns_per_load` is configured: an amortised page-cache
  /// probe (hits dominate after warm-up; misses are rare but expensive).
  double paged_load_ns = 60.0;
  /// Per-leg submit/future overhead of the sharded scatter path; legs
  /// cheaper than this run inline even when a pool is available.
  double scatter_overhead_ns = 25000.0;

  /// Expected candidate count of `m` under `f` (validated points, the
  /// quantity both `QueryStats::candidates` and the paper's Table I/II
  /// report).
  double ExpectedCandidates(DynamicMethod m, const PlanFeatures& f) const;

  /// Expected wall time (ns) of `m` under `f`, given an explicit
  /// candidate estimate (so callers can substitute an EWMA-corrected
  /// one): fixed + candidates * (cpu + effective per-load IO).
  double EstimateCostNs(DynamicMethod m, const PlanFeatures& f,
                        double candidates) const;

  /// Effective per-geometry-load IO cost (ns) under `f`.
  double IoNsPerLoad(const PlanFeatures& f) const;
};

}  // namespace vaq

#endif  // VAQ_PLANNER_COST_MODEL_H_
