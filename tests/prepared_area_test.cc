// Prepared-vs-naive equivalence: `PreparedArea::Contains`,
// `BoundaryIntersects` and `Intersects` must agree with the naive `Polygon`
// methods on every input — including points exactly on edges and vertices
// (exact-predicate tie cases) — across thousands of random star-convex and
// adversarially concave polygons. `ClassifyBox` is conservative, so its
// definite answers are checked against exact box predicates instead. The
// scanline cell labelling is checked against a reference flood fill.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "geometry/polygon.h"
#include "geometry/prepared_area.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit{{0.0, 0.0}, {1.0, 1.0}};

/// Probe points that stress every code path: random points in and around
/// the MBR, every vertex (exactly on the boundary), edge midpoints and
/// quarter-points (on or within one ulp of the boundary — either way both
/// sides must agree), and points on the prepared grid's cell-corner
/// lattice (index-rounding ties).
std::vector<Point> ProbePoints(const Polygon& poly, const PreparedArea& prep,
                               Rng* rng, int random_count) {
  std::vector<Point> probes;
  const Box& b = poly.Bounds();
  const double w = b.Width(), h = b.Height();
  for (int i = 0; i < random_count; ++i) {
    probes.push_back({b.min.x + rng->Uniform(-0.1, 1.1) * w,
                      b.min.y + rng->Uniform(-0.1, 1.1) * h});
  }
  for (std::size_t i = 0; i < poly.size(); ++i) {
    const Point& a = poly.vertex(i);
    const Point& c = poly.vertex((i + 1) % poly.size());
    probes.push_back(a);
    probes.push_back(Midpoint(a, c));
    probes.push_back(Midpoint(a, Midpoint(a, c)));
  }
  const int side = prep.grid_side();
  for (int k = 0; k < 8; ++k) {
    const int cx = rng->UniformInt(0, side);
    const int cy = rng->UniformInt(0, side);
    probes.push_back({b.min.x + cx * (w / side), b.min.y + cy * (h / side)});
  }
  return probes;
}

void ExpectAgreement(const Polygon& poly, const PreparedArea& prep,
                     Rng* rng, int random_count, const char* label) {
  const std::vector<Point> probes =
      ProbePoints(poly, prep, rng, random_count);
  for (const Point& p : probes) {
    ASSERT_EQ(prep.Contains(p), poly.Contains(p))
        << label << " Contains disagreement at " << p;
  }
  // Segments: short (Delaunay-edge scale), medium, and degenerate.
  for (std::size_t i = 0; i + 1 < probes.size(); i += 2) {
    const Segment s{probes[i], probes[i + 1]};
    ASSERT_EQ(prep.BoundaryIntersects(s), poly.BoundaryIntersects(s))
        << label << " BoundaryIntersects disagreement at " << s;
    ASSERT_EQ(prep.Intersects(s), poly.Intersects(s))
        << label << " Intersects disagreement at " << s;
    const Segment short_s{probes[i],
                          probes[i] + Point{poly.Bounds().Width() * 0.02,
                                            poly.Bounds().Height() * 0.013}};
    ASSERT_EQ(prep.BoundaryIntersects(short_s),
              poly.BoundaryIntersects(short_s))
        << label << " short BoundaryIntersects disagreement at " << short_s;
  }
  // Degenerate zero-length segments on vertices.
  for (std::size_t i = 0; i < poly.size(); ++i) {
    const Segment z{poly.vertex(i), poly.vertex(i)};
    ASSERT_EQ(prep.BoundaryIntersects(z), poly.BoundaryIntersects(z))
        << label << " zero-length segment disagreement at vertex " << i;
  }
}

void ExpectClassifyBoxSound(const Polygon& poly, const PreparedArea& prep,
                            Rng* rng, const char* label) {
  const Box& b = poly.Bounds();
  const double w = b.Width(), h = b.Height();
  for (int i = 0; i < 64; ++i) {
    const Point lo{b.min.x + rng->Uniform(-0.2, 1.1) * w,
                   b.min.y + rng->Uniform(-0.2, 1.1) * h};
    const Box box{lo, lo + Point{rng->Uniform(0.0, 0.4) * w,
                                 rng->Uniform(0.0, 0.4) * h}};
    switch (prep.ClassifyBox(box)) {
      case PreparedArea::Region::kInside:
        // Definite: the whole box is inside. Spot-check corners, centre
        // and random interior samples with the exact test.
        ASSERT_TRUE(poly.Contains(box.min)) << label << " box " << box;
        ASSERT_TRUE(poly.Contains(box.max)) << label << " box " << box;
        ASSERT_TRUE(poly.Contains(box.Center())) << label << " box " << box;
        for (int s = 0; s < 8; ++s) {
          const Point p{box.min.x + rng->Uniform(0, 1) * box.Width(),
                        box.min.y + rng->Uniform(0, 1) * box.Height()};
          ASSERT_TRUE(poly.Contains(p)) << label << " box " << box;
        }
        break;
      case PreparedArea::Region::kOutside:
        // Definite: box and polygon disjoint.
        ASSERT_FALSE(poly.IntersectsBox(box)) << label << " box " << box;
        break;
      case PreparedArea::Region::kStraddling:
        break;  // Always a safe answer.
    }
  }
}

TEST(PreparedAreaTest, AgreesOnRandomStarPolygons) {
  Rng rng(20260729);
  PolygonSpec spec;
  for (int rep = 0; rep < 1200; ++rep) {
    spec.vertices = 3 + rng.UniformInt(0, 38);
    spec.query_size_fraction = rng.Uniform(0.005, 0.5);
    const Polygon poly = GenerateQueryPolygon(spec, kUnit, &rng);
    const PreparedArea prep(poly);
    ExpectAgreement(poly, prep, &rng, 24, "star");
  }
}

TEST(PreparedAreaTest, AgreesOnAdversarialCombs) {
  // Thin-pronged combs: long point-free corridors, heavily concave, lots
  // of collinear axis-aligned edges with exactly representable on-edge
  // probe points.
  Rng rng(777);
  for (int teeth = 2; teeth <= 24; teeth += 2) {
    const Polygon poly =
        GenerateCombPolygon(Box{{0.125, 0.25}, {0.875, 0.75}}, teeth);
    const PreparedArea prep(poly);
    ExpectAgreement(poly, prep, &rng, 200, "comb");
    ExpectClassifyBoxSound(poly, prep, &rng, "comb");
  }
}

TEST(PreparedAreaTest, AgreesOnAxisAlignedAndCollinear) {
  Rng rng(99);
  // A rectangle with extra collinear vertices along its bottom edge:
  // on-edge probes are exact, and collinear edge chains stress the
  // crossing-parity tie-breaks.
  const Polygon poly({{0.0, 0.0},
                      {0.25, 0.0},
                      {0.5, 0.0},
                      {0.75, 0.0},
                      {1.0, 0.0},
                      {1.0, 0.5},
                      {0.5, 0.5},
                      {0.0, 0.5}});
  const PreparedArea prep(poly);
  ExpectAgreement(poly, prep, &rng, 400, "collinear");
  // Exact boundary lattice points.
  for (double x : {0.0, 0.125, 0.25, 0.5, 0.75, 1.0}) {
    for (double y : {0.0, 0.25, 0.5}) {
      const Point p{x, y};
      ASSERT_EQ(prep.Contains(p), poly.Contains(p)) << p;
    }
  }
}

TEST(PreparedAreaTest, ClassifyBoxSoundOnRandomPolygons) {
  Rng rng(4242);
  PolygonSpec spec;
  for (int rep = 0; rep < 300; ++rep) {
    spec.vertices = 3 + rng.UniformInt(0, 27);
    spec.query_size_fraction = rng.Uniform(0.01, 0.4);
    const Polygon poly = GenerateQueryPolygon(spec, kUnit, &rng);
    const PreparedArea prep(poly);
    ExpectClassifyBoxSound(poly, prep, &rng, "star");
  }
}

TEST(PreparedAreaTest, GridSideHintsRespected) {
  Rng rng(5);
  PolygonSpec spec;
  const Polygon poly = GenerateQueryPolygon(spec, kUnit, &rng);
  for (int side : {4, 8, 17, 64, 192}) {
    PreparedArea prep;
    prep.Prepare(poly, side);
    EXPECT_EQ(prep.grid_side(), side);
    ExpectAgreement(poly, prep, &rng, 64, "hinted");
  }
  // SuggestGridSide grows with the workload and stays clamped.
  EXPECT_EQ(PreparedArea::SuggestGridSide(10, 0), 0);
  EXPECT_EQ(PreparedArea::SuggestGridSide(10, 1), 8);
  EXPECT_GT(PreparedArea::SuggestGridSide(10, 100000),
            PreparedArea::SuggestGridSide(10, 1000));
  EXPECT_LE(PreparedArea::SuggestGridSide(4096, 1u << 30), 192);
}

TEST(PreparedAreaTest, UnpreparedAndDegenerate) {
  const PreparedArea empty;
  EXPECT_FALSE(empty.prepared());
  EXPECT_FALSE(empty.Contains({0.5, 0.5}));
  EXPECT_FALSE(empty.BoundaryIntersects({{0, 0}, {1, 1}}));
  EXPECT_EQ(empty.ClassifyBox(Box{{0, 0}, {1, 1}}),
            PreparedArea::Region::kOutside);

  // Degenerate sliver: near-zero height, all cells are boundary cells.
  Rng rng(6);
  const Polygon sliver({{0.0, 0.5}, {1.0, 0.5}, {0.5, 0.5 + 1e-13}});
  const PreparedArea prep(sliver);
  ExpectAgreement(sliver, prep, &rng, 200, "sliver");
}

TEST(PreparedAreaTest, ReuseAcrossPolygons) {
  // One PreparedArea instance rebuilt over many polygons (the QueryContext
  // usage pattern) must behave identically to a fresh build.
  Rng rng(11);
  PolygonSpec spec;
  PreparedArea reused;
  for (int rep = 0; rep < 200; ++rep) {
    spec.vertices = 3 + rng.UniformInt(0, 20);
    spec.query_size_fraction = rng.Uniform(0.01, 0.4);
    const Polygon poly = GenerateQueryPolygon(spec, kUnit, &rng);
    reused.Prepare(poly);
    ExpectAgreement(poly, reused, &rng, 16, "reused");
  }
}

/// Reference labelling: the 4-connected flood fill over the edge-free
/// cells that `Prepare` used before the scanline sweep, one exact test per
/// component. Boundary cells are taken from `prep`, whose labelling never
/// changes them.
std::vector<unsigned char> FloodFillClasses(const Polygon& poly,
                                            const PreparedArea& prep) {
  const int nx = prep.grid_nx();
  const int ny = prep.grid_ny();
  const Box& b = prep.bounds();
  const double cw = b.Width() / nx;
  const double ch = b.Height() / ny;
  constexpr unsigned char kUnknown = 3;
  std::vector<unsigned char> cls(prep.cell_class_data(),
                                 prep.cell_class_data() + nx * ny);
  for (unsigned char& c : cls) {
    if (c != PreparedArea::kPointBoundary) c = kUnknown;
  }
  std::vector<int> stack;
  for (int start = 0; start < nx * ny; ++start) {
    if (cls[start] != kUnknown) continue;
    const Point rep{b.min.x + (start % nx + 0.5) * cw,
                    b.min.y + (start / nx + 0.5) * ch};
    const unsigned char label = poly.Contains(rep)
                                    ? PreparedArea::kPointInside
                                    : PreparedArea::kPointOutside;
    cls[start] = label;
    stack.assign(1, start);
    while (!stack.empty()) {
      const int c = stack.back();
      stack.pop_back();
      const int cx = c % nx;
      const int cy = c / nx;
      const int neighbors[4] = {c - 1, c + 1, c - nx, c + nx};
      const bool valid[4] = {cx > 0, cx + 1 < nx, cy > 0, cy + 1 < ny};
      for (int k = 0; k < 4; ++k) {
        if (valid[k] && cls[neighbors[k]] == kUnknown) {
          cls[neighbors[k]] = label;
          stack.push_back(neighbors[k]);
        }
      }
    }
  }
  return cls;
}

void ExpectLabellingMatchesFloodFill(const Polygon& poly, const char* label) {
  for (const int side : {4, 5, 7, 8, 16, 31, 37, 58, 64, 100, 128, 192}) {
    PreparedArea prep;
    prep.Prepare(poly, side);
    ASSERT_TRUE(prep.prepared()) << label;
    const std::vector<unsigned char> want = FloodFillClasses(poly, prep);
    const unsigned char* got = prep.cell_class_data();
    std::size_t inside = 0;
    std::size_t boundary = 0;
    for (std::size_t c = 0; c < want.size(); ++c) {
      ASSERT_EQ(got[c], want[c])
          << label << " side " << side << " cell " << c;
      inside += want[c] == PreparedArea::kPointInside;
      boundary += want[c] == PreparedArea::kPointBoundary;
    }
    EXPECT_EQ(prep.inside_cell_count(), inside) << label << " side " << side;
    EXPECT_EQ(prep.boundary_cell_count(), boundary)
        << label << " side " << side;
  }
}

/// An Archimedean spiral strip of `turns` turns: one edge-free component
/// winds around itself, and its outside does too.
Polygon SpiralPolygon(double turns) {
  const int steps = static_cast<int>(turns * 48);
  const double pitch = 0.4 / turns;  // Radius gain per turn.
  const double width = 0.45 * pitch;
  std::vector<Point> outer, inner;
  for (int i = 0; i <= steps; ++i) {
    const double t = 2.0 * M_PI * turns * i / steps;
    const double r = 0.05 + pitch * t / (2.0 * M_PI);
    outer.push_back({0.5 + (r + width) * std::cos(t),
                     0.5 + (r + width) * std::sin(t)});
    inner.push_back({0.5 + r * std::cos(t), 0.5 + r * std::sin(t)});
  }
  std::vector<Point> ring(outer.begin(), outer.end());
  ring.insert(ring.end(), inner.rbegin(), inner.rend());
  return Polygon(std::move(ring));
}

TEST(PreparedAreaTest, ScanlineLabellingMatchesFloodFill) {
  Rng rng(31337);
  PolygonSpec spec;
  for (int rep = 0; rep < 40; ++rep) {
    spec.vertices = 3 + rng.UniformInt(0, 40);
    spec.query_size_fraction = rng.Uniform(0.01, 0.64);
    spec.min_radius_fraction = rng.Uniform(0.05, 0.6);
    ExpectLabellingMatchesFloodFill(GenerateQueryPolygon(spec, kUnit, &rng),
                                    "star");
  }
  for (const double turns : {1.5, 3.0, 5.0}) {
    ExpectLabellingMatchesFloodFill(SpiralPolygon(turns), "spiral");
  }
  for (const int teeth : {2, 5, 12, 24}) {
    ExpectLabellingMatchesFloodFill(
        GenerateCombPolygon(Box{{0.125, 0.25}, {0.875, 0.75}}, teeth),
        "comb");
  }
  for (const bool down : {true, false}) {
    ExpectLabellingMatchesFloodFill(
        GenerateUPolygon(Box{{0.1, 0.2}, {0.9, 0.7}}, 0.1, down), "U");
    ExpectLabellingMatchesFloodFill(
        GenerateUPolygon(Box{{0.0, 0.0}, {1.0, 1.0}}, 0.02, down), "thin U");
  }
}

TEST(PreparedAreaTest, ScanlineLabellingWithVerticesOnCellLines) {
  // Every vertex on a multiple of 1/16 of the unit MBR, so at sides 4, 8
  // and 16 (and 32, 64, 128) vertices and axis-parallel edges lie exactly
  // on cell lines, where the rasteriser's pads decide the boundary band.
  const Polygon stairs({{0.0, 0.0},
                        {1.0, 0.0},
                        {1.0, 0.25},
                        {0.75, 0.25},
                        {0.75, 0.5},
                        {0.5, 0.5},
                        {0.5, 0.75},
                        {0.25, 0.75},
                        {0.25, 1.0},
                        {0.0, 1.0}});
  ExpectLabellingMatchesFloodFill(stairs, "stairs");
  const Polygon diamond(
      {{0.5, 0.0}, {1.0, 0.5}, {0.5, 1.0}, {0.0, 0.5}});
  ExpectLabellingMatchesFloodFill(diamond, "diamond");
  ExpectLabellingMatchesFloodFill(
      GenerateCombPolygon(Box{{0.0, 0.0}, {1.0, 1.0}}, 4), "lattice comb");
  ExpectLabellingMatchesFloodFill(
      GenerateUPolygon(Box{{0.0, 0.0}, {1.0, 1.0}}, 0.25, true), "lattice U");
}

}  // namespace
}  // namespace vaq
