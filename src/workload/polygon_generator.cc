#include "workload/polygon_generator.h"

#include <cassert>
#include <cmath>
#include <vector>

namespace vaq {

Polygon GenerateQueryPolygon(const PolygonSpec& spec, const Box& domain,
                             Rng* rng) {
  assert(spec.vertices >= 3);
  assert(spec.query_size_fraction > 0.0 && spec.query_size_fraction <= 1.0);
  const int n = spec.vertices;

  // Star-shaped ring around the origin: jittered equal angles (strictly
  // increasing, so the ring is simple), radii in
  // U[min_radius_fraction, 1].
  std::vector<Point> ring;
  ring.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double angle =
        2.0 * M_PI * (static_cast<double>(i) + rng->Uniform(0.0, 0.7)) /
        static_cast<double>(n);
    const double radius = rng->Uniform(spec.min_radius_fraction, 1.0);
    ring.push_back({radius * std::cos(angle), radius * std::sin(angle)});
  }

  // Scale so area(MBR) hits the requested fraction of the domain.
  Box mbr;
  for (const Point& p : ring) mbr.ExpandToInclude(p);
  const double target_area = spec.query_size_fraction * domain.Area();
  const double scale = std::sqrt(target_area / mbr.Area());
  for (Point& p : ring) p = p * scale;
  mbr = Box{mbr.min * scale, mbr.max * scale};

  // Place the MBR uniformly inside the domain.
  const double tx =
      rng->Uniform(domain.min.x - mbr.min.x,
                   domain.max.x - mbr.max.x);
  const double ty =
      rng->Uniform(domain.min.y - mbr.min.y,
                   domain.max.y - mbr.max.y);
  for (Point& p : ring) p = {p.x + tx, p.y + ty};

  return Polygon(std::move(ring));
}

Polygon GenerateCombPolygon(const Box& bounds, int teeth) {
  assert(teeth >= 2);
  // A comb: a thin horizontal spine along the bottom with `teeth` tall thin
  // prongs. Points inside different prongs are only connected through the
  // spine, which can be made point-free — the pathological case for the
  // paper's segment-expansion rule.
  const double w = bounds.Width();
  const double h = bounds.Height();
  const double spine_h = 0.08 * h;
  const double tooth_w = w / (2.0 * teeth - 1.0);

  std::vector<Point> ring;
  // Bottom edge, left to right.
  ring.push_back({bounds.min.x, bounds.min.y});
  ring.push_back({bounds.max.x, bounds.min.y});
  // Up the right side of the last tooth and across the comb, right to left.
  for (int t = teeth - 1; t >= 0; --t) {
    const double x0 = bounds.min.x + 2.0 * t * tooth_w;
    const double x1 = x0 + tooth_w;
    ring.push_back({x1, bounds.max.y});
    ring.push_back({x0, bounds.max.y});
    if (t > 0) {
      ring.push_back({x0, bounds.min.y + spine_h});
      ring.push_back({x0 - tooth_w, bounds.min.y + spine_h});
    }
  }
  return Polygon(std::move(ring));
}

Polygon GenerateUPolygon(const Box& bounds, double thickness,
                         bool opening_down) {
  const double x0 = bounds.min.x, x1 = bounds.max.x;
  const double y0 = bounds.min.y, y1 = bounds.max.y;
  const double t = thickness;
  if (opening_down) {
    return Polygon({{x0, y0},
                    {x0 + t, y0},
                    {x0 + t, y1 - t},
                    {x1 - t, y1 - t},
                    {x1 - t, y0},
                    {x1, y0},
                    {x1, y1},
                    {x0, y1}});
  }
  return Polygon({{x0, y0},
                  {x1, y0},
                  {x1, y1},
                  {x1 - t, y1},
                  {x1 - t, y0 + t},
                  {x0 + t, y0 + t},
                  {x0 + t, y1},
                  {x0, y1}});
}

}  // namespace vaq
