#include "geometry/prepared_area.h"

#include <algorithm>
#include <cmath>

#include "geometry/predicates.h"

namespace vaq {

namespace {

/// Residual exact segment tests walk the cells under the segment's MBR; a
/// degenerate "segment" spanning the whole grid would walk more cells than
/// the naive O(m) scan, so ranges past this cap fall back to the polygon.
constexpr int kSegmentCellCap = 256;

}  // namespace

template <typename Fn>
void PreparedArea::ForEachEdgeCell(std::size_t i, Fn&& fn) const {
  const Point& a = polygon_->vertex(i);
  const Point& b = polygon_->vertex((i + 1) % polygon_->size());
  const double ex0 = std::min(a.x, b.x);
  const double ex1 = std::max(a.x, b.x);
  const int cx0 = ColOf(ex0 - pad_x_);
  const int cx1 = ColOf(ex1 + pad_x_);
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  for (int cx = cx0; cx <= cx1; ++cx) {
    // Clip the edge to this column's epsilon-inflated x-slab and mark every
    // row its y-range meets. The pads absorb both the clip arithmetic's
    // rounding error and the worst-case error of the query-side cell-index
    // computation, so the marked set is a strict superset of every cell any
    // FP-computed index can attribute an edge point to.
    double ylo, yhi;
    if (dx == 0.0) {
      ylo = std::min(a.y, b.y);
      yhi = std::max(a.y, b.y);
    } else {
      const double slab_x0 = bounds_.min.x + cx * cell_w_ - pad_x_;
      const double slab_x1 = bounds_.min.x + (cx + 1) * cell_w_ + pad_x_;
      double t0 = (slab_x0 - a.x) / dx;
      double t1 = (slab_x1 - a.x) / dx;
      t0 = std::clamp(t0, 0.0, 1.0);
      t1 = std::clamp(t1, 0.0, 1.0);
      const double y0 = a.y + t0 * dy;
      const double y1 = a.y + t1 * dy;
      ylo = std::min(y0, y1);
      yhi = std::max(y0, y1);
    }
    const int cy0 = RowOf(ylo - pad_y_);
    const int cy1 = RowOf(yhi + pad_y_);
    for (int cy = cy0; cy <= cy1; ++cy) {
      fn(static_cast<std::size_t>(cy) * nx_ + cx);
    }
  }
}

int PreparedArea::SuggestGridSide(std::size_t m, std::size_t expected_tests) {
  if (expected_tests == 0) return 0;
  // Optimum of build(side) + tests * boundary_fraction(side) * row_test:
  // side* ~ cbrt(tests * c); complex polygons pay more per residual exact
  // test, shifting the optimum up a little.
  const double complexity =
      std::sqrt(std::max(1.0, static_cast<double>(m) / 10.0));
  const double side = std::cbrt(4.0 * static_cast<double>(expected_tests)) *
                      complexity;
  return std::clamp(static_cast<int>(side), 8, 192);
}

std::size_t PreparedArea::EstimateMbrShare(std::size_t n, const Box& domain,
                                           const Box& mbr) {
  const double domain_area = std::max(domain.Area(), 1e-300);
  return static_cast<std::size_t>(static_cast<double>(n) *
                                  std::min(1.0, mbr.Area() / domain_area));
}

void PreparedArea::Prepare(const Polygon& area, int grid_side_hint) {
  polygon_ = nullptr;
  if (area.size() < 3) return;
  polygon_ = &area;
  bounds_ = area.Bounds();
  const std::size_t m = area.size();

  int side = grid_side_hint > 0
                 ? std::clamp(grid_side_hint, 4, 512)
                 : std::clamp(static_cast<int>(
                                  4.0 * std::sqrt(static_cast<double>(m))),
                              32, 192);
  nx_ = ny_ = side;
  cell_w_ = std::max(bounds_.Width(), 1e-300) / nx_;
  cell_h_ = std::max(bounds_.Height(), 1e-300) / ny_;
  inv_cw_ = 1.0 / cell_w_;
  inv_ch_ = 1.0 / cell_h_;
  pad_x_ = cell_w_ * 1e-6;
  pad_y_ = cell_h_ * 1e-6;

  const std::size_t cells = static_cast<std::size_t>(nx_) * ny_;
  cell_class_.assign(cells, kCellUnknown);

  // --- Pass 1: rasterise the boundary once, recording each (cell, edge)
  // reference and counting references per cell. ---
  cell_edge_offsets_.assign(cells + 1, 0);
  edge_refs_.clear();
  for (std::size_t i = 0; i < m; ++i) {
    ForEachEdgeCell(i, [&](std::size_t cell) {
      cell_class_[cell] = kPointBoundary;
      ++cell_edge_offsets_[cell + 1];
      edge_refs_.push_back({static_cast<std::uint32_t>(cell),
                            static_cast<std::uint32_t>(i)});
    });
  }
  for (std::size_t c = 0; c < cells; ++c) {
    cell_edge_offsets_[c + 1] += cell_edge_offsets_[c];
  }
  cell_edges_.resize(cell_edge_offsets_[cells]);
  // Fill via a cursor copy of the offsets; references come in edge order,
  // so each cell lists its edges ascending.
  csr_cursor_.assign(cell_edge_offsets_.begin(),
                     cell_edge_offsets_.end() - 1);
  for (const EdgeRef& ref : edge_refs_) {
    cell_edges_[csr_cursor_[ref.cell]++] = ref.edge;
  }

  // --- Per-row edge lists (exact containment fallback). No pads needed:
  // the y -> row mapping is monotone, so an edge straddling p.y always
  // lands in p's row range. ---
  row_edge_offsets_.assign(ny_ + 1, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const Point& a = area.vertex(i);
    const Point& b = area.vertex((i + 1) % m);
    const int r0 = RowOf(std::min(a.y, b.y));
    const int r1 = RowOf(std::max(a.y, b.y));
    for (int r = r0; r <= r1; ++r) ++row_edge_offsets_[r + 1];
  }
  for (int r = 0; r < ny_; ++r) row_edge_offsets_[r + 1] += row_edge_offsets_[r];
  row_edges_.resize(row_edge_offsets_[ny_]);
  csr_cursor_.assign(row_edge_offsets_.begin(), row_edge_offsets_.end() - 1);
  for (std::size_t i = 0; i < m; ++i) {
    const Point& a = area.vertex(i);
    const Point& b = area.vertex((i + 1) % m);
    const int r0 = RowOf(std::min(a.y, b.y));
    const int r1 = RowOf(std::max(a.y, b.y));
    for (int r = r0; r <= r1; ++r) {
      row_edges_[csr_cursor_[r]++] = static_cast<std::uint32_t>(i);
    }
  }

  // --- Pass 2: label the edge-free cells with one scanline sweep, and
  // build both summed-area tables (for O(1) ClassifyBox) in the same
  // sweep. The boundary ring only passes through boundary cells, so each
  // 4-connected component of edge-free cells has one containment status
  // (DESIGN.md §6). A maximal run of edge-free cells in a row lies in one
  // such component; it takes its class from any edge-free cell of the
  // previous row that shares a side with it, hence lies in the same
  // component. Only a run with none pays one exact test, on its first
  // cell's centre. Every labelling that is exact per component gives the
  // same classes. ---
  const std::size_t w = static_cast<std::size_t>(nx_) + 1;
  const std::size_t satn = w * (ny_ + 1);
  inside_sat_.resize(satn);
  boundary_sat_.resize(satn);
  std::fill(inside_sat_.begin(), inside_sat_.begin() + w, 0u);
  std::fill(boundary_sat_.begin(), boundary_sat_.begin() + w, 0u);
  for (int cy = 0; cy < ny_; ++cy) {
    unsigned char* row =
        cell_class_.data() + static_cast<std::size_t>(cy) * nx_;
    const unsigned char* prev_row = cy > 0 ? row - nx_ : nullptr;
    for (int cx = 0; cx < nx_;) {
      if (row[cx] == kPointBoundary) {
        ++cx;
        continue;
      }
      unsigned char cls = kCellUnknown;
      int end = cx;
      for (; end < nx_ && row[end] != kPointBoundary; ++end) {
        if (prev_row != nullptr && prev_row[end] != kPointBoundary) {
          cls = prev_row[end];
        }
      }
      if (cls == kCellUnknown) {
        const Point rep{bounds_.min.x + (cx + 0.5) * cell_w_,
                        bounds_.min.y + (cy + 0.5) * cell_h_};
        cls = ContainsViaRow(rep) ? kPointInside : kPointOutside;
      }
      std::fill(row + cx, row + end, cls);
      cx = end;
    }
    // Summed-area rows: the previous row's sums plus this row's running
    // sums.
    const std::size_t prev = static_cast<std::size_t>(cy) * w;
    const std::size_t cur = prev + w;
    inside_sat_[cur] = boundary_sat_[cur] = 0;
    std::uint32_t inside_run = 0;
    std::uint32_t boundary_run = 0;
    for (int cx = 0; cx < nx_; ++cx) {
      inside_run += row[cx] == kPointInside;
      boundary_run += row[cx] == kPointBoundary;
      inside_sat_[cur + cx + 1] = inside_sat_[prev + cx + 1] + inside_run;
      boundary_sat_[cur + cx + 1] =
          boundary_sat_[prev + cx + 1] + boundary_run;
    }
  }
  inside_cells_ = inside_sat_[satn - 1];
  boundary_cells_ = boundary_sat_[satn - 1];
}

bool PreparedArea::ContainsViaRow(const Point& p) const {
  // The same loop body as Polygon::Contains, over the row's edge subset:
  // every edge the naive scan reacts to (on-edge hit or parity crossing)
  // has p.y inside its y-range, hence is listed in p's row.
  const Polygon& poly = *polygon_;
  const int row = RowOf(p.y);
  const std::uint32_t begin = row_edge_offsets_[row];
  const std::uint32_t end = row_edge_offsets_[row + 1];
  bool inside = false;
  for (std::uint32_t k = begin; k < end; ++k) {
    const std::size_t i = row_edges_[k];
    const Point& a = poly.vertex(i);
    const Point& b = poly.vertex((i + 1) % poly.size());
    if (poly.edge_bounds(i).Contains(p) && Orient2DSign(a, b, p) == 0) {
      return true;  // Exactly on this edge.
    }
    if (a.y <= p.y) {
      if (b.y > p.y && Orient2DSign(a, b, p) > 0) inside = !inside;
    } else {
      if (b.y <= p.y && Orient2DSign(a, b, p) < 0) inside = !inside;
    }
  }
  return inside;
}

void PreparedArea::ClassifyPoints(const double* xs, const double* ys,
                                  std::size_t n, unsigned char* cls) const {
  if (polygon_ == nullptr) {
    std::fill(cls, cls + n, kPointOutside);
    return;
  }
  const double minx = bounds_.min.x, miny = bounds_.min.y;
  const double maxx = bounds_.max.x, maxy = bounds_.max.y;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = xs[i];
    const double y = ys[i];
    if (x < minx || x > maxx || y < miny || y > maxy) {
      cls[i] = kPointOutside;
      continue;
    }
    int cx = static_cast<int>((x - minx) * inv_cw_);
    int cy = static_cast<int>((y - miny) * inv_ch_);
    cx = cx >= nx_ ? nx_ - 1 : cx;
    cy = cy >= ny_ ? ny_ - 1 : cy;
    cls[i] = cell_class_[static_cast<std::size_t>(cy) * nx_ + cx];
  }
}

bool PreparedArea::BoundaryIntersects(const Segment& s) const {
  if (polygon_ == nullptr) return false;
  const Box sb = s.Bounds();
  if (!bounds_.Intersects(sb)) return false;
  const int cx0 = ColOf(sb.min.x - pad_x_);
  const int cx1 = ColOf(sb.max.x + pad_x_);
  const int cy0 = RowOf(sb.min.y - pad_y_);
  const int cy1 = RowOf(sb.max.y + pad_y_);
  if ((cx1 - cx0 + 1) * (cy1 - cy0 + 1) > kSegmentCellCap) {
    return polygon_->BoundaryIntersects(s);
  }
  // Any edge intersecting `s` does so at a point whose cell lies both in
  // this covering range and in the edge's rasterised cell set, so scanning
  // the boundary cells of the range sees every possible hit. One
  // summed-area lookup rejects ranges away from the boundary outright.
  if (SatRangeSum(boundary_sat_, cx0, cy0, cx1, cy1) == 0) return false;
  const Polygon& poly = *polygon_;
  for (int cy = cy0; cy <= cy1; ++cy) {
    for (int cx = cx0; cx <= cx1; ++cx) {
      const std::size_t cell = static_cast<std::size_t>(cy) * nx_ + cx;
      if (cell_class_[cell] != kPointBoundary) continue;
      const std::uint32_t begin = cell_edge_offsets_[cell];
      const std::uint32_t end = cell_edge_offsets_[cell + 1];
      for (std::uint32_t k = begin; k < end; ++k) {
        const std::size_t i = cell_edges_[k];
        if (!poly.edge_bounds(i).Intersects(sb)) continue;
        if (SegmentsIntersect(poly.edge(i), s)) return true;
      }
    }
  }
  return false;
}

PreparedArea::Region PreparedArea::ClassifyBox(const Box& box) const {
  if (polygon_ == nullptr || box.Empty()) return Region::kOutside;
  if (!bounds_.Intersects(box)) return Region::kOutside;
  const int cx0 = ColOf(box.min.x - pad_x_);
  const int cx1 = ColOf(box.max.x + pad_x_);
  const int cy0 = RowOf(box.min.y - pad_y_);
  const int cy1 = RowOf(box.max.y + pad_y_);
  if (SatRangeSum(boundary_sat_, cx0, cy0, cx1, cy1) > 0) {
    return Region::kStraddling;
  }
  const std::uint32_t inside = SatRangeSum(inside_sat_, cx0, cy0, cx1, cy1);
  const std::uint32_t covered =
      static_cast<std::uint32_t>((cx1 - cx0 + 1) * (cy1 - cy0 + 1));
  if (inside == 0) return Region::kOutside;
  if (inside == covered) {
    // Every covered cell is interior; the box is inside iff it does not
    // stick out of the grid (the region beyond the MBR is outside).
    return bounds_.Contains(box) ? Region::kInside : Region::kStraddling;
  }
  // Inside and outside cells with no boundary cell between them cannot
  // happen within one connected component; a rectangle of cells is
  // connected, so this range must touch the boundary band's pad fringe —
  // classify conservatively.
  return Region::kStraddling;
}

}  // namespace vaq
