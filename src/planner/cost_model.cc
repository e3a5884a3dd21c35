#include "planner/cost_model.h"

#include <algorithm>
#include <cmath>

namespace vaq {

double CostModel::ExpectedCandidates(DynamicMethod m,
                                     const PlanFeatures& f) const {
  const double n = static_cast<double>(f.n);
  switch (m) {
    case DynamicMethod::kVoronoi: {
      // The flood visits the interior plus a shell of rejected neighbours
      // along the ring: on uniform data, about one per Voronoi cell the
      // ring crosses, perimeter * sqrt(n / domain area) of them.
      return n * f.poly_share +
             shell_coeff * f.perimeter_sides * std::sqrt(n);
    }
    case DynamicMethod::kTraditional:
    case DynamicMethod::kGridSweep:
      // Window filter: everything inside the query MBR becomes a
      // candidate for the refine step.
      return n * f.mbr_share;
    case DynamicMethod::kBruteForce:
      return n;
  }
  return n;
}

double CostModel::IoNsPerLoad(const PlanFeatures& f) const {
  return f.io_ns_per_load + (f.paged ? paged_load_ns : 0.0);
}

double CostModel::EstimateCostNs(DynamicMethod m, const PlanFeatures& f,
                                 double candidates) const {
  const int i = static_cast<int>(m);
  // Brute force scans point coordinates without touching geometry
  // storage per candidate in the simulated-IO sense only when the data
  // is in memory; on IO-charged backends every tested point pays a load
  // like any other method's candidate.
  return fixed_ns[i] + candidates * (cpu_ns[i] + IoNsPerLoad(f));
}

}  // namespace vaq
