// Self-checks of the benchmark harness: the percentile estimator against
// known distributions, span self-time subtraction, reply verification —
// including a deliberately corrupted reply from a live loopback server
// counting in the failed share — and the host probe. Exits non-zero on any
// failed check.

#include <cmath>
#include <iostream>
#include <vector>

#include "core/dynamic_area_query.h"
#include "core/dynamic_point_database.h"
#include "geometry/wkt.h"
#include "harness.h"
#include "server/client.h"
#include "server/query_server.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void PercentileChecks() {
  using perfbench::Percentile;
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  Check(Near(Percentile(ramp, 50), 500.5, 1e-12), "p50 of 1..1000");
  Check(Near(Percentile(ramp, 99), 990.01, 1e-9), "p99 of 1..1000");
  Check(Percentile(ramp, 0) == 1 && Percentile(ramp, 100) == 1000,
        "extremes of 1..1000");
  // Python: statistics.quantiles([4, 1, 3, 2], n=4, method="inclusive").
  Check(Near(Percentile({4, 1, 3, 2}, 25), 1.75, 1e-12) &&
            Near(Percentile({4, 1, 3, 2}, 75), 3.25, 1e-12),
        "inclusive quartiles of 1..4");
  Check(Percentile({}, 99) == 0.0 && Percentile({7}, 99) == 7.0,
        "empty and singleton inputs");
  // Exp(1) by inverse CDF on a fine stratified grid: the p-th percentile
  // is -ln(1 - p).
  std::vector<double> expo;
  const int n = 200000;
  for (int i = 0; i < n; ++i) expo.push_back(-std::log(1.0 - (i + 0.5) / n));
  Check(Near(Percentile(expo, 50), std::log(2.0), 1e-4), "p50 of Exp(1)");
  Check(Near(Percentile(expo, 99), std::log(100.0), 1e-3), "p99 of Exp(1)");
}

void SelfTimeChecks() {
  using perfbench::ReplayedSelfTimeNs;
  using perfbench::Span;
  const Span request{"request", 1000, 1100, 1};
  Check(ReplayedSelfTimeNs(request, {}) == 100, "no children");
  // Children replayed after the request count by duration, wherever
  // their intervals lie.
  const std::vector<Span> replayed = {
      {"wire.decode", 2000, 2010, 1}, {"engine", 2010, 2070, 1}};
  Check(ReplayedSelfTimeNs(request, replayed) == 30, "replayed children");
  const std::vector<Span> slower = {{"engine", 5000, 5130, 1}};
  Check(ReplayedSelfTimeNs(request, slower) == -30,
        "children slower than the request stay negative");
}

void RacingChecks() {
  using perfbench::RacingExpect;
  using perfbench::RacingReplyOk;
  // Ids 0..9; 7, 8 and 9 are unstable.
  std::vector<std::uint8_t> unstable(10, 0);
  unstable[7] = unstable[8] = unstable[9] = 1;
  RacingExpect e;
  e.stable = perfbench::DigestOf(std::vector<vaq::PointId>{1, 2, 3});
  e.unstable = {7, 9};
  Check(RacingReplyOk(e, unstable, std::vector<vaq::PointId>{1, 2, 3}),
        "racing: stable part only");
  Check(RacingReplyOk(e, unstable, std::vector<vaq::PointId>{1, 2, 3, 7, 9}),
        "racing: with both unstable ids");
  Check(!RacingReplyOk(e, unstable, std::vector<vaq::PointId>{1, 3, 9}),
        "racing: missing stable id");
  Check(!RacingReplyOk(e, unstable, std::vector<vaq::PointId>{1, 2, 3, 8}),
        "racing: unstable id outside the polygon");
  Check(!RacingReplyOk(e, unstable, std::vector<vaq::PointId>{1, 2, 3, 7, 7}),
        "racing: duplicated unstable id");
  Check(!RacingReplyOk(e, unstable, std::vector<vaq::PointId>{1, 2, 3, 12}),
        "racing: id unknown to the stream");
}

/// A real reply from a loopback server verifies against the brute-force
/// digest; the same reply with one id corrupted fails and counts.
void CorruptedReplyCheck() {
  using namespace vaq;
  const Box unit{{0.0, 0.0}, {1.0, 1.0}};
  Rng rng(7);
  DynamicPointDatabase db(GenerateUniformPoints(2000, unit, &rng));
  PolygonSpec spec;
  spec.query_size_fraction = 0.08;
  const Polygon area = GenerateQueryPolygon(spec, unit, &rng);
  QueryContext ctx;
  const perfbench::IdDigest expect = perfbench::DigestOf(
      RunDynamicSnapshotQuery(*db.snapshot(), DynamicMethod::kBruteForce,
                              area, ctx));

  QueryServer::Options so;
  so.engine_threads = 1;
  QueryServer server(&db, so);
  server.Start();
  std::vector<PointId> ids;
  {
    QueryClient client(server.port());
    ids = client.Query(ToWkt(area)).ids;
  }
  server.Stop();

  perfbench::OpTally tally;
  tally.Record(perfbench::DigestOf(ids) == expect);
  Check(!ids.empty() && tally.failed == 0, "served reply matches the oracle");
  ids.front() ^= 1;
  tally.Record(perfbench::DigestOf(ids) == expect);
  ids.front() ^= 1;
  ids.pop_back();
  tally.Record(perfbench::DigestOf(ids) == expect);
  Check(tally.attempted == 3 && tally.failed == 2 &&
            Near(tally.failed_share(), 2.0 / 3.0, 1e-12),
        "corrupted replies count in the failed share");
}

/// The host probe runs its fixed work and returns a positive time.
void HostProbeCheck() {
  const perfbench::HostProbe probe;
  const double ms = probe.RunMs();
  Check(std::isfinite(ms) && ms > 0.0, "host probe times its work");
}

}  // namespace

int main() {
  PercentileChecks();
  SelfTimeChecks();
  RacingChecks();
  CorruptedReplyCheck();
  HostProbeCheck();
  if (failures != 0) {
    std::cerr << failures << " harness self-check(s) failed\n";
    return 1;
  }
  std::cerr << "harness self-checks passed\n";
  return 0;
}
