// Served-path benchmark: drives an in-process `QueryServer` over a
// `DynamicPointDatabase` through loopback `QueryClient` connections with
// one of four seeded traffic mixes, checks every answer against a
// brute-force oracle, and prints the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run) as the last stdout line, one JSON
// object. See perfbench/README.md for the workloads and the metric list.
//
// Usage: served_bench --workload NAME --seed N --seconds S --trace 0|1
//          --out-dir DIR

#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic_area_query.h"
#include "core/dynamic_point_database.h"
#include "engine/query_engine.h"
#include "geometry/wkt.h"
#include "harness.h"
#include "planner/planned_area_query.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/query_server.h"
#include "storage/page_store.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace {

using namespace vaq;
using perfbench::IdDigest;
using perfbench::OpTally;
using perfbench::RacingExpect;
using perfbench::Span;
using Clock = std::chrono::steady_clock;

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};
constexpr int kHotPolygons = 64;
constexpr double kZipfExponent = 1.1;
constexpr int kWarmQueries = 64;
// churn: every tenth op is a write (INSERT or ERASE), and each round of
// phase A issues one wire COMPACT halfway through its writes — fixed counts
// per op list, whatever the seed. Every phase-A round thus carries one
// compaction stall, which its qps pays; phase B runs writes without
// compactions, so its latencies show the read path beside writes, with a
// delta that grows from empty in every round.
constexpr std::size_t kChurnWriteEvery = 10;
// paged-io: 64 LRU pages of 4 KiB = 256 KiB against ~1.6 MB of coordinates.
constexpr std::size_t kPagedCachePages = 64;
constexpr std::uint32_t kPageBytes = 4096;
// Share of the measured seconds given to phase A, sized as ops at the
// workload's expected qps; phase B gets the rest at its offered rate.
constexpr double kPhaseAShare = 0.4;
// Wrongly answered polygons printed in full; the rest are only counted.
constexpr std::size_t kShownMismatches = 20;
// A phase-B send due on an idle connection that leaves later than this
// after its due time is late.
constexpr double kLateThresholdMs = 1.0;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Configuration: fixed settings, recorded by every run's host stamp
// ---------------------------------------------------------------------------

// 10^5 uniform points, the paper's Table II size.
constexpr std::size_t kPoints = 100000;
// Two engine workers serve two load generator connections; all of them
// share one CPU (see PinToOneCpu).
constexpr int kEngineThreads = 2;
constexpr int kConnections = 2;
// Set-ups per run; `setup_s` is their median.
constexpr int kSetups = 5;
// Requests the traced run replays (churn: queries given layer re-runs).
constexpr std::size_t kTraceQueries = 1000;

/// Per-workload sizing. `phase_a_qps` is the closed-loop qps of the
/// calibration host (a 4-vCPU Xeon VM, GCC 12.2, Release, run pinned to
/// one CPU) and sizes phase A (see kPhaseAShare); `phase_b_rate` is phase
/// B's offered rate, about a sixth of the workload's query capacity: when
/// the host slows down twofold, the CPU is still mostly idle, so phase-B
/// latencies stay service times rather than queueing delays; `rounds`
/// splits both phases into rounds whose median each figure is (churn has
/// half as many: each of its phase-A rounds carries one compaction).
struct WorkloadSpec {
  const char* name;
  double phase_a_qps;
  double phase_b_rate;
  int rounds;
};

constexpr WorkloadSpec kWorkloadSpecs[] = {
    {"fresh-mixed", 4600, 800, 24},
    {"hot-zipf", 44000, 8000, 24},
    {"paged-io", 4200, 700, 24},
    {"churn", 1400, 900, 12},
};

struct Config {
  WorkloadSpec spec{};
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

Config ParseArgs(int argc, char** argv) {
  Config c;
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0)
      throw std::invalid_argument(std::string("unexpected argument ") +
                                  argv[i]);
    kv[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0) throw std::invalid_argument("odd argument list");
  const auto need = [&](const char* k) {
    const auto it = kv.find(k);
    if (it == kv.end())
      throw std::invalid_argument(std::string("missing --") + k);
    return it->second;
  };
  c.workload = need("workload");
  c.seed = std::stoull(need("seed"));
  c.seconds = std::stod(need("seconds"));
  c.trace = std::stoi(need("trace")) != 0;
  c.out_dir = need("out-dir");
  const auto it = std::find_if(
      std::begin(kWorkloadSpecs), std::end(kWorkloadSpecs),
      [&](const WorkloadSpec& s) { return c.workload == s.name; });
  if (it == std::end(kWorkloadSpecs))
    throw std::invalid_argument("unknown workload " + c.workload);
  c.spec = *it;
  if (c.seconds <= 0) throw std::invalid_argument("non-positive --seconds");
  return c;
}

// ---------------------------------------------------------------------------
// Workloads: seeded, pre-generated op lists
// ---------------------------------------------------------------------------

enum class OpKind : std::uint8_t { kQuery, kInsert, kErase, kCompact };

struct Op {
  OpKind kind = OpKind::kQuery;
  int conn = 0;
  std::uint32_t poly = 0;  // kQuery: index into Workload::wkts.
  Point at{};              // kInsert.
  PointId id = 0;          // kInsert: the id it must get; kErase: target.
};

struct Workload {
  std::vector<Point> base;
  // Query polygons as the WKT the client sends; parsing it back is
  // bit-exact, so the harness keeps no second copy.
  std::vector<std::string> wkts;
  std::vector<Op> warm, trace;
  // The timed op lists, one per round, in the order the rounds run them:
  // phase_a[0], phase_b[0], phase_a[1], ... — churn's write stream (and so
  // its inserted ids) is generated in exactly that order.
  std::vector<std::vector<Op>> phase_a, phase_b;
  // churn only: every point the stream ever holds (base, then inserts in
  // stream order — position = stable id), and which of them are not live
  // throughout (erased somewhere, or inserted).
  std::vector<Point> universe;
  std::vector<std::uint8_t> unstable;
};

/// A never-repeated query area: star polygons at 1% / 8% / 32% MBR share
/// in a 70/25/5 mix, and a comb of the same sizes for 10% of requests.
Polygon FreshPolygon(Rng& rng) {
  const double u = rng.Uniform(0.0, 1.0);
  const double share = u < 0.70 ? 0.01 : (u < 0.95 ? 0.08 : 0.32);
  if (rng.Uniform(0.0, 1.0) < 0.10) {
    const double aspect = rng.Uniform(0.5, 2.0);
    const double w = std::sqrt(share * aspect);
    const double h = std::sqrt(share / aspect);
    const double x0 = rng.Uniform(0.0, 1.0 - w);
    const double y0 = rng.Uniform(0.0, 1.0 - h);
    const int teeth = static_cast<int>(rng.UniformInt(3, 8));
    return GenerateCombPolygon(Box{{x0, y0}, {x0 + w, y0 + h}}, teeth);
  }
  PolygonSpec spec;
  spec.query_size_fraction = share;
  return GenerateQueryPolygon(spec, kUnit, &rng);
}

class ZipfSampler {
 public:
  ZipfSampler(int n, double s) {
    double total = 0.0;
    for (int k = 1; k <= n; ++k) total += 1.0 / std::pow(k, s);
    double acc = 0.0;
    for (int k = 1; k <= n; ++k) {
      acc += 1.0 / std::pow(k, s) / total;
      cdf_.push_back(acc);
    }
  }
  std::uint32_t Sample(Rng& rng) const {
    const double u = rng.Uniform(0.0, 1.0);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

/// Independent random stream `stream` of a seed: each op-list segment
/// draws its polygons and its writes from streams of its own, so paged-io
/// replays fresh-mixed's polygons exactly and churn interleaves writes
/// without shifting them.
Rng StreamRng(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed * 0x9E3779B97F4A7C15ull + stream + 1);
}

Workload MakeWorkload(const Config& cfg) {
  Workload w;
  Rng point_rng(cfg.seed);
  w.base = GenerateUniformPoints(kPoints, kUnit, &point_rng);
  const bool hot = cfg.workload == "hot-zipf";
  const bool churn = cfg.workload == "churn";
  const std::size_t n_a = static_cast<std::size_t>(
      std::llround(cfg.spec.phase_a_qps * cfg.seconds * kPhaseAShare));
  const std::size_t n_b = static_cast<std::size_t>(
      std::llround(cfg.spec.phase_b_rate * cfg.seconds *
                   (1.0 - kPhaseAShare)));

  const auto add_poly = [&](Polygon p) {
    w.wkts.push_back(ToWkt(p));
    return static_cast<std::uint32_t>(w.wkts.size() - 1);
  };
  if (hot) {
    Rng rng(cfg.seed ^ 0x5DEECE66Dull);
    PolygonSpec spec;
    spec.query_size_fraction = 0.01;
    for (int i = 0; i < kHotPolygons; ++i)
      add_poly(GenerateQueryPolygon(spec, kUnit, &rng));
  }
  const ZipfSampler zipf(kHotPolygons, kZipfExponent);

  // churn write-stream state, carried across segments.
  w.universe = w.base;
  std::vector<PointId> live_inserted;
  std::vector<std::uint8_t> erased_base(churn ? w.base.size() : 0, 0);

  // Fills segment `segment` with `n` ops; queries alternate connections,
  // writes (churn) ride connection 0 in stream order, so inserted ids are
  // known up front and an erase never overtakes its insert.
  const auto fill = [&](std::vector<Op>& ops, int segment, std::size_t n,
                        bool with_writes, bool with_compact) {
    Rng qrng = StreamRng(cfg.seed, 2 * segment);
    Rng wrng = StreamRng(cfg.seed, 2 * segment + 1);
    const std::size_t segment_writes = n / kChurnWriteEvery;
    std::size_t writes = 0;
    int next_conn = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Op op;
      if (!with_writes || i % kChurnWriteEvery != kChurnWriteEvery - 1) {
        op.kind = OpKind::kQuery;
        op.poly = hot ? zipf.Sample(qrng) : add_poly(FreshPolygon(qrng));
        op.conn = next_conn;
        next_conn = (next_conn + 1) % kConnections;
        ops.push_back(op);
        continue;
      }
      const bool erase_inserted =
          !live_inserted.empty() && wrng.Uniform(0.0, 1.0) < 0.5;
      if (wrng.Uniform(0.0, 1.0) < 0.5) {
        op.kind = OpKind::kInsert;
        op.at = {wrng.Uniform(0.0, 1.0), wrng.Uniform(0.0, 1.0)};
        op.id = static_cast<PointId>(w.universe.size());
        w.universe.push_back(op.at);
        live_inserted.push_back(op.id);
      } else if (erase_inserted) {
        const std::size_t k = static_cast<std::size_t>(
            wrng.UniformInt(0, live_inserted.size() - 1));
        op.kind = OpKind::kErase;
        op.id = live_inserted[k];
        live_inserted[k] = live_inserted.back();
        live_inserted.pop_back();
      } else {
        PointId id = 0;
        do {
          id = static_cast<PointId>(wrng.UniformInt(0, w.base.size() - 1));
        } while (erased_base[id]);
        erased_base[id] = 1;
        op.kind = OpKind::kErase;
        op.id = id;
      }
      ops.push_back(op);
      if (++writes == (segment_writes + 1) / 2 && with_compact) {
        Op compact;
        compact.kind = OpKind::kCompact;
        ops.push_back(compact);
      }
    }
  };

  if (hot) {
    // Two passes over the hot set: the second offer passes second-hit
    // admission, so timed requests find every hot polygon cached.
    for (int pass = 0; pass < 2; ++pass) {
      for (std::uint32_t i = 0; i < kHotPolygons; ++i) {
        Op op;
        op.poly = i;
        op.conn = static_cast<int>(i % kConnections);
        w.warm.push_back(op);
      }
    }
  } else {
    fill(w.warm, 0, kWarmQueries, false, false);
  }
  // churn's traced run replays its whole stream serially instead.
  if (!churn) fill(w.trace, 1, kTraceQueries, false, false);
  const std::size_t rounds = static_cast<std::size_t>(cfg.spec.rounds);
  w.phase_a.resize(rounds);
  w.phase_b.resize(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    fill(w.phase_a[r], 2 + 2 * r,
         n_a * (r + 1) / rounds - n_a * r / rounds, churn, churn);
    fill(w.phase_b[r], 3 + 2 * r,
         n_b * (r + 1) / rounds - n_b * r / rounds, churn, false);
  }

  if (churn) {
    w.unstable.assign(w.universe.size(), 1);
    for (std::size_t i = 0; i < w.base.size(); ++i)
      w.unstable[i] = erased_base[i];
  }
  return w;
}

// ---------------------------------------------------------------------------
// Oracle: the brute-force answer of every query polygon, before timing
// ---------------------------------------------------------------------------

struct Oracle {
  std::vector<IdDigest> exact;        // Static workloads, per polygon.
  std::vector<RacingExpect> racing;   // churn, per polygon.
};

/// Runs `fn(i, ids)` with the brute-force answer over `points` (stable ids
/// = positions) for every polygon, on `threads` threads: the
/// `Polygon::Contains` test the brute-force method applies, run on every
/// point whose x lies in the polygon's bounding box (points sorted by x
/// once), without any index, so the served database is not touched.
template <typename Fn>
void BruteForceAll(const std::vector<Point>& points,
                   const std::vector<std::string>& wkts, int threads,
                   Fn&& fn) {
  std::vector<PointId> by_x(points.size());
  for (std::size_t id = 0; id < points.size(); ++id)
    by_x[id] = static_cast<PointId>(id);
  std::sort(by_x.begin(), by_x.end(), [&](PointId a, PointId b) {
    return points[a].x < points[b].x;
  });
  const auto x_of = [&](PointId id) { return points[id].x; };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<PointId> ids;
      for (std::size_t i = t; i < wkts.size(); i += threads) {
        const Polygon area = ParseWktPolygon(wkts[i]);
        const Box& box = area.Bounds();
        auto it = std::partition_point(
            by_x.begin(), by_x.end(),
            [&](PointId id) { return x_of(id) < box.min.x; });
        ids.clear();
        for (; it != by_x.end() && x_of(*it) <= box.max.x; ++it)
          if (area.Contains(points[*it])) ids.push_back(*it);
        std::sort(ids.begin(), ids.end());
        fn(i, ids);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

Oracle ComputeOracle(const Workload& w, bool churn) {
  Oracle o;
  const int threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  if (!churn) {
    o.exact.resize(w.wkts.size());
    BruteForceAll(w.base, w.wkts, threads,
                  [&](std::size_t i, const std::vector<PointId>& ids) {
                    o.exact[i] = perfbench::DigestOf(ids);
                  });
    return o;
  }
  o.racing.resize(w.wkts.size());
  BruteForceAll(w.universe, w.wkts, threads,
                [&](std::size_t i, const std::vector<PointId>& ids) {
                  RacingExpect& e = o.racing[i];
                  for (const PointId id : ids) {
                    if (w.unstable[id]) {
                      e.unstable.push_back(id);
                    } else {
                      e.stable.Add(id);
                    }
                  }
                });
  return o;
}

// ---------------------------------------------------------------------------
// The served system
// ---------------------------------------------------------------------------

DynamicPointDatabase::Options DatabaseOptions(const Config& cfg) {
  DynamicPointDatabase::Options opts;
  if (cfg.workload == "paged-io") {
    opts.base.storage.backend = StorageBackend::kMmap;
    opts.base.storage.page_size_bytes = kPageBytes;
    opts.base.storage.cache_pages = kPagedCachePages;
    opts.base.storage.spill_dir = cfg.out_dir;
  }
  return opts;
}

struct Served {
  std::unique_ptr<DynamicPointDatabase> db;
  std::unique_ptr<QueryServer> server;
  std::vector<std::unique_ptr<QueryClient>> clients;

  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served() { TearDown(); }

  /// Closes the connections, stops the server, then frees the database
  /// it serves — the order the server's lifetime contract requires.
  void TearDown() {
    clients.clear();
    server.reset();
    db.reset();
  }
};

/// Per-reply bookkeeping shared by every wire phase.
struct WireTally {
  OpTally ops;
  std::uint64_t wrong = 0;         // Wrong answers (a subset of ops.failed).
  std::vector<std::string> shown;  // WKT of the first wrongly answered ones.
  std::uint64_t queries = 0;
  std::uint64_t method_count[4] = {0, 0, 0, 0};
  std::uint64_t learned = 0;
  std::uint64_t cache_hits = 0;

  void Wrong(const std::string& wkt) {
    ++wrong;
    if (shown.size() < kShownMismatches) shown.push_back(wkt);
  }
  void Merge(const WireTally& o) {
    ops.Merge(o.ops);
    wrong += o.wrong;
    for (const std::string& wkt : o.shown)
      if (shown.size() < kShownMismatches) shown.push_back(wkt);
    queries += o.queries;
    for (int m = 0; m < 4; ++m) method_count[m] += o.method_count[m];
    learned += o.learned;
    cache_hits += o.cache_hits;
  }
};

class Checker {
 public:
  Checker(const Workload& w, const Oracle& o, bool churn)
      : w_(w), o_(o), churn_(churn) {}

  bool QueryOk(std::uint32_t poly, const std::vector<PointId>& ids) const {
    if (churn_)
      return perfbench::RacingReplyOk(o_.racing[poly], w_.unstable, ids);
    return perfbench::DigestOf(ids) == o_.exact[poly];
  }

 private:
  const Workload& w_;
  const Oracle& o_;
  bool churn_;
};

/// Sends one op over `client`; returns whether it succeeded and was
/// answered correctly. Query replies also feed the plan-mix counters.
bool RunWireOp(QueryClient& client, const Op& op, const Workload& w,
               const Checker& check, WireTally& tally) {
  try {
    switch (op.kind) {
      case OpKind::kQuery: {
        WireQueryRequest req;
        req.wkt = w.wkts[op.poly];
        const QueryClient::QueryOutcome out = client.Query(req);
        ++tally.queries;
        for (int m = 0; m < 4; ++m)
          if (out.stats.plan_method & (1u << m)) ++tally.method_count[m];
        if (out.stats.plan_reason & plan_reason::kLearnedModel) ++tally.learned;
        tally.cache_hits += out.stats.result_cache_hits;
        if (!check.QueryOk(op.poly, out.ids)) {
          tally.Wrong(w.wkts[op.poly]);
          return false;
        }
        return true;
      }
      case OpKind::kInsert: {
        const WireMutationResult r = client.Insert(op.at.x, op.at.y);
        return r.ok && r.value == op.id;
      }
      case OpKind::kErase:
        return client.Erase(op.id).ok;
      case OpKind::kCompact:
        return client.Compact().ok;
    }
  } catch (const std::exception& e) {
    std::cerr << "op failed: " << e.what() << "\n";
  }
  return false;
}

/// (Re)starts the server on `s.db` and connects `connections` clients,
/// pinging each so its server-side thread is up before any timing.
void StartServer(Served& s, int connections) {
  s.clients.clear();
  s.server.reset();
  QueryServer::Options so;
  so.engine_threads = kEngineThreads;
  s.server = std::make_unique<QueryServer>(s.db.get(), so);
  s.server->Start();
  for (int c = 0; c < connections; ++c) {
    s.clients.push_back(std::make_unique<QueryClient>(s.server->port()));
    if (!s.clients.back()->Ping()) throw std::runtime_error("ping failed");
  }
}

/// Builds the database (the paged backend spills and checksums its page
/// file here), starts the server, and runs the warm-up that forces lazy
/// set-up: every method once in-process on the fresh snapshot (whatever a
/// method builds on first use), then the warm ops over the wire (the
/// planned query, and hot-zipf's second-hit cache admission).
void SetUp(const Config& cfg, const Workload& w, const Checker& check,
           Served& s, WireTally& tally) {
  s.db = std::make_unique<DynamicPointDatabase>(w.base, DatabaseOptions(cfg));
  StartServer(s, kConnections);
  {
    const auto snap = s.db->snapshot();
    QueryContext ctx;
    for (const DynamicMethod m :
         {DynamicMethod::kVoronoi, DynamicMethod::kTraditional,
          DynamicMethod::kGridSweep, DynamicMethod::kBruteForce})
      RunDynamicSnapshotQuery(
          *snap, m, ParseWktPolygon(w.wkts[w.warm.front().poly]), ctx);
  }
  for (const Op& op : w.warm)
    tally.ops.Record(RunWireOp(*s.clients[op.conn], op, w, check, tally));
}

/// Phase A: closed loop — each connection sends its next op when the
/// previous reply is in. Returns the wall time in seconds.
double RunPhaseA(Served& s, std::span<const Op> ops, const Workload& w,
                 const Checker& check, WireTally& tally) {
  std::vector<std::vector<const Op*>> per(s.clients.size());
  for (const Op& op : ops) per[op.conn].push_back(&op);
  std::vector<WireTally> tallies(per.size());
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < per.size(); ++c) {
    threads.emplace_back([&, c] {
      for (const Op* op : per[c])
        tallies[c].ops.Record(
            RunWireOp(*s.clients[c], *op, w, check, tallies[c]));
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = MsSince(t0) / 1000.0;
  for (const WireTally& t : tallies) tally.Merge(t);
  return wall_s;
}

struct PhaseB {
  std::vector<double> query_ms;
  std::vector<double> write_ms;
  std::vector<double> compact_ms;
  // How late the generator woke for sends due on an idle connection.
  std::vector<double> wake_late_us;
  std::uint64_t sends = 0;
  std::uint64_t late = 0;

  void Merge(const PhaseB& o) {
    query_ms.insert(query_ms.end(), o.query_ms.begin(), o.query_ms.end());
    write_ms.insert(write_ms.end(), o.write_ms.begin(), o.write_ms.end());
    compact_ms.insert(compact_ms.end(), o.compact_ms.begin(),
                      o.compact_ms.end());
    wake_late_us.insert(wake_late_us.end(), o.wake_late_us.begin(),
                        o.wake_late_us.end());
    sends += o.sends;
    late += o.late;
  }
};

/// Phase B: open loop — op j is due at start + j / rate whether or not
/// earlier replies are in. An op that waits behind the previous reply on
/// its connection is timed from when it was due, so a server stall charges
/// every request it delays; an op due on an idle connection is timed from
/// when it is sent, so the generator's own wake-up delay is not charged to
/// the server (it is reported as `loadgen.*` instead).
void RunPhaseB(Served& s, std::span<const Op> ops, const Workload& w,
               const Checker& check, double rate, PhaseB& all,
               WireTally& tally) {
  std::vector<std::vector<std::pair<std::size_t, const Op*>>> per(
      s.clients.size());
  for (std::size_t j = 0; j < ops.size(); ++j)
    per[ops[j].conn].emplace_back(j, &ops[j]);
  std::vector<PhaseB> parts(per.size());
  std::vector<WireTally> tallies(per.size());
  std::vector<std::thread> threads;
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t c = 0; c < per.size(); ++c) {
    threads.emplace_back([&, c] {
      // Wake at the due time, not up to the default 50 us timer slack late.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      PhaseB& part = parts[c];
      Clock::time_point prev_end = start;
      for (const auto& [j, op] : per[c]) {
        const auto due =
            start + std::chrono::nanoseconds(
                        static_cast<std::int64_t>(j * 1e9 / rate));
        Clock::time_point t0 = due;
        if (prev_end < due) {
          std::this_thread::sleep_until(due);
          t0 = Clock::now();
          const double late_us =
              std::chrono::duration<double, std::micro>(t0 - due).count();
          part.wake_late_us.push_back(late_us);
          if (late_us > kLateThresholdMs * 1e3) ++part.late;
        }
        ++part.sends;
        tallies[c].ops.Record(
            RunWireOp(*s.clients[c], *op, w, check, tallies[c]));
        prev_end = Clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(prev_end - t0).count();
        switch (op->kind) {
          case OpKind::kQuery:
            part.query_ms.push_back(ms);
            break;
          case OpKind::kCompact:
            part.compact_ms.push_back(ms);
            break;
          default:
            part.write_ms.push_back(ms);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t c = 0; c < per.size(); ++c) {
    all.Merge(parts[c]);
    tally.Merge(tallies[c]);
  }
}

// ---------------------------------------------------------------------------
// Traced run: each request replayed in-process through every layer's
// public function, one span per call
// ---------------------------------------------------------------------------

struct LayerSamples {
  std::vector<double> decode_us, encode_us, parse_us;
  double bytes = 0.0;
  std::vector<double> queue_wait_us, exec_us;
  std::vector<double> plan_us, probe_us, prepared_us, method_us;
  std::vector<double> overhead_us, unattributed_us;
  std::vector<double> insert_us, erase_us, compact_ms;
  double request_ns = 0.0, unattributed_ns = 0.0;
  std::uint64_t queries = 0, executed = 0, learned = 0;
  std::uint64_t method_count[4] = {0, 0, 0, 0};
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t candidates = 0, candidate_hits = 0, results = 0;
  std::uint64_t bulk_accepted = 0, delta_candidates = 0;
  std::uint64_t voronoi_runs = 0, expansions = 0;
  std::uint64_t pages_touched = 0, page_hits = 0, page_misses = 0;
  double regret_chosen_ns = 0.0, regret_best_ns = 0.0;
};

// Indexed by `DynamicMethod`; the plan-mix metrics are planner.share.<name>.
const char* kMethodShort[4] = {"voronoi", "traditional", "grid-sweep",
                               "brute"};
const char* kRegretSpan[4] = {"regret.voronoi", "regret.traditional",
                              "regret.grid-sweep", "regret.brute"};

class Tracer {
 public:
  Tracer(DynamicPointDatabase& db, int engine_threads)
      : db_(db),
        engine_(EngineOptions{engine_threads, 1024, false}),
        method_(engine_.RegisterMethod(db.PlannedQuery())) {}

  std::vector<Span>& spans() { return spans_; }
  LayerSamples& samples() { return s_; }

  struct Traced {
    std::vector<PointId> ids;  // The served (wire) answer.
    bool replay_agrees = true;  // The in-process replay returned the same.
  };

  /// One query request: the wire round trip through the served stack is
  /// the `request` span; then each layer of the served path is called
  /// in-process on the same request (decode, parse, engine, encode), and
  /// `layers` adds the re-runs inside the engine (plan, prepare, method,
  /// dynamic pass, cache probe, regret). The replayed calls are the
  /// request's children by request id, not by time, so its unattributed
  /// remainder is its duration minus theirs (transport, syscalls, client).
  Traced Query(QueryClient& client, std::uint64_t req, const std::string& wkt,
               bool layers) {
    WireQueryRequest wire_req;
    wire_req.wkt = wkt;
    // Page counters are read around the wire request, so they show the
    // served execution's page traffic, not the replay's on warm pages.
    const PageIoCounters pages0 = PageCounters();
    std::int64_t t = NowNs();
    QueryClient::QueryOutcome served = client.Query(wire_req);
    const Span request{"request", t, NowNs(), req};
    const PageIoCounters pages1 = PageCounters();
    const bool hit = served.stats.result_cache_hits != 0;

    const std::vector<std::uint8_t> payload = EncodeQueryRequest(wire_req);
    const std::size_t first = spans_.size();
    t = NowNs();
    const WireQueryRequest decoded = DecodeQueryRequest(payload);
    t = Mark("wire.decode", t, req);
    Polygon area = ParseWktPolygon(decoded.wkt);
    t = Mark("wkt.parse", t, req);
    // The served request offered its answer to the cache once already; a
    // second offer would pass second-hit admission, so a miss is replayed
    // uncached (a hit re-hits without admitting anything).
    SubmitOptions opts;
    opts.hints.use_cache = hit;
    QueryResult result = engine_.Submit(area, method_, opts).get();
    t = Mark("engine", t, req);
    std::vector<std::uint8_t> out;
    const std::span<const PointId> ids(result.ids);
    for (std::size_t at = 0; at < ids.size(); at += kIdsPerFrame) {
      AppendFrame(out, Opcode::kResultIds,
                  EncodeResultIdsPayload(ids.subspan(
                      at, std::min(kIdsPerFrame, ids.size() - at))));
    }
    WireQueryStats ws = SummarizeQueryStats(result.stats);
    ws.results = result.ids.size();
    AppendFrame(out, Opcode::kQueryDone, EncodeQueryStatsPayload(ws));
    t = Mark("wire.encode", t, req);
    spans_.push_back(request);

    const std::span<const Span> children(spans_.data() + first, 4);
    const std::int64_t self = perfbench::ReplayedSelfTimeNs(request, children);
    s_.decode_us.push_back(Us(children[0]));
    s_.parse_us.push_back(Us(children[1]));
    const double exec_us = result.stats.elapsed_ms * 1e3;
    s_.exec_us.push_back(exec_us);
    s_.queue_wait_us.push_back(Us(children[2]) - exec_us);
    s_.encode_us.push_back(Us(children[3]));
    s_.bytes += static_cast<double>(2 * kFrameHeaderBytes + payload.size() +
                                    out.size());
    s_.unattributed_us.push_back(self / 1e3);
    s_.request_ns += request.duration_ns();
    s_.unattributed_ns += self;

    // Plan provenance as served; work counters from the replayed execution.
    ++s_.queries;
    for (int m = 0; m < 4; ++m)
      if (served.stats.plan_method & (1u << m)) ++s_.method_count[m];
    if (served.stats.plan_reason & plan_reason::kLearnedModel) ++s_.learned;
    s_.cache_hits += served.stats.result_cache_hits;
    s_.cache_misses += served.stats.result_cache_misses;
    const QueryStats& st = result.stats;
    if (!hit) {
      ++s_.executed;
      s_.candidates += st.candidates;
      s_.candidate_hits += st.candidate_hits;
      s_.results += st.results;
      s_.bulk_accepted += st.bulk_accepted;
      s_.delta_candidates += st.delta_candidates;
      if (st.plan_method & (1u << static_cast<int>(DynamicMethod::kVoronoi))) {
        ++s_.voronoi_runs;
        s_.expansions += st.neighbor_expansions;
      }
      s_.pages_touched += pages1.pages_touched - pages0.pages_touched;
      s_.page_hits += pages1.cache_hits - pages0.cache_hits;
      s_.page_misses += pages1.cache_misses - pages0.cache_misses;
    }
    if (layers) Layers(req, area, hit);
    const bool agrees = result.ids == served.ids;
    return Traced{std::move(served.ids), agrees};
  }

  bool Insert(std::uint64_t req, const Point& p, PointId expect) {
    const std::int64_t t0 = NowNs();
    const std::optional<PointId> id = db_.Insert(p);
    s_.insert_us.push_back(Us(t0, Mark("dynamic.insert", t0, req)));
    return id.has_value() && *id == expect;
  }
  bool Erase(std::uint64_t req, PointId id) {
    const std::int64_t t0 = NowNs();
    const bool ok = db_.Erase(id);
    s_.erase_us.push_back(Us(t0, Mark("dynamic.erase", t0, req)));
    return ok;
  }
  void Compact(std::uint64_t req) {
    const std::int64_t t0 = NowNs();
    db_.Compact();
    s_.compact_ms.push_back(Us(t0, Mark("dynamic.compact", t0, req)) / 1e3);
  }

 private:
  /// Lifetime page counters of the current snapshot's base (0 in memory).
  PageIoCounters PageCounters() const {
    const std::shared_ptr<const DynamicPointDatabase::Snapshot> snap =
        db_.snapshot();
    const PageStore* store = snap->base().page_store();
    return store != nullptr ? store->counters() : PageIoCounters{};
  }

  static double Us(const Span& s) { return s.duration_ns() / 1e3; }
  static double Us(std::int64_t t0, std::int64_t t1) { return (t1 - t0) / 1e3; }

  std::int64_t Mark(const char* name, std::int64_t start, std::uint64_t req) {
    const std::int64_t end = NowNs();
    spans_.push_back(Span{name, start, end, req});
    return end;
  }

  /// Re-runs each layer of the executed path on its own, outside the
  /// request span: nothing here feeds the planner's EWMAs (PlanFor and
  /// the per-method objects bypass `Observe`), and the cache is only read.
  void Layers(std::uint64_t req, const Polygon& area, bool cache_hit) {
    const PlannedAreaQuery* planned = db_.PlannedQuery();
    std::int64_t t = NowNs();
    const QueryPlan plan = planned->PlanFor(area);
    const std::int64_t t_plan = Mark("planner.plan", t, req);
    const double plan_us = Us(t, t_plan);
    s_.plan_us.push_back(plan_us);

    const std::shared_ptr<const DynamicPointDatabase::Snapshot> snap =
        db_.snapshot();
    t = NowNs();
    layer_ctx_.Prepared(area, plan.expected_tests);
    const std::int64_t t_prep = Mark("prepared.build", t, req);
    s_.prepared_us.push_back(Us(t, t_prep));
    snap->BaseQuery(plan.method).Run(area, layer_ctx_);
    const std::int64_t t_method = Mark("method.exec", t_prep, req);
    const double method_us = Us(t_prep, t_method);
    s_.method_us.push_back(method_us);
    RunDynamicSnapshotQuery(*snap, plan.method, area, layer_ctx_);
    const std::int64_t t_dyn = Mark("dynamic.query", t_method, req);
    s_.overhead_us.push_back(Us(t_method, t_dyn) - method_us);

    if (cache_hit) {
      t = NowNs();
      db_.Query(area, probe_ctx_);
      s_.probe_us.push_back(Us(t, Mark("cache.query", t, req)) - plan_us);
    }

    // Regret: the planned method against the best of the three index
    // methods on this polygon, each on a fresh build of its own.
    double best = 0.0, chosen = 0.0;
    for (const DynamicMethod m : {DynamicMethod::kVoronoi,
                                  DynamicMethod::kTraditional,
                                  DynamicMethod::kGridSweep,
                                  DynamicMethod::kBruteForce}) {
      if (m == DynamicMethod::kBruteForce && plan.method != m) continue;
      const int i = static_cast<int>(m);
      t = NowNs();
      snap->BaseQuery(m).Run(area, alt_ctx_[i]);
      const double ns = static_cast<double>(Mark(kRegretSpan[i], t, req) - t);
      if (m != DynamicMethod::kBruteForce && (best == 0.0 || ns < best))
        best = ns;
      if (m == plan.method) chosen = ns;
    }
    s_.regret_chosen_ns += chosen;
    s_.regret_best_ns += best;
  }

  DynamicPointDatabase& db_;
  QueryEngine engine_;
  int method_;
  QueryContext layer_ctx_, probe_ctx_;
  QueryContext alt_ctx_[4];
  std::vector<Span> spans_;
  LayerSamples s_;
};

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  out << "request\tname\tstart_ns\tend_ns\n";
  for (const Span& s : spans)
    out << s.request << "\t" << s.name << "\t" << s.start_ns << "\t"
        << s.end_ns << "\n";
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// The host probe's time on the calibration host in a quiet phase.
constexpr double kProbeNominalMs = 8.0;

/// How much slower than the calibration host at its quietest the host ran
/// over an interval bracketed by probes of `before_ms` and `after_ms`.
double Slowdown(double before_ms, double after_ms) {
  return (before_ms + after_ms) / 2.0 / kProbeNominalMs;
}

// A round whose host slowdown exceeds the run's smallest by more than this
// factor is left out of the figures (see QuietMedian).
constexpr double kBusyRoundFactor = 1.5;

/// Median of `values` over the rounds whose host slowdown is at most
/// kBusyRoundFactor times the run's smallest, or over the quieter half of
/// the rounds if fewer are left. The probe runs no program code, so which
/// rounds are kept depends on the host alone: in a busy host phase the
/// probe slows too, and those rounds — whose queues can grow far beyond
/// the slowdown's proportion — drop out; on a steady host every round
/// counts.
double QuietMedian(const std::vector<double>& values,
                   const std::vector<double>& slowdowns) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return slowdowns[a] < slowdowns[b];
  });
  std::vector<double> kept;
  for (const std::size_t i : order) {
    if (kept.size() >= (order.size() + 1) / 2 &&
        slowdowns[i] > kBusyRoundFactor * slowdowns[order.front()])
      break;
    kept.push_back(values[i]);
  }
  return perfbench::Median(kept);
}

/// Restricts this thread, and every thread it starts afterwards, to the
/// first CPU it may run on; returns that CPU, or -1 if pinning failed (the
/// run then goes on unpinned and the host stamp says so).
///
/// Why one CPU: on the multi-vCPU VM this benchmark was calibrated on,
/// every hand-off between the generator, connection and engine threads on
/// different CPUs waits for an idle vCPU to be woken, and the host delays
/// those wake-ups by up to milliseconds in its busy phases — unpinned,
/// closed-loop qps moved 20-25% and p99 up to tenfold between runs minutes
/// apart. On one CPU a hand-off is a context switch, and every figure is
/// the served stack's own work.
int PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? c : -1;
  }
  return -1;
}

std::string HostStamp(const Config& cfg, int pinned_cpu) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  perfbench::JsonObject h;
  h.Number("nproc", std::thread::hardware_concurrency());
  h.String("cpu", cpu);
  h.String("compiler", PERFBENCH_COMPILER);
  h.String("build_type", PERFBENCH_BUILD_TYPE);
  h.Number("pinned_cpu", pinned_cpu);
  h.Number("engine_threads", kEngineThreads);
  h.Number("connections", kConnections);
  h.Number("points", static_cast<double>(kPoints));
  h.Number("phase_b_rate", cfg.spec.phase_b_rate);
  return h.Finish();
}

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    std::cout << "metric " << name << " = " << value << " " << unit << "\n";
    perfbench::JsonObject m;
    m.Number("value", value);
    m.String("unit", unit);
    metrics_.Raw(name, m.Finish());
  }
  std::string Metrics() const { return metrics_.Finish(); }

 private:
  perfbench::JsonObject metrics_;
};

double Share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / whole;
}



void PrintPlanMix(const char* label, const std::uint64_t count[4],
                  std::uint64_t learned, std::uint64_t queries) {
  std::cout << label << " plan mix over " << queries << " queries:";
  for (int m = 0; m < 4; ++m)
    std::cout << " " << kMethodShort[m] << "=" << Share(count[m], queries);
  std::cout << " learned=" << Share(learned, queries) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  try {
    cfg = ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "served_bench: " << e.what() << "\n";
    return 2;
  }
  const bool churn = cfg.workload == "churn";

  const Workload w = MakeWorkload(cfg);
  auto t0 = Clock::now();
  const Oracle oracle = ComputeOracle(w, churn);
  std::cout << "oracle: " << w.wkts.size() << " polygons in " << MsSince(t0)
            << " ms\n";
  const Checker check(w, oracle, churn);
  // Everything from set-up on runs on one CPU; threads started from here
  // on inherit the pinning.
  const int cpu = PinToOneCpu();
  std::cout << "host " << HostStamp(cfg, cpu) << "\n";

  // Every timed interval is bracketed by host probes; `slowdowns` holds
  // each interval's factor (see Slowdown), and the figures are reported
  // divided by it: at the speed of the calibration host when quiet.
  const perfbench::HostProbe probe;
  std::vector<double> slowdowns;
  double probe_ms = probe.RunMs();
  const auto bracket = [&] {
    const double after = probe.RunMs();
    slowdowns.push_back(Slowdown(probe_ms, after));
    probe_ms = after;
    return slowdowns.back();
  };

  WireTally tally;
  std::vector<double> setup_s, raw_setup_s;
  Served served;
  for (int k = 0; k < kSetups; ++k) {
    served.TearDown();
    WireTally warm;
    t0 = Clock::now();
    SetUp(cfg, w, check, served, warm);
    raw_setup_s.push_back(MsSince(t0) / 1000.0);
    setup_s.push_back(raw_setup_s.back() / bracket());
    tally.Merge(warm);
  }

  // The timed phases run in rounds on the last set-up's server. Each
  // figure is the median over the rounds the host did not slow down (see
  // QuietMedian), so neither a host stall inside a round nor a busy host
  // phase that spans several rounds moves the run's result.
  WireTally timed;
  PhaseB b;
  std::vector<double> round_qps, round_p50, query_ms;
  std::vector<double> raw_qps, raw_p50;
  std::vector<double> slowdown_a, slowdown_b;
  for (int r = 0; r < cfg.spec.rounds; ++r) {
    const std::uint64_t before = timed.queries;
    const double wall_s =
        RunPhaseA(served, w.phase_a[r], w, check, timed);
    raw_qps.push_back((timed.queries - before) / wall_s);
    slowdown_a.push_back(bracket());
    round_qps.push_back(raw_qps.back() * slowdown_a.back());
    PhaseB round;
    RunPhaseB(served, w.phase_b[r], w, check, cfg.spec.phase_b_rate, round,
              timed);
    raw_p50.push_back(perfbench::Percentile(round.query_ms, 50));
    slowdown_b.push_back(bracket());
    round_p50.push_back(raw_p50.back() / slowdown_b.back());
    for (const double ms : round.query_ms)
      query_ms.push_back(ms / slowdown_b.back());
    b.Merge(round);
  }
  tally.Merge(timed);
  const double rss_mb = perfbench::PeakRssMb();

  std::size_t n_a = 0, n_b = 0;
  for (int r = 0; r < cfg.spec.rounds; ++r) {
    n_a += w.phase_a[r].size();
    n_b += w.phase_b[r].size();
  }
  std::cout << "timed in " << cfg.spec.rounds << " rounds; phase A: " << n_a
            << " ops closed-loop on " << kConnections
            << " connections; phase B: " << n_b << " ops open-loop at "
            << cfg.spec.phase_b_rate << " ops/s\n";
  std::cout << "phase B samples: " << b.query_ms.size() << " queries, "
            << b.write_ms.size() << " writes, " << b.compact_ms.size()
            << " compacts (median " << perfbench::Median(b.compact_ms)
            << " ms); late sends " << b.late << "/" << b.sends
            << "; generator wake-up lateness us over "
            << b.wake_late_us.size() << " idle sends: p50 "
            << perfbench::Percentile(b.wake_late_us, 50) << " p99 "
            << perfbench::Percentile(b.wake_late_us, 99) << "\n";
  std::cout << "phase B query latency ms, pooled over " << b.query_ms.size()
            << " samples: p50 " << perfbench::Percentile(b.query_ms, 50)
            << " p90 " << perfbench::Percentile(b.query_ms, 90) << " p99 "
            << perfbench::Percentile(b.query_ms, 99) << " max "
            << perfbench::Percentile(b.query_ms, 100) << "\n";
  const auto print_rounds = [](const char* name,
                               const std::vector<double>& v) {
    std::cout << name << " per round:";
    for (const double x : v) std::cout << " " << x;
    std::cout << "\n";
  };
  print_rounds("host slowdown (set-ups, then phase A/B alternating)",
               slowdowns);
  print_rounds("qps", round_qps);
  print_rounds("latency_p50_ms", round_p50);
  std::cout << "as measured, before dividing out the host slowdown: qps "
            << perfbench::Median(raw_qps) << " 1/s, latency_p50_ms "
            << perfbench::Median(raw_p50) << " ms, setup_s "
            << perfbench::Median(raw_setup_s) << " s\n";
  PrintPlanMix("timed", timed.method_count, timed.learned, timed.queries);
  std::cout << "timed cache hit rate " << Share(timed.cache_hits, timed.queries)
            << "\n";
  if (churn) {
    std::cout << "metric write_p50_ms = "
              << perfbench::Percentile(b.write_ms, 50) << " ms\n"
              << "metric write_p99_ms = "
              << perfbench::Percentile(b.write_ms, 99) << " ms\n";
  }

  Report report;
  if (!cfg.trace) {
    report.Add("qps", QuietMedian(round_qps, slowdown_a), "1/s");
    report.Add("latency_p50_ms", QuietMedian(round_p50, slowdown_b), "ms");
    // Printed, not gated: on the calibration host its run-to-run spread
    // (planner drift in the heavy tail, host stalls) exceeds any bound
    // the benchmark could hold it to.
    std::cout << "metric latency_p99_ms = "
              << perfbench::Percentile(query_ms, 99) << " ms (pooled over "
              << query_ms.size() << " queries)\n";
    report.Add("setup_s", perfbench::Median(setup_s), "s");
    report.Add("rss_mb", rss_mb, "MB");
  } else {
    // The traced replay runs after the timed phases, on the warmed
    // database (churn: a fresh one replaying its whole stream serially, so
    // every query has a known snapshot and an exact expected answer).
    if (churn) {
      served.TearDown();
      served.db =
          std::make_unique<DynamicPointDatabase>(w.base, DatabaseOptions(cfg));
    }
    StartServer(served, 1);
    QueryClient& client = *served.clients.front();
    Tracer tracer(*served.db, kEngineThreads);
    const ResultCache& cache = served.db->PlannedQuery()->cache();
    const std::uint64_t admitted0 = cache.admitted();
    const std::uint64_t declined0 = cache.declined();
    OpTally traced;
    // One traced query, checked against `expect`; a transport or typed
    // server error counts as failed, like on the timed path.
    const auto verify = [&](std::uint64_t req, std::uint32_t poly,
                            const IdDigest& expect, bool layers) {
      try {
        const Tracer::Traced r =
            tracer.Query(client, req, w.wkts[poly], layers);
        const bool ok =
            r.replay_agrees && perfbench::DigestOf(r.ids) == expect;
        if (!ok) tally.Wrong(w.wkts[poly]);
        traced.Record(ok);
      } catch (const std::exception& e) {
        std::cerr << "traced op failed: " << e.what() << "\n";
        traced.Record(false);
      }
    };
    if (!churn) {
      for (std::size_t i = 0; i < w.trace.size(); ++i) {
        const Op& op = w.trace[i];
        verify(i, op.poly, oracle.exact[op.poly], true);
      }
    } else {
      // Every query of the stream is checked exactly: the serial replay
      // knows which points are live when it runs. The layer re-runs are
      // sampled down to about `trace_queries` queries.
      std::vector<std::uint8_t> live(w.universe.size(), 0);
      std::fill(live.begin(), live.begin() + w.base.size(), 1);
      std::vector<const std::vector<Op>*> stream = {&w.warm};
      for (int r = 0; r < cfg.spec.rounds; ++r) {
        stream.push_back(&w.phase_a[r]);
        stream.push_back(&w.phase_b[r]);
      }
      std::size_t total_queries = 0;
      for (const auto* list : stream)
        for (const Op& op : *list) total_queries += op.kind == OpKind::kQuery;
      const std::size_t stride = std::max<std::size_t>(
          1, total_queries / std::max<std::size_t>(1, kTraceQueries));
      std::uint64_t req = 0, nq = 0;
      for (const auto* list : stream) {
        for (const Op& op : *list) {
          switch (op.kind) {
            case OpKind::kQuery: {
              IdDigest expect = oracle.racing[op.poly].stable;
              for (const PointId id : oracle.racing[op.poly].unstable)
                if (live[id]) expect.Add(id);
              verify(req, op.poly, expect, nq++ % stride == 0);
              break;
            }
            case OpKind::kInsert:
              traced.Record(tracer.Insert(req, op.at, op.id));
              live[op.id] = 1;
              break;
            case OpKind::kErase:
              traced.Record(tracer.Erase(req, op.id));
              live[op.id] = 0;
              break;
            case OpKind::kCompact:
              tracer.Compact(req);
              traced.Record(true);
              break;
          }
          ++req;
        }
      }
    }
    tally.ops.Merge(traced);
    WriteSpans(tracer.spans(), cfg.out_dir + "/spans-" + cfg.workload + "-" +
                                   std::to_string(cfg.seed) + ".tsv");

    const LayerSamples& s = tracer.samples();
    PrintPlanMix("traced", s.method_count, s.learned, s.queries);
    report.Add("wire.decode_us", perfbench::Median(s.decode_us), "us");
    report.Add("wire.encode_us", perfbench::Median(s.encode_us), "us");
    report.Add("wire.bytes_per_query",
               s.bytes / std::max<std::uint64_t>(1, s.queries), "bytes");
    report.Add("wkt.parse_us", perfbench::Median(s.parse_us), "us");
    report.Add("engine.queue_wait_p50_us",
               perfbench::Percentile(s.queue_wait_us, 50), "us");
    report.Add("engine.queue_wait_p99_us",
               perfbench::Percentile(s.queue_wait_us, 99), "us");
    report.Add("engine.exec_us", perfbench::Median(s.exec_us), "us");
    report.Add("planner.plan_us", perfbench::Median(s.plan_us), "us");
    for (int m = 0; m < 4; ++m)
      report.Add(std::string("planner.share.") + kMethodShort[m],
                 Share(s.method_count[m], s.queries), "ratio");
    report.Add("planner.learned_share", Share(s.learned, s.queries), "ratio");
    report.Add("planner.regret",
               s.regret_best_ns > 0 ? s.regret_chosen_ns / s.regret_best_ns
                                    : 0.0,
               "ratio");
    report.Add("cache.hit_rate",
               Share(s.cache_hits, s.cache_hits + s.cache_misses), "ratio");
    report.Add("cache.admitted",
               static_cast<double>(cache.admitted() - admitted0),
               "count");
    report.Add("cache.declined",
               static_cast<double>(cache.declined() - declined0),
               "count");
    report.Add("cache.probe_us", perfbench::Median(s.probe_us), "us");
    report.Add("prepared.build_us", perfbench::Median(s.prepared_us), "us");
    report.Add("method.exec_us", perfbench::Median(s.method_us), "us");
    report.Add("method.candidates_per_query",
               Share(s.candidates, s.executed), "count");
    report.Add("method.useful_ratio", Share(s.candidate_hits, s.candidates),
               "ratio");
    report.Add("method.bulk_accepted_share", Share(s.bulk_accepted, s.results),
               "ratio");
    report.Add("voronoi.expansions_per_query",
               Share(s.expansions, s.voronoi_runs), "count");
    report.Add("page.hit_rate", Share(s.page_hits, s.pages_touched), "ratio");
    report.Add("page.touched_per_query", Share(s.pages_touched, s.executed),
               "count");
    report.Add("page.misses_per_query", Share(s.page_misses, s.executed),
               "count");
    report.Add("dynamic.overhead_us", perfbench::Median(s.overhead_us), "us");
    report.Add("dynamic.delta_candidates_per_query",
               Share(s.delta_candidates, s.executed), "count");
    report.Add("dynamic.insert_us", perfbench::Median(s.insert_us), "us");
    report.Add("dynamic.erase_us", perfbench::Median(s.erase_us), "us");
    report.Add("dynamic.compact_ms", perfbench::Median(s.compact_ms), "ms");
    report.Add("host.slowdown", perfbench::Median(slowdowns), "ratio");
    report.Add("loadgen.late_share", Share(b.late, b.sends), "ratio");
    report.Add("loadgen.wake_late_p99_us",
               perfbench::Percentile(b.wake_late_us, 99), "us");
    report.Add("trace.unattributed_us", perfbench::Median(s.unattributed_us),
               "us");
    std::cout << "traced unattributed share of request time: "
              << (s.request_ns > 0 ? s.unattributed_ns / s.request_ns : 0.0)
              << "\n";
  }

  served.TearDown();
  for (const std::string& wkt : tally.shown)
    std::cout << "MISMATCH " << wkt << "\n";
  if (tally.wrong > tally.shown.size())
    std::cout << "... and " << tally.wrong - tally.shown.size()
              << " more wrong answers\n";
  // Every workload is built so that no operation fails: a failed one —
  // wrong answer, typed server error or transport error — fails the run.
  const bool correct = tally.ops.failed == 0;
  std::cout << "metric failed_share = " << tally.ops.failed_share()
            << " ratio (" << tally.ops.failed << "/" << tally.ops.attempted
            << ")\n";
  perfbench::JsonObject result;
  result.Raw("correct", correct ? "true" : "false");
  result.Number("attempted", static_cast<double>(tally.ops.attempted));
  result.Number("failed", static_cast<double>(tally.ops.failed));
  result.Raw("metrics", report.Metrics());
  std::cout << result.Finish() << std::endl;
  return correct ? 0 : 1;
}
