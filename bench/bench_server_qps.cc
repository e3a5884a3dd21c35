// Server throughput: queries/second through the full network stack —
// WKT encode, loopback TCP, frame parse, engine submission, planned
// execution, id streaming — versus concurrent client count.
//
// Three cells per client count:
//  * uncached: distinct-per-round polygons with use_cache=false, so every
//    query executes its planned method — the steady-state cost of a
//    cache-hostile workload;
//  * direct: the uncached cell's polygons and thread counts, but each
//    thread calls `DynamicPointDatabase::Query` in-process with the cache
//    off — no wire, no engine. The printed wire/direct qps ratio is what
//    the network front door costs on top of the query itself;
//  * cached: one fixed polygon warmed past second-hit admission, so every
//    timed query is a result-cache hit — the protocol + dispatch floor.
//
// Every row carries the host it ran on (online CPUs, CPU model, compiler),
// so a committed figure is never compared across machines unawares.
//
// Every polygon's networked answer is differentially checked against the
// in-process planned query before timing (the `mismatches` column; CI
// gates it at zero).
//
// Usage: bench_server_qps [--quick] [--json]
//   --quick: fewer repetitions (CI smoke); the knob grid stays identical
//   to the full run so JSON rows key-match the committed baseline.
//   --json: write rows to BENCH_server.json in the working directory.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic_point_database.h"
#include "engine/query_engine.h"
#include "geometry/wkt.h"
#include "server/client.h"
#include "server/query_server.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace {

using namespace vaq;

constexpr std::size_t kDataSize = 50000;
constexpr double kQuerySizeFraction = 0.01;
constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

struct Host {
  unsigned nproc = 0;
  std::string cpu = "unknown";
  std::string compiler;
};

Host DescribeHost() {
  Host h;
  h.nproc = std::thread::hardware_concurrency();
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      h.cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
#if defined(__clang__)
  h.compiler = "Clang " __clang_version__;
#elif defined(__GNUC__)
  h.compiler = "GCC " __VERSION__;
#else
  h.compiler = "unknown";
#endif
  return h;
}

struct Row {
  int clients = 0;
  std::string cell;  // "uncached", "direct" or "cached".
  int reps = 0;      // Queries per client.
  std::uint64_t mismatches = 0;
  std::uint64_t errors = 0;
  std::uint64_t shed = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
};

Row RunCell(QueryServer& server, const std::vector<std::string>& wkts,
            bool cached, int clients, int reps) {
  Row row;
  row.clients = clients;
  row.cell = cached ? "cached" : "uncached";
  row.reps = reps;

  const QueryServer::Counters before = server.counters();
  server.ResetEngineStats();

  std::atomic<std::uint64_t> errors{0};
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      try {
        QueryClient client(server.port());
        WireQueryRequest req;
        req.use_cache = cached;
        for (int i = 0; i < reps; ++i) {
          req.wkt = cached ? wkts[0] : wkts[(t + i) % wkts.size()];
          client.Query(req);
        }
      } catch (const std::exception&) {
        errors.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto end = std::chrono::steady_clock::now();

  row.errors = errors.load();
  row.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  row.qps = static_cast<double>(clients) * reps / (row.wall_ms / 1000.0);
  const EngineStats es = server.engine_stats();
  row.latency_p50_ms = es.latency_p50_ms;
  row.latency_p95_ms = es.latency_p95_ms;
  row.latency_p99_ms = es.latency_p99_ms;
  row.shed = server.counters().queries_shed - before.queries_shed;
  return row;
}

/// The direct cell: the uncached cell's polygons and thread counts, each
/// thread querying the database in-process with the cache off.
Row RunDirectCell(const DynamicPointDatabase& db,
                  const std::vector<Polygon>& areas, int clients, int reps) {
  Row row;
  row.clients = clients;
  row.cell = "direct";
  row.reps = reps;
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      QueryContext ctx;
      PlanHints uncached;
      uncached.use_cache = false;
      latencies[t].reserve(reps);
      for (int i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        db.Query(areas[(t + i) % areas.size()], ctx, uncached);
        latencies[t].push_back(std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto end = std::chrono::steady_clock::now();

  row.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  row.qps = static_cast<double>(clients) * reps / (row.wall_ms / 1000.0);
  std::vector<double> all;
  for (const std::vector<double>& l : latencies) {
    all.insert(all.end(), l.begin(), l.end());
  }
  std::sort(all.begin(), all.end());
  row.latency_p50_ms = NearestRankPercentile(all, 0.50);
  row.latency_p95_ms = NearestRankPercentile(all, 0.95);
  row.latency_p99_ms = NearestRankPercentile(all, 0.99);
  return row;
}

void WriteJson(const std::vector<Row>& rows, const Host& host,
               std::ostream& out) {
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << " {\n"
        << "  \"bench\": \"server\",\n"
        << "  \"cell\": \"" << r.cell << "\",\n"
        << "  \"clients\": " << r.clients << ",\n"
        << "  \"nproc\": " << host.nproc << ",\n"
        << "  \"cpu\": \"" << host.cpu << "\",\n"
        << "  \"compiler\": \"" << host.compiler << "\",\n"
        << "  \"data_size\": " << kDataSize << ",\n"
        << "  \"query_size_fraction\": " << kQuerySizeFraction << ",\n"
        << "  \"reps\": " << r.reps << ",\n"
        << "  \"mismatches\": " << r.mismatches << ",\n"
        << "  \"errors\": " << r.errors << ",\n"
        << "  \"shed\": " << r.shed << ",\n"
        << "  \"wall_ms\": " << r.wall_ms << ",\n"
        << "  \"qps\": " << r.qps << ",\n"
        << "  \"latency_p50_ms\": " << r.latency_p50_ms << ",\n"
        << "  \"latency_p95_ms\": " << r.latency_p95_ms << ",\n"
        << "  \"latency_p99_ms\": " << r.latency_p99_ms << "\n"
        << " }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  Rng rng(20200101);
  DynamicPointDatabase db(GenerateUniformPoints(kDataSize, kUnit, &rng));
  QueryServer server(&db, QueryServer::Options{});
  server.Start();

  // The fixed polygon set, shared by all cells (wkts[0] is the cached
  // cell's hot polygon).
  PolygonSpec spec;
  spec.query_size_fraction = kQuerySizeFraction;
  Rng prng(17);
  std::vector<std::string> wkts;
  std::vector<Polygon> areas;
  for (int i = 0; i < 16; ++i) {
    areas.push_back(GenerateQueryPolygon(spec, kUnit, &prng));
    wkts.push_back(ToWkt(areas.back()));
  }

  // Differential check (counted once, reported on every row): each
  // polygon's networked answer equals the in-process planned query.
  std::uint64_t mismatches = 0;
  {
    QueryClient client(server.port());
    QueryContext ctx;
    PlanHints uncached;
    uncached.use_cache = false;
    for (std::size_t i = 0; i < areas.size(); ++i) {
      WireQueryRequest req;
      req.wkt = wkts[i];
      req.use_cache = false;
      if (client.Query(req).ids != db.Query(areas[i], ctx, uncached)) {
        ++mismatches;
      }
    }
    // Warm the hot polygon past second-hit admission so the cached cell
    // measures hits from its first timed query.
    WireQueryRequest warm;
    warm.wkt = wkts[0];
    client.Query(warm);
    client.Query(warm);
  }

  const int reps = quick ? 100 : 400;
  const Host host = DescribeHost();
  std::vector<Row> rows;
  std::cout << "=== Server QPS over loopback (" << kDataSize
            << " points, q=" << kQuerySizeFraction << ") ===\n";
  std::cout << "host: " << host.nproc << " CPUs, " << host.cpu << ", "
            << host.compiler << "\n";
  std::cout << "cell      clients  reps    qps        p50_ms    p99_ms\n";
  constexpr int kClientCounts[] = {1, 4, 8};
  const auto add = [&](Row row) {
    row.mismatches = mismatches;
    rows.push_back(row);
    std::cout << std::left << std::setw(10) << row.cell << std::setw(9)
              << row.clients << std::setw(8) << row.reps << std::setw(11)
              << std::fixed << std::setprecision(0) << row.qps
              << std::setw(10) << std::setprecision(4) << row.latency_p50_ms
              << std::setprecision(4) << row.latency_p99_ms << "\n";
  };
  for (const int clients : kClientCounts) {
    add(RunCell(server, wkts, /*cached=*/false, clients, reps));
  }
  for (const int clients : kClientCounts) {
    add(RunDirectCell(db, areas, clients, reps));
  }
  for (const int clients : kClientCounts) {
    add(RunCell(server, wkts, /*cached=*/true, clients, reps));
  }
  // Rows 0-2 are the uncached wire cells, rows 3-5 the direct ones.
  for (std::size_t i = 0; i < std::size(kClientCounts); ++i) {
    std::cout << "wire/direct qps ratio at " << rows[i].clients
              << " client(s): " << std::setprecision(3)
              << rows[i].qps / rows[i + 3].qps << "\n";
  }

  server.Stop();

  if (mismatches != 0) {
    std::cout << "FAIL: " << mismatches
              << " networked-vs-oracle mismatch(es)\n";
    return 1;
  }
  if (json) {
    std::ofstream out("BENCH_server.json");
    WriteJson(rows, host, out);
    std::cout << "\nwrote BENCH_server.json (" << rows.size() << " rows)\n";
  }
  return 0;
}
