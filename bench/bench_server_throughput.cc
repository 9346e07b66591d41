// Network-service throughput bench (EXPERIMENTS.md E17): a closed loop of
// N in-process TCP clients against one PollingServer — each client holds
// one connection and issues the next request the moment the previous
// result stream completes. Reports QPS and client-observed p50/p99 latency
// at N in {1, 4, 16, 64}, plus the shared plan cache's warm hit rate at 16
// clients (the repeated-query workload every middleware fronts).
//
// Shape check: with >= 4 hardware threads, QPS at N=4 is at least twice
// QPS at N=1 (concurrent reads share the engine; smaller hosts print a
// [SKIP] line). Emits a JSON summary with the host's hardware_concurrency
// (stdout, and to argv[1] if given) that scripts/bench_summary.sh commits
// as BENCH_server_throughput.json.

#include <algorithm>
#include <atomic>
#include <thread>

#include "bench_util.h"
#include "common/date.h"
#include "net/client.h"
#include "net/polling_server.h"

namespace tango {
namespace bench {
namespace {

struct Point {
  size_t clients = 0;
  size_t requests = 0;
  double wall_seconds = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double hit_rate = 0;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PercentileMs(std::vector<double>* seconds, double q) {
  if (seconds->empty()) return 0;
  std::sort(seconds->begin(), seconds->end());
  const size_t i = std::min(
      seconds->size() - 1,
      static_cast<size_t>(q * static_cast<double>(seconds->size() - 1)));
  return (*seconds)[i] * 1e3;
}

/// The repeated query: a selective timeslice over POSITION (one position's
/// staffing on 1996-06-01). Cheap enough that the server, not the scan,
/// is what N clients contend on.
std::string TimesliceQuery() {
  const int64_t d = date::FromYmd(1996, 6, 1);
  return "TEMPORAL SELECT PosID, EmpName, T1, T2 FROM POSITION "
         "WHERE PosID = 7 AND T1 <= " +
         std::to_string(d) + " AND T2 > " + std::to_string(d);
}

void WriteJson(std::FILE* f, const std::vector<Point>& points, unsigned hw) {
  std::fprintf(f,
               "{\n  \"bench\": \"server_throughput\",\n  \"scale\": %.3f,\n"
               "  \"hardware_concurrency\": %u,\n  \"points\": [\n",
               Scale(), hw);
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f,
                 "    {\"clients\": %zu, \"requests\": %zu, "
                 "\"wall_seconds\": %.4f, \"qps\": %.1f, "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"plancache_hit_rate\": %.4f}%s\n",
                 p.clients, p.requests, p.wall_seconds, p.qps, p.p50_ms,
                 p.p99_ms, p.hit_rate, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

int Main(int argc, char** argv) {
  std::printf("=== Server throughput: closed-loop multi-client QPS ===\n");
  std::printf("scale=%.2f\n\n", Scale());
  ShapeChecks checks;

  dbms::Engine db;
  {
    workload::UisOptions uis;
    uis.position_rows = Scaled(20000);
    checks.Check(
        db.Execute("CREATE TABLE POSITION " + workload::PositionDdlColumns())
            .ok(),
        "POSITION created");
    checks.Check(
        db.BulkLoad("POSITION",
                    workload::GeneratePositionRows(uis.position_rows, 42))
            .ok(),
        "POSITION loaded");
    checks.Check(db.Execute("ANALYZE").ok(), "ANALYZE ran");
  }

  net::ServerConfig config;
  config.middleware.wire.simulate_delay = false;
  config.workers = 8;
  config.max_sessions = 128;
  config.queue_limit = 256;
  net::PollingServer server(&db, config);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server failed to start\n");
    return 1;
  }
  const uint16_t port = server.port();
  const std::string query = TimesliceQuery();

  // Warm the shared cache once so every measured point runs hot (the
  // steady state a long-lived middleware serves from).
  size_t expected_rows = 0;
  {
    net::Client warm;
    checks.Check(warm.Connect("127.0.0.1", port).ok(), "warm client connects");
    auto r = warm.Query(query);
    checks.Check(r.ok(), "warm query succeeds");
    if (r.ok()) expected_rows = r.ValueOrDie().rows.size();
    warm.Close();
  }

  std::vector<Point> points;
  const size_t kTotalRequests = Scaled(1200);
  for (const size_t n : {size_t{1}, size_t{4}, size_t{16}, size_t{64}}) {
    const size_t per_client = std::max<size_t>(4, kTotalRequests / n);

    // Connect everyone before the clock starts: the point measures serving,
    // not handshakes.
    std::vector<std::unique_ptr<net::Client>> clients;
    bool all_connected = true;
    for (size_t c = 0; c < n; ++c) {
      clients.push_back(std::make_unique<net::Client>());
      all_connected &= clients.back()->Connect("127.0.0.1", port).ok();
    }
    checks.Check(all_connected,
                 std::to_string(n) + " clients admitted concurrently");

    const uint64_t hits0 = server.metrics().counter("plancache.hit").load();
    const uint64_t miss0 = server.metrics().counter("plancache.miss").load();

    std::atomic<size_t> bad{0};
    std::atomic<size_t> countdown{n};
    std::vector<std::vector<double>> latencies(n);
    std::vector<std::thread> threads;
    threads.reserve(n);
    const double t0 = Now();
    for (size_t c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        latencies[c].reserve(per_client);
        // Closed loop: next request leaves when the previous reply landed.
        countdown.fetch_sub(1);
        while (countdown.load() > 0) {
        }
        for (size_t i = 0; i < per_client; ++i) {
          const double q0 = Now();
          auto r = clients[c]->Query(query);
          const double dt = Now() - q0;
          if (!r.ok() || r.ValueOrDie().rows.size() != expected_rows) {
            bad.fetch_add(1);
            continue;
          }
          latencies[c].push_back(dt);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall = Now() - t0;
    for (auto& client : clients) client->Close();

    Point p;
    p.clients = n;
    p.requests = n * per_client;
    p.wall_seconds = wall;
    p.qps = static_cast<double>(p.requests) / wall;
    std::vector<double> merged;
    merged.reserve(p.requests);
    for (const auto& v : latencies) merged.insert(merged.end(), v.begin(), v.end());
    p.p50_ms = PercentileMs(&merged, 0.50);
    p.p99_ms = PercentileMs(&merged, 0.99);
    const uint64_t hits = server.metrics().counter("plancache.hit").load() - hits0;
    const uint64_t misses =
        server.metrics().counter("plancache.miss").load() - miss0;
    p.hit_rate = hits + misses == 0
                     ? 0
                     : static_cast<double>(hits) /
                           static_cast<double>(hits + misses);
    checks.Check(bad.load() == 0,
                 std::to_string(n) + "-client run: every request served");
    if (n == 16) {
      // Acceptance gate: repeated queries at 16 clients must serve >90%
      // from the shared plan cache once warm.
      checks.Check(p.hit_rate > 0.9,
                   "warm shared-cache hit rate at 16 clients > 90% (got " +
                       std::to_string(p.hit_rate) + ")");
    }
    std::printf("  N=%-3zu  %6zu req  %7.1f qps  p50 %7.3f ms  p99 %7.3f ms"
                "  hit %.3f\n",
                p.clients, p.requests, p.qps, p.p50_ms, p.p99_ms, p.hit_rate);
    points.push_back(p);
  }

  server.Stop();
  checks.Check(server.metrics().gauge("server.sessions").load() == 0,
               "sessions gauge drains to zero");

  // ROADMAP item 3's shape check: readers share the engine's statement
  // lock, so four clients must at least double one client's throughput —
  // given four hardware threads to run them on.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 4) {
    checks.Check(points[1].qps >= 2.0 * points[0].qps,
                 "N=4 QPS >= 2x N=1 QPS (got " +
                     std::to_string(points[1].qps / points[0].qps) + "x)");
  } else {
    std::printf("  [SKIP] N=4 vs N=1 scaling check: only %u hardware "
                "thread(s); concurrent readers cannot overlap on this host\n",
                hw);
  }

  std::printf("\n");
  WriteJson(stdout, points, hw);
  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    WriteJson(f, points, hw);
    std::fclose(f);
    std::printf("wrote %s\n", argv[1]);
  }
  return checks.failures() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace tango

int main(int argc, char** argv) { return tango::bench::Main(argc, argv); }
