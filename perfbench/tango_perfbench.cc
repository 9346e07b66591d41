// Repository benchmark: three workloads driven from one process against an
// in-process net::PollingServer over the UIS data at paper scale.
// BENCHMARK.json lists analytic and churn; perfbench/METRICS.md says why
// point is not listed.
//
//   point     4 closed-loop net::Client connections, indexed EMPLOYEE
//             lookups by EmpID = k / EmpName = 'EMPk'.
//   analytic  1 closed-loop client cycling through the paper's Queries 1-4.
//   churn     3 closed-loop timeslice readers over POSITION plus an
//             open-loop writer (WriterGenerator::Run(1) at a fixed rate) on a
//             durable engine.
//
// Usage:
//   tango_perfbench --workload point|analytic|churn --seed N --seconds S
//                   --trace 0|1 [--workdir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
// an untraced phase and a traced phase (ServerConfig::trace set, plus the
// benchmark's own spans around every client call and writer transaction) and
// reports the per-layer metrics, measured from outside through the public
// APIs of the layers and the metrics/spans the program already exports.
// The last stdout line is the JSON result; everything before it is the
// human-readable report. perfbench/METRICS.md defines every metric.

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/date.h"
#include "common/rng.h"
#include "exec/instrument.h"
#include "net/client.h"
#include "net/polling_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/uis.h"
#include "workload/writer.h"

namespace tango {
namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double Now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

// ---------------------------------------------------------------- helpers

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(std::max(x, 1e-12));
  return std::exp(s / static_cast<double>(v.size()));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

uint64_t HashString(uint64_t h, const std::string& s) {
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h * 1099511628211ull;
}

/// Order-sensitive hash of a row sequence (the data-determinism check).
uint64_t HashRows(uint64_t h, const std::vector<Tuple>& rows) {
  for (const Tuple& t : rows) {
    for (const Value& v : t) h = (h ^ v.Hash()) * 1099511628211ull;
  }
  return h;
}

/// Resident set size of this process, from /proc/self/statm.
double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long size = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

/// Compact algorithm tree of a physical plan, e.g.
/// TAGGR^M(TRANSFER^M(SORT^D(SCAN^D))).
std::string Shape(const optimizer::PhysPlan& p) {
  std::string s = optimizer::AlgorithmName(p.algorithm);
  if (!p.children.empty()) {
    s += "(";
    for (size_t i = 0; i < p.children.size(); ++i) {
      if (i > 0) s += ",";
      s += Shape(*p.children[i]);
    }
    s += ")";
  }
  return s;
}

/// Counters read before and after a phase; the delta is what the phase did.
const char* const kCounters[] = {
    "server.requests",       "server.busy_rejections",
    "plancache.hit",         "plancache.miss",
    "reoptimize.count",      "exec.batch.rows",
    "exec.batch.blocks",     "transfer.rows_to_middleware",
    "transfer.rows_to_dbms", "wire.statements",
    "wire.bytes_to_client",  "wire.bytes_to_server",
};

using CounterSnap = std::map<std::string, double>;

CounterSnap Snap(obs::MetricsRegistry& registry) {
  CounterSnap s;
  for (const char* name : kCounters) {
    s[name] = static_cast<double>(registry.counter(name).load());
  }
  return s;
}

CounterSnap Delta(const CounterSnap& after, const CounterSnap& before) {
  CounterSnap d;
  for (const auto& [k, v] : after) d[k] = v - before.at(k);
  return d;
}

// ------------------------------------------------------------------- host

struct Host {
  unsigned hardware_concurrency = 0;
  int nproc = 0;
  std::string build_type;
  std::string compiler;
  std::string sanitizer;
};

Host DetectHost() {
  Host h;
  h.hardware_concurrency = std::thread::hardware_concurrency();
  cpu_set_t set;
  CPU_ZERO(&set);
  h.nproc = ::sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set)
                                                           : 0;
#ifdef TANGO_PERFBENCH_BUILD_TYPE
  h.build_type = TANGO_PERFBENCH_BUILD_TYPE;
#else
  h.build_type = "unknown";
#endif
#ifdef TANGO_PERFBENCH_COMPILER
  h.compiler = TANGO_PERFBENCH_COMPILER;
#else
  h.compiler = "unknown";
#endif
#if defined(__SANITIZE_ADDRESS__)
  h.sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  h.sanitizer = "thread";
#else
  h.sanitizer = "none";
#endif
  return h;
}

// --------------------------------------------------------------- requests

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/run";
};

/// Paper scale (workload::UisOptions defaults).
constexpr size_t kEmployees = 49972;
constexpr size_t kPositions = 83857;
constexpr int64_t kNumPosIds = static_cast<int64_t>(kPositions) / 20;

/// Writer rate of the churn workload (transactions per second). At ~35 ms
/// a transaction this keeps the writer's share of engine time near 15%.
constexpr double kWriterRate = 4.0;

struct Request {
  std::string sql;
  int tmpl = 0;
  int64_t key = 0;   // point: EmpID; churn: PosID
  int64_t day = 0;   // churn: timeslice day
};

/// One client's request stream; the same seed always yields the same stream.
class RequestStream {
 public:
  RequestStream(const std::string& workload, uint64_t seed, size_t client)
      : workload_(workload),
        rng_(seed * 0x9E3779B97F4A7C15ull + 0x1234567ull * (client + 1)) {}

  Request Next() {
    Request r;
    if (workload_ == "point") {
      r.key = rng_.Uniform(0, static_cast<int64_t>(kEmployees) - 1);
      r.tmpl = rng_.Bernoulli(0.5) ? 1 : 0;
      r.sql = r.tmpl == 0
                  ? "SELECT EmpID, EmpName, Dept, Salary FROM EMPLOYEE "
                    "WHERE EmpID = " + std::to_string(r.key)
                  : "SELECT EmpID, EmpName, Dept, Salary FROM EMPLOYEE "
                    "WHERE EmpName = 'EMP" + std::to_string(r.key) + "'";
    } else {
      r.key = rng_.Uniform(1, kNumPosIds);
      r.day = rng_.Uniform(date::Jan1(1990), date::FromYmd(1997, 12, 31));
      r.sql = "TEMPORAL SELECT PosID, EmpName, T1, T2 FROM POSITION "
              "WHERE PosID = " + std::to_string(r.key) +
              " AND T1 <= " + std::to_string(r.day) +
              " AND T2 > " + std::to_string(r.day);
    }
    return r;
  }

 private:
  std::string workload_;
  Rng rng_;
};

/// The analytic workload's four paper queries, literals drawn from the seed
/// within ranges that keep each query on one side of the paper's crossovers.
struct AnalyticQueries {
  std::string sql[4];
};

AnalyticQueries MakeAnalytic(uint64_t seed) {
  Rng rng(seed * 0xD1B54A32D192ED03ull + 77);
  AnalyticQueries a;
  const int64_t q2_end = date::Jan1(1986) + rng.Uniform(0, 180);
  const int64_t q3_cut = date::Jan1(1993) + rng.Uniform(0, 90);
  const std::string s = std::to_string(date::Jan1(1983));
  const std::string e = std::to_string(q2_end);
  const std::string c = std::to_string(q3_cut);
  // Q1: temporal aggregation of POSITION (Figure 8).
  a.sql[0] =
      "TEMPORAL SELECT PosID, T1, T2, COUNT(PosID) AS CNT FROM POSITION "
      "GROUP BY PosID OVER TIME ORDER BY PosID";
  // Q2: the aggregation temporally joined back to POSITION (Figure 10).
  a.sql[1] =
      "TEMPORAL SELECT C.PosID, EmpName, CNT, T1, T2 FROM "
      "(TEMPORAL SELECT PosID, COUNT(PosID) AS CNT FROM POSITION "
      "WHERE T1 < " + e + " AND T2 > " + s +
      " GROUP BY PosID OVER TIME) C, POSITION P "
      "WHERE C.PosID = P.PosID AND PayRate > 10 AND OVERLAPS PERIOD (" + s +
      ", " + e + ") ORDER BY PosID";
  // Q3: temporal self-join with a start cutoff (Figure 11a).
  a.sql[2] =
      "TEMPORAL SELECT A.PosID, A.EmpName, B.EmpName FROM POSITION A, "
      "POSITION B WHERE A.PosID = B.PosID AND A.EmpName < B.EmpName "
      "AND A.T1 < " + c + " AND B.T1 < " + c + " ORDER BY PosID";
  // Q4: POSITION joined with EMPLOYEE (Figure 11b); literal-free, like Q1.
  a.sql[3] =
      "SELECT PosID, Addr, Rank FROM POSITION P, EMPLOYEE E "
      "WHERE P.EmpID = E.EmpID ORDER BY PosID, Addr";
  return a;
}

uint64_t WriterSeed(uint64_t seed) { return seed * 31 + 99; }

/// Hash of every input the run sends: the first requests of each client
/// stream, the analytic literals and the writer's seed.
uint64_t RequestStreamHash(const std::string& workload, uint64_t seed) {
  uint64_t h = 14695981039346656037ull;
  for (size_t c = 0; c < 4; ++c) {
    RequestStream stream(workload, seed, c);
    for (int i = 0; i < 256; ++i) h = HashString(h, stream.Next().sql);
  }
  const AnalyticQueries a = MakeAnalytic(seed);
  for (const std::string& q : a.sql) h = HashString(h, q);
  return HashString(h, std::to_string(WriterSeed(seed)));
}

std::vector<std::string> Templates(const std::string& workload,
                                   uint64_t seed) {
  if (workload == "analytic") {
    const AnalyticQueries a = MakeAnalytic(seed);
    return {a.sql[0], a.sql[1], a.sql[2], a.sql[3]};
  }
  RequestStream stream(workload, seed ^ 0xABCDEFull, 0);
  if (workload == "churn") return {stream.Next().sql};
  std::vector<std::string> out(2);
  while (out[0].empty() || out[1].empty()) {
    const Request r = stream.Next();
    out[r.tmpl] = r.sql;
  }
  return out;
}

// ------------------------------------------------------------------ setup

/// One loaded engine with a running server.
struct Env {
  fs::path wal_dir;
  std::unique_ptr<obs::MetricsRegistry> engine_metrics;
  std::unique_ptr<dbms::Engine> db;
  std::unique_ptr<obs::MetricsRegistry> server_metrics;
  std::unique_ptr<net::PollingServer> server;

  ~Env() {
    if (server != nullptr) server->Stop();
    server.reset();
    db.reset();
    if (!wal_dir.empty()) {
      std::error_code ec;
      fs::remove_all(wal_dir, ec);
    }
  }
};

/// The workers' middleware: the server default (default cost factors,
/// `adapt` off, no calibration) with the wire simulation's busy-wait pacing
/// off, as in bench_server_throughput, so every measured microsecond is
/// real work.
Middleware::Config WorkerConfig() {
  Middleware::Config config = net::ServerConfig::DefaultWorkerConfig();
  config.wire.simulate_delay = false;
  return config;
}

size_t Workers(const Host& host) {
  return static_cast<size_t>(std::max(1, host.nproc));
}

Status StartServer(Env* env, const Host& host, obs::TraceRecorder* trace) {
  if (env->server != nullptr) env->server->Stop();
  env->server.reset();
  env->server_metrics = std::make_unique<obs::MetricsRegistry>();
  net::ServerConfig config;
  config.workers = Workers(host);
  config.middleware = WorkerConfig();
  config.metrics = env->server_metrics.get();
  config.trace = trace;
  env->server = std::make_unique<net::PollingServer>(env->db.get(), config);
  return env->server->Start();
}

/// Prepares every template once through a client (fills the shared cache).
Status WarmCache(Env* env, const std::vector<std::string>& templates) {
  net::Client client;
  TANGO_RETURN_IF_ERROR(client.Connect("127.0.0.1", env->server->port()));
  for (const std::string& sql : templates) {
    TANGO_RETURN_IF_ERROR(client.Prepare(sql).status());
  }
  client.Close();
  return Status::OK();
}

/// Generates the data, loads it, runs ANALYZE (inside LoadUis), starts the
/// server and warms its plan cache. Durable (WAL at commit) for churn.
Result<std::unique_ptr<Env>> Setup(const Args& args, const Host& host,
                                   int index) {
  auto env = std::make_unique<Env>();
  dbms::EngineOptions opts;
  if (args.workload == "churn") {
    // A fixed name: a run killed before its cleanup leaves at most one
    // directory per set-up behind, and the next run starts it afresh.
    env->wal_dir =
        fs::absolute(fs::path(args.workdir) / ("wal-" + std::to_string(index)));
    std::error_code ec;
    fs::remove_all(env->wal_dir, ec);
    fs::create_directories(env->wal_dir, ec);
    if (ec) return Status::IOError("cannot create " + env->wal_dir.string());
    env->engine_metrics = std::make_unique<obs::MetricsRegistry>();
    opts.wal_dir = env->wal_dir.string();
    opts.metrics = env->engine_metrics.get();
  }
  env->db = std::make_unique<dbms::Engine>(opts);
  TANGO_RETURN_IF_ERROR(env->db->Open());
  workload::UisOptions uis;
  uis.seed = args.seed;
  TANGO_RETURN_IF_ERROR(workload::LoadUis(env->db.get(), uis));
  TANGO_RETURN_IF_ERROR(StartServer(env.get(), host, nullptr));
  TANGO_RETURN_IF_ERROR(WarmCache(env.get(), Templates(args.workload,
                                                       args.seed)));
  return env;
}

Result<uint64_t> DataHash(dbms::Engine* db) {
  uint64_t h = 14695981039346656037ull;
  for (const char* table : {"EMPLOYEE", "POSITION"}) {
    TANGO_ASSIGN_OR_RETURN(dbms::QueryResult r,
                           db->Execute(std::string("SELECT * FROM ") + table));
    h = HashRows(h, r.rows);
  }
  return h;
}

// ------------------------------------------------------------------ phase

/// One completed (or failed) request as the client saw it.
struct Sample {
  int tmpl = 0;
  double start = 0;
  double latency = 0;
  bool ok = false;
  size_t rows = 0;
};

struct WriteSample {
  double latency = 0;   // from due time to commit
  double late = 0;      // start - due
};

/// Per analytic repetition: what the server did for it (single client, so
/// the counter deltas belong to exactly this query).
struct Repetition {
  int tmpl = 0;
  double statements = 0;
  double rows_to_mw = 0;
  double rows_to_dbms = 0;
  size_t rows = 0;
  uint64_t checksum = 0;
};

struct PhaseResult {
  std::vector<Sample> samples;
  std::vector<WriteSample> writes;
  std::vector<Repetition> reps;
  double wall = 0;
  double verify_seconds = 0;  // analytic checksum time inside the wall
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  CounterSnap counters;
  double queue_depth_mean = 0;
  double peak_rss_mb = 0;
  uint64_t writer_committed = 0;
  uint64_t writer_failed = 0;
  uint64_t writer_lock_retries = 0;
  double wal_appends = 0;
  double wal_syncs = 0;
};

/// Expected reply of every point key (EmpID -> the loaded row).
using PointTruth = std::vector<Tuple>;

Result<PointTruth> LoadPointTruth(dbms::Engine* db) {
  TANGO_ASSIGN_OR_RETURN(
      dbms::QueryResult r,
      db->Execute("SELECT EmpID, EmpName, Dept, Salary FROM EMPLOYEE"));
  PointTruth truth(kEmployees);
  for (Tuple& t : r.rows) {
    const int64_t id = t[0].AsInt();
    if (id < 0 || id >= static_cast<int64_t>(kEmployees)) {
      return Status::Internal("EmpID out of range");
    }
    truth[static_cast<size_t>(id)] = std::move(t);
  }
  return truth;
}

/// Result checksum used by the analytic cross-check: snapshot equivalence
/// for temporal results (period splits may differ between placements),
/// the plain order-insensitive checksum otherwise.
uint64_t ResultChecksum(const std::vector<std::string>& names,
                        const std::vector<Tuple>& rows) {
  size_t t1 = names.size(), t2 = names.size();
  for (size_t i = 0; i < names.size(); ++i) {
    std::string n = names[i];
    const size_t dot = n.rfind('.');
    if (dot != std::string::npos) n = n.substr(dot + 1);
    std::transform(n.begin(), n.end(), n.begin(), ::toupper);
    if (n == "T1") t1 = i;
    if (n == "T2") t2 = i;
  }
  if (t1 == names.size() || t2 == names.size()) {
    return bench::Checksum(rows);
  }
  return bench::SnapshotChecksum(rows, t1, t2, date::Jan1(1900),
                                 date::Jan1(2200));
}

std::vector<std::string> ColumnNames(
    const std::vector<net::Client::ResultColumn>& cols) {
  std::vector<std::string> out;
  for (const auto& c : cols) out.push_back(c.name);
  return out;
}

struct Phase {
  const Args& args;
  Env* env;
  obs::TraceRecorder* trace;  // benchmark-side spans (null = untraced)
  const PointTruth* truth;
  const AnalyticQueries* analytic;
  double seconds;
  size_t clients;
  bool writer;
  uint64_t stream_salt;
};

PhaseResult RunPhase(const Phase& p) {
  PhaseResult out;
  net::PollingServer& server = *p.env->server;
  const CounterSnap before = Snap(server.metrics());
  obs::Gauge& queue_depth = server.metrics().gauge("server.queue_depth",
                                                   /*expect_zero_at_exit=*/true);
  obs::MetricsRegistry* emetrics = p.env->engine_metrics.get();
  const double wal_appends0 =
      emetrics ? static_cast<double>(emetrics->counter("wal.appends").load())
               : 0;
  const double wal_syncs0 =
      emetrics ? static_cast<double>(emetrics->counter("wal.syncs").load()) : 0;

  std::vector<std::vector<Sample>> per_client(p.clients);
  std::vector<std::vector<Repetition>> reps(p.clients);
  std::vector<std::vector<std::string>> errors(p.clients);
  std::vector<double> verify(p.clients, 0);
  std::vector<std::string> writer_errors;
  std::atomic<bool> stop{false};

  // Sampler: server.queue_depth every 2 ms, RSS every 10 ms.
  double depth_sum = 0;
  size_t depth_n = 0;
  double rss_peak = RssMb();
  std::thread sampler([&] {
    size_t tick = 0;
    while (!stop.load()) {
      depth_sum += static_cast<double>(queue_depth.load());
      ++depth_n;
      if (++tick % 5 == 0) rss_peak = std::max(rss_peak, RssMb());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  const double t0 = Now() + 0.05;
  const double deadline = t0 + p.seconds;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < p.clients; ++c) {
    threads.emplace_back([&, c] {
      net::Client client;
      const Status connected = client.Connect("127.0.0.1", server.port());
      if (!connected.ok()) {
        errors[c].push_back("connect: " + connected.ToString());
        return;
      }
      RequestStream stream(p.args.workload, p.args.seed ^ p.stream_salt, c);
      // Analytic prepares its four queries once on this session and then
      // only executes them (an application re-running fixed reports): the
      // plan is fixed for the phase. A per-request QUERY would re-prepare,
      // and a stale cache entry would be re-optimized with the feedback of
      // whichever pooled worker serves it, so plans could flip between
      // repetitions with the worker assignment.
      uint32_t stmt[4] = {0, 0, 0, 0};
      if (p.analytic != nullptr) {
        for (int q = 0; q < 4; ++q) {
          auto id = client.Prepare(p.analytic->sql[q]);
          if (!id.ok()) {
            errors[c].push_back("prepare: " + id.status().ToString());
            return;
          }
          stmt[q] = id.ValueOrDie();
        }
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(t0 - Now()));
      // Analytic runs whole cycles, so every query weighs the same.
      size_t cycle = 0;
      while (Now() < deadline || (p.analytic != nullptr && cycle % 4 != 0)) {
        Request req;
        if (p.analytic != nullptr) {
          req.tmpl = static_cast<int>(cycle++ % 4);
          req.sql = p.analytic->sql[req.tmpl];
        } else {
          req = stream.Next();
        }
        const CounterSnap c0 =
            p.analytic != nullptr ? Snap(server.metrics()) : CounterSnap();
        Sample s;
        s.tmpl = req.tmpl;
        const obs::SpanId span =
            p.trace != nullptr ? p.trace->StartSpan("bench.request", "bench")
                               : obs::kNoSpan;
        s.start = Now();
        auto r = p.analytic != nullptr ? client.Execute(stmt[req.tmpl])
                                       : client.Query(req.sql);
        s.latency = Now() - s.start;
        if (p.trace != nullptr) p.trace->End(span);
        if (!r.ok()) {
          errors[c].push_back(r.status().ToString());
          per_client[c].push_back(s);
          continue;
        }
        const net::Client::QueryResult& res = r.ValueOrDie();
        s.rows = res.rows.size();
        bool good = true;
        if (p.args.workload == "point") {
          good = res.rows.size() == 1 &&
                 res.rows[0] == (*p.truth)[static_cast<size_t>(req.key)];
        } else if (p.args.workload == "churn") {
          for (const Tuple& t : res.rows) {
            good = good && t.size() == 4 && t[0].AsInt() == req.key &&
                   t[2].AsInt() <= req.day && t[3].AsInt() > req.day;
          }
        } else {
          const double v0 = Now();
          Repetition rep;
          rep.tmpl = req.tmpl;
          const CounterSnap d = Delta(Snap(server.metrics()), c0);
          rep.statements = d.at("wire.statements");
          rep.rows_to_mw = d.at("transfer.rows_to_middleware");
          rep.rows_to_dbms = d.at("transfer.rows_to_dbms");
          rep.rows = res.rows.size();
          rep.checksum = ResultChecksum(ColumnNames(res.columns), res.rows);
          reps[c].push_back(rep);
          verify[c] += Now() - v0;
        }
        if (res.degraded) good = false;
        if (!good) errors[c].push_back("wrong answer: " + req.sql);
        s.ok = good;
        per_client[c].push_back(s);
      }
      client.Close();
    });
  }

  // Open-loop writer: transaction i is due at t0 + i / rate; its latency
  // counts from the due time, so a stalled engine delays later writes too.
  std::unique_ptr<workload::WriterGenerator> writer;
  std::unique_ptr<dbms::Connection> writer_conn;
  std::thread writer_thread;
  if (p.writer) {
    dbms::WireConfig wire;
    wire.simulate_delay = false;
    writer_conn = std::make_unique<dbms::Connection>(p.env->db.get(), wire);
    workload::WriterOptions wopts;
    wopts.seed = WriterSeed(p.args.seed) ^ p.stream_salt;
    wopts.num_positions = kNumPosIds;
    writer = std::make_unique<workload::WriterGenerator>(writer_conn.get(),
                                                         wopts);
    writer_thread = std::thread([&] {
      for (size_t i = 0;; ++i) {
        const double due = t0 + static_cast<double>(i) / kWriterRate;
        if (due >= deadline) break;
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(due))));
        WriteSample w;
        const double start = Now();
        w.late = start - due;
        const obs::SpanId span =
            p.trace != nullptr ? p.trace->StartSpan("bench.write", "bench")
                               : obs::kNoSpan;
        const Status st = writer->Run(1);
        if (p.trace != nullptr) p.trace->End(span);
        w.latency = Now() - due;
        if (!st.ok()) {
          writer_errors.push_back("writer: " + st.ToString());
          ++out.failed;
        }
        out.writes.push_back(w);
      }
    });
  }

  for (std::thread& t : threads) t.join();
  if (writer_thread.joinable()) writer_thread.join();
  out.wall = Now() - t0;
  stop.store(true);
  sampler.join();

  for (size_t c = 0; c < p.clients; ++c) {
    for (const Sample& s : per_client[c]) {
      out.samples.push_back(s);
      ++out.attempted;
      if (!s.ok) ++out.failed;
    }
    out.reps.insert(out.reps.end(), reps[c].begin(), reps[c].end());
    out.verify_seconds = std::max(out.verify_seconds, verify[c]);
    for (const std::string& e : errors[c]) out.errors.push_back(e);
  }
  out.errors.insert(out.errors.end(), writer_errors.begin(),
                    writer_errors.end());
  out.counters = Delta(Snap(server.metrics()), before);
  // BUSY replies surface as client errors and are already counted above.
  out.queue_depth_mean = Ratio(depth_sum, static_cast<double>(depth_n));
  out.peak_rss_mb = rss_peak;
  if (writer != nullptr) {
    const workload::WriterCounters& wc = writer->counters();
    out.writer_committed = wc.txns_committed.load();
    out.writer_failed = wc.txns_failed.load();
    out.writer_lock_retries = wc.lock_retries.load();
    out.attempted += out.writes.size();
    out.failed += out.writer_failed;
  }
  if (emetrics != nullptr) {
    out.wal_appends =
        static_cast<double>(emetrics->counter("wal.appends").load()) -
        wal_appends0;
    out.wal_syncs =
        static_cast<double>(emetrics->counter("wal.syncs").load()) - wal_syncs0;
  }
  return out;
}

/// Latencies (ms) of the successful samples, of one template or (-1) all.
std::vector<double> LatenciesMs(const PhaseResult& r, int tmpl = -1) {
  std::vector<double> out;
  for (const Sample& s : r.samples) {
    if (s.ok && (tmpl < 0 || s.tmpl == tmpl)) out.push_back(s.latency * 1e3);
  }
  return out;
}

/// The workload's headline read latency: the median over all reads, or on
/// analytic the geometric mean of the four per-query medians.
double HeadlineP50(const std::string& workload, const PhaseResult& r) {
  if (workload != "analytic") return Median(LatenciesMs(r));
  std::vector<double> m;
  for (int q = 0; q < 4; ++q) m.push_back(Median(LatenciesMs(r, q)));
  return GeoMean(m);
}

/// Tail read latency: the 90th percentile of all reads (~200 reads beyond it
/// in a churn run), or on analytic (a few dozen runs of each query) the
/// geometric mean of the per-query 90th percentiles. Reads beyond the 99th
/// percentile are the ones that lost the engine's statement mutex several
/// times over, and how many there are follows the host's scheduling stalls,
/// not the code: over ten churn runs the p99 spread by a third of its median.
/// The p99 is still reported (read_p99_ms), ungated.
double TailMs(const std::string& workload, const PhaseResult& r) {
  if (workload != "analytic") return Quantile(LatenciesMs(r), 0.9);
  std::vector<double> p90;
  for (int q = 0; q < 4; ++q) p90.push_back(Quantile(LatenciesMs(r, q), 0.9));
  return GeoMean(p90);
}

// ------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void WriteReport(const Args& args, const std::string& host_json,
                 const std::vector<Metric>& metrics,
                 const std::vector<Metric>& extra) {
  std::error_code ec;
  const fs::path dir = fs::path(args.workdir) / "reports";
  fs::create_directories(dir, ec);
  const fs::path file =
      dir / (args.workload + "-seed" + std::to_string(args.seed) + "-trace" +
             (args.trace ? "1" : "0") + ".json");
  std::ofstream f(file);
  f << "{\"host\": " << host_json << ",\n \"metrics\": {";
  bool first = true;
  for (const auto* list : {&metrics, &extra}) {
    for (const Metric& m : *list) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", m.value);
      f << (first ? "" : ",") << "\n  \"" << m.name << "\": {\"value\": "
        << buf << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
  }
  f << "}}\n";
}

// ------------------------------------------------------- span attribution

/// Per-request layer self times (seconds), attributed from the spans.
struct Attribution {
  double client = 0;       // bench.request self: socket, poll loop, queue
  double server = 0;       // server.* self: framing and sending the reply
  double adapt = 0;        // adapt.lookup / adapt.reoptimize self
  double optimize = 0;     // optimize self
  double compile = 0;      // compile self
  double execute = 0;      // execute self: janitor, temp DDL, feedback
  double operators = 0;    // operator spans (lifetimes)
  double other = 0;        // any other span
  size_t optimizations = 0;
  double service = 0;      // server span duration
  double latency = 0;      // client span duration
  bool matched = false;

  double Sum() const {
    return client + server + adapt + optimize + compile + execute + operators +
           other;
  }
};

struct SpanAnalysis {
  std::vector<Attribution> requests;  // one per bench.request, in order
  std::map<obs::SpanId, uint64_t> request_of;  // span -> request id
  std::map<uint64_t, std::string> executed_shape;  // request id -> op tree
};

SpanAnalysis AnalyzeSpans(const std::vector<obs::Span>& spans) {
  SpanAnalysis out;
  const size_t n = spans.size();
  std::map<obs::SpanId, size_t> index;
  for (size_t i = 0; i < n; ++i) index[spans[i].id] = i;

  // Parent of every completed span: the explicit link, else the innermost
  // completed span on the same thread whose interval contains it.
  std::vector<long> parent(n, -1);
  std::map<uint64_t, std::vector<size_t>> by_thread;
  for (size_t i = 0; i < n; ++i) {
    if (spans[i].completed()) by_thread[spans[i].thread_id].push_back(i);
  }
  for (auto& [tid, ids] : by_thread) {
    std::sort(ids.begin(), ids.end(), [&](size_t a, size_t b) {
      if (spans[a].start_us != spans[b].start_us) {
        return spans[a].start_us < spans[b].start_us;
      }
      return spans[a].end_us > spans[b].end_us;
    });
    std::vector<size_t> stack;
    for (size_t i : ids) {
      while (!stack.empty() && spans[stack.back()].end_us < spans[i].end_us) {
        stack.pop_back();
      }
      if (!stack.empty()) parent[i] = static_cast<long>(stack.back());
      stack.push_back(i);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (spans[i].parent != obs::kNoSpan) {
      const auto it = index.find(spans[i].parent);
      if (it != index.end() && spans[it->second].completed()) {
        parent[i] = static_cast<long>(it->second);
      }
    }
  }

  // Match server request spans to the client spans that caused them. The
  // server queue is FIFO and each client has one request in flight, so in
  // client start order each request takes the first unmatched server span
  // that starts inside it.
  std::vector<size_t> clients, servers;
  for (size_t i = 0; i < n; ++i) {
    if (!spans[i].completed()) continue;
    if (spans[i].name == "bench.request") clients.push_back(i);
    if (spans[i].category == "server") servers.push_back(i);
  }
  std::sort(servers.begin(), servers.end(), [&](size_t a, size_t b) {
    return spans[a].start_us < spans[b].start_us;
  });
  std::vector<bool> taken(servers.size(), false);
  for (size_t i : servers) parent[i] = -1;
  std::sort(clients.begin(), clients.end(), [&](size_t a, size_t b) {
    return spans[a].start_us < spans[b].start_us;
  });
  for (size_t ci : clients) {
    const obs::Span& c = spans[ci];
    auto lo = std::lower_bound(
        servers.begin(), servers.end(), c.start_us,
        [&](size_t s, int64_t t) { return spans[s].start_us < t; });
    for (auto it = lo; it != servers.end() && spans[*it].start_us <= c.end_us;
         ++it) {
      const size_t k = static_cast<size_t>(it - servers.begin());
      if (taken[k]) continue;
      taken[k] = true;
      parent[*it] = static_cast<long>(ci);
      break;
    }
  }

  // Children lists and self times (duration minus the union of children).
  // An operator's "init" span is left out: the child operators it starts
  // are parented to the operator itself, so counting it would count their
  // initialization twice; its time stays in the operator's self time.
  std::vector<std::vector<size_t>> children(n);
  for (size_t i = 0; i < n; ++i) {
    const bool init = spans[i].category == "operator" && spans[i].name == "init";
    if (parent[i] >= 0 && !init) {
      children[static_cast<size_t>(parent[i])].push_back(i);
    }
  }
  // Self time inside the request's window [lo, hi] (the client span): a
  // server span that outlives the client's receipt of DONE contributes
  // nothing past it.
  auto self_us = [&](size_t i, int64_t lo, int64_t hi) {
    const obs::Span& s = spans[i];
    const int64_t s_lo = std::max(s.start_us, lo);
    const int64_t s_hi = std::min(s.end_us, hi);
    if (s_hi <= s_lo) return 0.0;
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t c : children[i]) {
      const int64_t a = std::max(spans[c].start_us, s_lo);
      const int64_t b = std::min(spans[c].end_us, s_hi);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_a = 0, cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    return static_cast<double>(s_hi - s_lo - covered) * 1e-6;
  };

  std::function<void(size_t, Attribution*, uint64_t, int64_t, int64_t)> walk =
      [&](size_t i, Attribution* a, uint64_t rid, int64_t lo, int64_t hi) {
        const obs::Span& s = spans[i];
        out.request_of[s.id] = rid;
        const double self = self_us(i, lo, hi);
        if (s.name == "bench.request") {
          a->client += self;
        } else if (s.category == "server") {
          a->server += self;
          a->service = static_cast<double>(s.end_us - s.start_us) * 1e-6;
          a->matched = true;
        } else if (s.name == "adapt.lookup" || s.name == "adapt.reoptimize") {
          a->adapt += self;
        } else if (s.name == "optimize") {
          a->optimize += self;
          ++a->optimizations;
        } else if (s.name == "compile") {
          a->compile += self;
        } else if (s.name == "execute") {
          a->execute += self;
        } else if (s.category == "operator") {
          a->operators += self;  // lifetimes: Init to destruction
        } else {
          a->other += self;
        }
        for (size_t c : children[i]) walk(c, a, rid, lo, hi);
      };
  std::function<std::string(size_t)> op_shape = [&](size_t i) {
    std::string s = spans[i].name;
    std::vector<size_t> ops;
    for (size_t c : children[i]) {
      if (spans[c].category == "operator") ops.push_back(c);
    }
    std::sort(ops.begin(), ops.end(), [&](size_t a, size_t b) {
      return spans[a].plan_node < spans[b].plan_node;
    });
    if (!ops.empty()) {
      s += "(";
      for (size_t k = 0; k < ops.size(); ++k) {
        if (k > 0) s += ",";
        s += op_shape(ops[k]);
      }
      s += ")";
    }
    return s;
  };

  uint64_t rid = 0;
  for (size_t ci : clients) {
    ++rid;
    Attribution a;
    a.latency = static_cast<double>(spans[ci].end_us - spans[ci].start_us) *
                1e-6;
    walk(ci, &a, rid, spans[ci].start_us, spans[ci].end_us);
    out.requests.push_back(a);
    // The executed plan: operator spans parented to this request's execute.
    std::function<void(size_t)> find_exec = [&](size_t i) {
      if (spans[i].name == "execute") {
        std::string shape;
        for (size_t c : children[i]) {
          if (spans[c].category == "operator") {
            shape += (shape.empty() ? "" : "+") + op_shape(c);
          }
        }
        out.executed_shape[rid] = shape;
        return;
      }
      for (size_t c : children[i]) find_exec(c);
    };
    find_exec(ci);
  }
  return out;
}

/// Writes the spans, one per line, tagged with the request id they were
/// attributed to (0 = none): id parent thread start_us end_us request name.
void WriteSpans(const fs::path& file, const std::vector<obs::Span>& spans,
                const SpanAnalysis& a) {
  std::error_code ec;
  fs::create_directories(file.parent_path(), ec);
  std::FILE* f = std::fopen(file.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "# id parent thread start_us end_us request name\n");
  for (const obs::Span& s : spans) {
    const auto it = a.request_of.find(s.id);
    std::fprintf(f, "%llu %llu %llu %lld %lld %llu %s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.thread_id),
                 static_cast<long long>(s.start_us),
                 static_cast<long long>(s.end_us),
                 static_cast<unsigned long long>(
                     it == a.request_of.end() ? 0 : it->second),
                 s.name.c_str());
  }
  std::fclose(f);
}

// ----------------------------------------------------------- probe layer

/// What one template costs per layer when run through Middleware::Execute
/// directly (operator busy times from the execution's own timing sink) and
/// with its TRANSFER^M statements replayed alone on a DBMS connection.
struct ProbeCost {
  size_t memo_elements = 0;
  std::string shape;
  double m_self = 0;
  double tm_self = 0;
  double td_self = 0;
  double stmt = 0;
  size_t stmts_skipped = 0;
};

/// Prepare only (the chosen plan) unless `execute` is set.
Result<ProbeCost> Probe(dbms::Engine* db, const std::string& sql,
                        bool execute) {
  Middleware mw(db, WorkerConfig());
  TANGO_ASSIGN_OR_RETURN(Middleware::Prepared prepared, mw.Prepare(sql));
  ProbeCost cost;
  cost.memo_elements = prepared.num_elements;
  cost.shape = Shape(*prepared.plan);
  if (!execute) return cost;
  TANGO_ASSIGN_OR_RETURN(Middleware::Execution exec, mw.Execute(prepared));
  for (size_t i = 0; i < exec.timings.size(); ++i) {
    const std::string& label = exec.timings[i].label;
    const double self = exec::SelfSeconds(exec.timings, i);
    if (label.find("TRANSFER^M") != std::string::npos) {
      cost.tm_self += self;
    } else if (label.find("TRANSFER^D") != std::string::npos) {
      cost.td_self += self;
    } else if (label.find("^M") != std::string::npos) {
      cost.m_self += self;
    }
  }
  dbms::WireConfig wire;
  wire.simulate_delay = false;
  dbms::Connection conn(db, wire);
  for (const std::string& stmt : exec.sql_statements) {
    // Statements over TRANSFER^D temp tables cannot run once the query's
    // janitor dropped them.
    if (stmt.find("TANGO_TMP_") != std::string::npos) {
      ++cost.stmts_skipped;
      continue;
    }
    const double t0 = Now();
    TANGO_RETURN_IF_ERROR(conn.Execute(stmt).status());
    cost.stmt += Now() - t0;
  }
  return cost;
}

// ------------------------------------------------------------------- main

std::string HostJson(const Host& h, const Args& args) {
  const char* wal = args.workload == "churn"
                        ? "WAL synced at every commit (engine default)"
                        : "volatile engine (no WAL)";
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"hardware_concurrency\": %u, \"nproc\": %d, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"sanitizer\": \"%s\", \"scale\": 1.0, "
      "\"position_rows\": %zu, \"employee_rows\": %zu, \"seed\": %llu, "
      "\"workload\": \"%s\", \"seconds\": %.3f, \"trace\": %d, "
      "\"server_workers\": %zu, \"wal_flush\": \"%s\"}",
      h.hardware_concurrency, h.nproc, JsonEscape(h.build_type).c_str(),
      JsonEscape(h.compiler).c_str(), h.sanitizer.c_str(), kPositions,
      kEmployees, static_cast<unsigned long long>(args.seed),
      args.workload.c_str(), args.seconds, args.trace ? 1 : 0, Workers(h),
      wal);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tango_perfbench --workload point|analytic|churn "
               "--seed N --seconds S --trace 0|1 [--workdir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::stoull(v);
    } else if (k == "--seconds") {
      args.seconds = std::stod(v);
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else if (k == "--workdir") {
      args.workdir = v;
    } else {
      return Usage();
    }
  }
  if (args.workload != "point" && args.workload != "analytic" &&
      args.workload != "churn") {
    return Usage();
  }
  if (args.seconds <= 0) return Usage();

  const Host host = DetectHost();
  const std::string host_json = HostJson(host, args);
  std::printf("host %s\n", host_json.c_str());
  bench::ShapeChecks checks;

  // Seed determinism: identical inputs for one seed, different for another.
  const uint64_t stream_hash = RequestStreamHash(args.workload, args.seed);
  checks.Check(stream_hash == RequestStreamHash(args.workload, args.seed),
               "same seed gives the same request stream");
  checks.Check(stream_hash != RequestStreamHash(args.workload, args.seed + 1),
               "another seed gives another request stream");
  {
    const uint64_t h0 = HashRows(
        0, workload::GeneratePositionRows(kPositions, args.seed));
    checks.Check(h0 != HashRows(0, workload::GeneratePositionRows(
                                       kPositions, args.seed + 1)),
                 "another seed gives other POSITION data");
  }

  // Span recorders of the traced phases; declared before the environment
  // whose server writes into them, so they outlive it on every exit path.
  std::unique_ptr<obs::TraceRecorder> recorder;
  std::unique_ptr<obs::TraceRecorder> single_recorder;

  // Set-up, several times; the last environment serves the run.
  const int setups = args.trace ? 1 : 3;
  std::vector<double> setup_seconds;
  std::unique_ptr<Env> env;
  uint64_t data_hash = 0;
  for (int i = 0; i < setups; ++i) {
    env.reset();
    const double t0 = Now();
    auto made = Setup(args, host, i);
    const double dt = Now() - t0;
    if (!made.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    env = made.MoveValueOrDie();
    setup_seconds.push_back(dt);
    auto h = DataHash(env->db.get());
    if (!h.ok()) {
      std::fprintf(stderr, "data hash failed: %s\n",
                   h.status().ToString().c_str());
      return 1;
    }
    if (i == 0) data_hash = h.ValueOrDie();
    checks.Check(h.ValueOrDie() == data_hash,
                 "setup " + std::to_string(i) + ": same seed gives the same "
                 "data (hash " + std::to_string(h.ValueOrDie()) + ")");
  }
  std::printf("setup_s runs:");
  for (double s : setup_seconds) std::printf(" %.4f", s);
  std::printf("\nrequest stream hash %llu\n",
              static_cast<unsigned long long>(stream_hash));

  // Reference data for the correctness checks (outside the timed region).
  PointTruth truth;
  if (args.workload == "point") {
    auto t = LoadPointTruth(env->db.get());
    if (!t.ok()) {
      std::fprintf(stderr, "%s\n", t.status().ToString().c_str());
      return 1;
    }
    truth = t.MoveValueOrDie();
  }
  const AnalyticQueries analytic = MakeAnalytic(args.seed);
  const std::vector<std::string> templates =
      Templates(args.workload, args.seed);
  size_t loaded_positions = 0;
  {
    auto r = env->db->Execute("SELECT COUNT(*) AS C FROM POSITION");
    if (!r.ok()) return 1;
    loaded_positions = static_cast<size_t>(r.ValueOrDie().rows[0][0].AsInt());
  }

  // Plans the optimizer chooses, and the analytic cross-check reference:
  // each query run once under another site placement.
  std::vector<ProbeCost> probes;
  std::vector<uint64_t> reference(4, 0);
  std::vector<std::string> reference_shape(4);
  for (size_t t = 0; t < templates.size(); ++t) {
    auto pc = Probe(env->db.get(), templates[t], args.trace);
    if (!pc.ok()) {
      std::fprintf(stderr, "probe failed: %s\n  on: %s\n",
                   pc.status().ToString().c_str(), templates[t].c_str());
      return 1;
    }
    probes.push_back(pc.ValueOrDie());
    std::printf("plan[%zu] %s\n", t, probes.back().shape.c_str());
  }
  if (args.workload == "analytic") {
    Middleware mw(env->db.get(), WorkerConfig());
    for (int q = 0; q < 4; ++q) {
      auto prepared = mw.Prepare(analytic.sql[q]);
      if (!prepared.ok()) {
        std::fprintf(stderr, "reference prepare failed: %s\n",
                     prepared.status().ToString().c_str());
        return 1;
      }
      auto alt = mw.PrepareLogical(prepared.ValueOrDie().initial_plan,
                                   optimizer::SiteRestriction::kMiddlewareOnly);
      if (!alt.ok() || Shape(*alt.ValueOrDie().plan) == probes[q].shape) {
        alt = mw.PrepareLogical(prepared.ValueOrDie().initial_plan,
                                optimizer::SiteRestriction::kDbmsOnly);
      }
      if (!alt.ok()) {
        std::fprintf(stderr, "reference placement failed: %s\n",
                     alt.status().ToString().c_str());
        return 1;
      }
      reference_shape[q] = Shape(*alt.ValueOrDie().plan);
      auto exec = mw.Execute(alt.ValueOrDie().plan);
      if (!exec.ok()) {
        std::fprintf(stderr, "reference failed: %s\n",
                     exec.status().ToString().c_str());
        return 1;
      }
      std::vector<std::string> names;
      for (const Column& c : exec.ValueOrDie().schema.columns()) {
        names.push_back(c.name);
      }
      reference[q] = ResultChecksum(names, exec.ValueOrDie().rows);
      std::printf("reference[%d] %s rows=%zu\n", q, reference_shape[q].c_str(),
                  exec.ValueOrDie().rows.size());
    }
  }

  // Warm-up outside the timed region (first-touch memory, socket buffers).
  const size_t clients = args.workload == "point" ? 4
                         : args.workload == "churn" ? 3
                                                    : 1;
  const bool writer = args.workload == "churn";
  auto phase = [&](double seconds, obs::TraceRecorder* trace, size_t n,
                   bool with_writer, uint64_t salt) {
    return RunPhase(Phase{args, env.get(), trace, &truth,
                          args.workload == "analytic" ? &analytic : nullptr,
                          seconds, n, with_writer, salt});
  };
  // On analytic, two full cycles also let cardinality feedback settle the
  // plans (a fresh plan may be re-optimized after its first executions).
  for (int i = 0; i < (args.workload == "analytic" ? 2 : 1); ++i) {
    (void)phase(args.workload == "analytic" ? 1e-3 : 0.5, nullptr, clients,
                false, 7);
  }

  // Hand the earlier set-ups' freed heap back to the kernel, so the timed
  // region's peak RSS reflects live memory only.
  ::malloc_trim(0);

  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  PhaseResult main_run;
  PhaseResult traced;
  const double run_seconds = args.trace ? args.seconds / 2 : args.seconds;
  main_run = phase(run_seconds, nullptr, clients, writer, 0);

  // Traced phase on a fresh traced server over the same engine.
  SpanAnalysis spans;
  double single_service_ms = 0;
  if (args.trace) {
    auto traced_server = [&](obs::TraceRecorder* rec) {
      const Status st = StartServer(env.get(), host, rec);
      return st.ok() ? WarmCache(env.get(), templates) : st;
    };
    if (clients > 1) {
      // Single-client service time of the same templates: the baseline of
      // dbms.contention_ms.
      single_recorder = std::make_unique<obs::TraceRecorder>();
      if (!traced_server(single_recorder.get()).ok()) return 1;
      (void)phase(std::min(2.0, args.seconds / 4), single_recorder.get(), 1,
                  false, 11);
      std::vector<double> svc;
      for (const Attribution& a :
           AnalyzeSpans(single_recorder->Snapshot()).requests) {
        if (a.matched) svc.push_back(a.service * 1e3);
      }
      single_service_ms = Median(svc);
    }
    recorder = std::make_unique<obs::TraceRecorder>();
    if (!traced_server(recorder.get()).ok()) {
      std::fprintf(stderr, "traced server failed to start\n");
      return 1;
    }
    traced = phase(args.seconds / 2, recorder.get(), clients, writer, 0);
    env->server->Stop();
    const std::vector<obs::Span> all = recorder->Snapshot();
    spans = AnalyzeSpans(all);
    WriteSpans(fs::path(args.workdir) / "traces" /
                   (args.workload + "-seed" + std::to_string(args.seed) +
                    ".spans"),
               all, spans);
  }

  // ---- correctness
  size_t attempted = main_run.attempted + (args.trace ? traced.attempted : 0);
  size_t failed = main_run.failed + (args.trace ? traced.failed : 0);
  for (const PhaseResult* r : {&main_run, &traced}) {
    for (size_t i = 0; i < r->errors.size() && i < 5; ++i) {
      std::printf("  error: %s\n", r->errors[i].c_str());
    }
  }
  checks.Check(main_run.attempted > 0, "requests were attempted");
  checks.Check(failed == 0, "every operation succeeded with the right answer (" +
                                std::to_string(failed) + " of " +
                                std::to_string(attempted) + " failed)");
  if (args.workload == "churn") {
    auto r = env->db->Execute("SELECT COUNT(*) AS C FROM POSITION");
    const size_t committed =
        main_run.writer_committed + (args.trace ? traced.writer_committed : 0);
    const size_t now_rows =
        r.ok() ? static_cast<size_t>(r.ValueOrDie().rows[0][0].AsInt()) : 0;
    checks.Check(now_rows == loaded_positions + committed,
                 "POSITION rows " + std::to_string(now_rows) + " = loaded " +
                     std::to_string(loaded_positions) + " + committed " +
                     std::to_string(committed));
    checks.Check(main_run.writes.size() >= 2, "the writer ran");
  }
  if (args.workload == "analytic") {
    for (const PhaseResult* r : {&main_run, &traced}) {
      std::map<int, const Repetition*> first;
      for (const Repetition& rep : r->reps) {
        if (rep.checksum != reference[rep.tmpl]) {
          ++failed;
          checks.Check(false, "Q" + std::to_string(rep.tmpl + 1) +
                                  " result matches the reference placement");
        }
        auto [it, fresh] = first.emplace(rep.tmpl, &rep);
        if (!fresh) {
          const Repetition& a = *it->second;
          const bool same = a.statements == rep.statements &&
                            a.rows_to_mw == rep.rows_to_mw &&
                            a.rows_to_dbms == rep.rows_to_dbms &&
                            a.rows == rep.rows;
          if (!same) {
            std::printf("  Q%d rep: statements=%.0f rows_to_mw=%.0f "
                        "rows_to_dbms=%.0f rows=%zu\n",
                        rep.tmpl + 1, rep.statements, rep.rows_to_mw,
                        rep.rows_to_dbms, rep.rows);
            checks.Check(false, "Q" + std::to_string(rep.tmpl + 1) +
                                    " repetitions ran the same plan");
          }
        }
      }
      for (const auto& [q, rep] : first) {
        std::printf("plan-signature Q%d statements=%.0f rows_to_mw=%.0f "
                    "rows_to_dbms=%.0f result_rows=%zu\n",
                    q + 1, rep->statements, rep->rows_to_mw, rep->rows_to_dbms,
                    rep->rows);
      }
    }
    for (int q = 0; q < 4; ++q) {
      size_t n = 0;
      for (const Repetition& rep : main_run.reps) n += rep.tmpl == q;
      checks.Check(n >= 1, "Q" + std::to_string(q + 1) + " ran " +
                               std::to_string(n) + " times, every result "
                               "checked against " + reference_shape[q]);
    }
    if (args.trace) {
      std::map<int, std::set<std::string>> shapes;
      for (size_t i = 0; i < traced.samples.size() && i < spans.requests.size();
           ++i) {
        const auto it = spans.executed_shape.find(i + 1);
        if (it != spans.executed_shape.end()) {
          shapes[traced.samples[i].tmpl].insert(it->second);
        }
      }
      for (const auto& [q, set] : shapes) {
        for (const std::string& s : set) {
          std::printf("executed[Q%d] %s\n", q + 1, s.c_str());
        }
        checks.Check(set.size() == 1, "Q" + std::to_string(q + 1) +
                                          " traced repetitions executed one "
                                          "operator tree");
      }
    }
  }

  // ---- end-to-end metrics (untraced run)
  const PhaseResult& r = main_run;
  const double p50 = HeadlineP50(args.workload, r);
  const double tail = TailMs(args.workload, r);
  const double ok_reads = static_cast<double>(LatenciesMs(r).size());
  const double qps = ok_reads / std::max(1e-9, r.wall - r.verify_seconds);
  const double failed_frac =
      Ratio(static_cast<double>(failed), static_cast<double>(attempted));
  if (!args.trace) {
    metrics.push_back({"setup_s", Median(setup_seconds), "s"});
    metrics.push_back({"qps", qps, "1/s"});
    metrics.push_back({"p50_ms", p50, "ms"});
    metrics.push_back({"tail_ms", tail, "ms"});
    metrics.push_back({"peak_rss_mb", r.peak_rss_mb, "MB"});
  }
  extra.push_back({"failed_frac", failed_frac, "ratio"});
  extra.push_back({"samples", ok_reads, "count"});
  if (args.workload == "analytic") {
    for (int q = 0; q < 4; ++q) {
      extra.push_back({"q" + std::to_string(q + 1) + "_ms",
                       Median(LatenciesMs(r, q)), "ms"});
    }
  }
  if (args.workload != "analytic") {
    extra.push_back({"read_p99_ms", Quantile(LatenciesMs(r), 0.99), "ms"});
  }
  if (args.workload == "churn") {
    std::vector<double> w, late;
    for (const WriteSample& s : r.writes) {
      w.push_back(s.latency * 1e3);
      late.push_back(s.late * 1e3);
    }
    extra.push_back({"write_p50_ms", Median(w), "ms"});
    extra.push_back({"write_p90_ms", Quantile(w, 0.90), "ms"});
    extra.push_back({"writer_late_mean_ms", Mean(late), "ms"});
    extra.push_back({"writes", static_cast<double>(w.size()), "count"});
  }

  // ---- per-layer metrics (traced run)
  if (args.trace) {
    const PhaseResult& t = traced;
    const CounterSnap& c = t.counters;
    const double queries = std::max(1.0, c.at("server.requests"));
    std::vector<double> service, unattributed;
    Attribution sum;
    size_t matched = 0;
    for (const Attribution& a : spans.requests) {
      if (!a.matched) continue;
      ++matched;
      service.push_back(a.service * 1e3);
      unattributed.push_back((a.latency - a.Sum()) * 1e3);
      sum.client += a.client;
      sum.server += a.server;
      sum.adapt += a.adapt;
      sum.optimize += a.optimize;
      sum.compile += a.compile;
      sum.execute += a.execute;
      sum.operators += a.operators;
      sum.other += a.other;
      sum.latency += a.latency;
      sum.optimizations += a.optimizations;
    }
    const double m = std::max<double>(1, static_cast<double>(matched));
    const double service_ms = Median(service);
    const double traced_p50 = Median(LatenciesMs(t));
    // Template mix of the traced phase weights the probe costs.
    std::vector<double> mix(templates.size(), 0);
    for (const Sample& s : t.samples) mix[static_cast<size_t>(s.tmpl)] += 1;
    double mix_n = 0;
    for (double x : mix) mix_n += x;
    auto mixed = [&](auto field) {
      double v = 0;
      for (size_t i = 0; i < probes.size(); ++i) {
        v += Ratio(mix[i], mix_n) * field(probes[i]);
      }
      return v;
    };
    double memo = 0;
    for (const ProbeCost& pc : probes) memo += pc.memo_elements;
    memo /= static_cast<double>(std::max<size_t>(1, probes.size()));
    const double tm_ms = mixed([](const ProbeCost& p) { return p.tm_self; }) * 1e3;
    const double stmt_ms = mixed([](const ProbeCost& p) { return p.stmt; }) * 1e3;
    double overhead = 0;
    if (args.workload == "analytic") {
      overhead = Ratio(HeadlineP50(args.workload, t),
                       HeadlineP50(args.workload, main_run)) - 1;
    } else {
      overhead = Ratio(traced_p50, Median(LatenciesMs(main_run))) - 1;
    }
    double result_rows = 0;
    for (const Sample& s : t.samples) result_rows += static_cast<double>(s.rows);
    const double txns = static_cast<double>(t.writes.size());
    const double mean_latency_ms = sum.latency / m * 1e3;
    const double unattributed_ms = Mean(unattributed);

    metrics.push_back({"net.service_ms", service_ms, "ms"});
    metrics.push_back({"net.wait_ms", traced_p50 - service_ms, "ms"});
    metrics.push_back({"net.queue_depth", t.queue_depth_mean, "count"});
    metrics.push_back({"net.busy_frac",
                       Ratio(c.at("server.busy_rejections"), queries), "ratio"});
    metrics.push_back({"adapt.lookup_ms", sum.adapt / m * 1e3, "ms"});
    metrics.push_back(
        {"adapt.hit_rate",
         Ratio(c.at("plancache.hit"), c.at("plancache.hit") + c.at("plancache.miss")),
         "ratio"});
    metrics.push_back({"adapt.reoptimize_per_query",
                       Ratio(c.at("reoptimize.count"), queries), "ratio"});
    metrics.push_back({"optimizer.optimize_ms", sum.optimize / m * 1e3, "ms"});
    metrics.push_back({"optimizer.optimizations",
                       static_cast<double>(sum.optimizations) / m,
                       "count/query"});
    metrics.push_back({"optimizer.memo_elements", memo, "count"});
    metrics.push_back({"tango.compile_ms", sum.compile / m * 1e3, "ms"});
    metrics.push_back({"tango.execute_self_ms", sum.execute / m * 1e3, "ms"});
    metrics.push_back({"exec.ops_span_ms", sum.operators / m * 1e3, "ms"});
    metrics.push_back(
        {"exec.m_self_ms",
         mixed([](const ProbeCost& p) { return p.m_self; }) * 1e3, "ms"});
    metrics.push_back({"exec.tm_self_ms", tm_ms, "ms"});
    metrics.push_back(
        {"exec.td_self_ms",
         mixed([](const ProbeCost& p) { return p.td_self; }) * 1e3, "ms"});
    metrics.push_back({"exec.rows_per_block",
                       Ratio(c.at("exec.batch.rows"), c.at("exec.batch.blocks")),
                       "count"});
    metrics.push_back(
        {"exec.transfer_rows_per_result_row",
         Ratio(c.at("transfer.rows_to_middleware") + c.at("transfer.rows_to_dbms"),
               result_rows),
         "ratio"});
    metrics.push_back({"dbms.stmt_ms", stmt_ms, "ms"});
    metrics.push_back({"dbms.wire_ms", tm_ms - stmt_ms, "ms"});
    metrics.push_back({"dbms.statements_per_query",
                       c.at("wire.statements") / queries, "count/query"});
    metrics.push_back({"dbms.bytes_to_middleware_per_query",
                       c.at("wire.bytes_to_client") / queries, "B/query"});
    metrics.push_back({"dbms.bytes_to_dbms_per_query",
                       c.at("wire.bytes_to_server") / queries, "B/query"});
    metrics.push_back({"dbms.contention_ms",
                       clients > 1 ? service_ms - single_service_ms : 0, "ms"});
    metrics.push_back({"storage.wal_appends_per_txn",
                       Ratio(t.wal_appends, txns), "count/txn"});
    metrics.push_back({"storage.wal_syncs_per_txn", Ratio(t.wal_syncs, txns),
                       "count/txn"});
    metrics.push_back({"storage.lock_retries_per_txn",
                       Ratio(static_cast<double>(t.writer_lock_retries), txns),
                       "count/txn"});
    metrics.push_back(
        {"storage.commit_frac",
         Ratio(static_cast<double>(t.writer_committed),
               static_cast<double>(t.writer_committed + t.writer_failed)),
         "ratio"});
    metrics.push_back({"obs.trace_overhead", overhead, "ratio"});
    metrics.push_back({"unattributed_ms", unattributed_ms, "ms"});

    std::printf("traced phase: %zu requests, %zu spans\n",
                traced.samples.size(), recorder->Snapshot().size());
    std::printf("attribution over %zu of %zu traced requests (mean ms): "
                "client %.4f server %.4f adapt %.4f optimize %.4f compile "
                "%.4f execute %.4f operators %.4f other %.4f | latency %.4f "
                "unattributed %.4f\n",
                matched, spans.requests.size(), sum.client / m * 1e3,
                sum.server / m * 1e3, sum.adapt / m * 1e3,
                sum.optimize / m * 1e3, sum.compile / m * 1e3,
                sum.execute / m * 1e3, sum.operators / m * 1e3,
                sum.other / m * 1e3, mean_latency_ms, unattributed_ms);
    size_t skipped = 0;
    for (const ProbeCost& pc : probes) skipped += pc.stmts_skipped;
    if (skipped > 0) {
      std::printf("dbms.stmt_ms excludes %zu statement(s) over TRANSFER^D "
                  "temp tables (dropped by the query's janitor)\n",
                  skipped);
    }
    // Add-up check: the attributed self times cover the client latency.
    const double tolerance = std::max(0.02, 0.02 * mean_latency_ms);
    checks.Check(matched >= spans.requests.size() * 9 / 10 && matched > 0,
                 "at least 90% of traced requests matched a server span");
    checks.Check(std::fabs(unattributed_ms) <= tolerance,
                 "layer self times add up to client latency within " +
                     std::to_string(tolerance) + " ms");
  }

  std::printf("end-to-end (untraced): qps %.3f p50 %.4f ms tail %.4f ms "
              "failed_frac %.6f peak_rss %.1f MB\n",
              qps, p50, tail, failed_frac, r.peak_rss_mb);
  for (const Metric& e : extra) {
    std::printf("  %s = %.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  WriteReport(args, host_json, metrics, extra);
  env.reset();
  PrintResult(checks.failures() == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace tango

int main(int argc, char** argv) { return tango::perfbench::Main(argc, argv); }
