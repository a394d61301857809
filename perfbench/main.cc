// aql_perfbench: one workload of the AQL end-to-end benchmark, in one
// process, printing one JSON record on its last line of stdout.
//
//   aql_perfbench --workload served_mix|set_groupby|tiled_scan --seed N
//                 --seconds S --mode plain|traced|setup --data-dir DIR
//
// plain  — the measured run. Queries go through the public entry points
//          (QueryService::Execute / RunScript in-process, HttpServer over
//          loopback for served_mix); the record carries the end-to-end
//          metrics and the per-layer counter deltas over the window.
// setup  — set up as plain does, print the set-up time, exit.
// traced — the same seeded stream through the same stack, with src's own
//          obs::Tracer on: the record carries per-query medians of each
//          layer's self time, from the spans src/ emits.
//
// Every distinct query instance's result is checked after the window
// against the tree-walking evaluator (System::Eval); a mismatch is a
// wrong-result operation and makes the run fail.

#include <sys/personality.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/lint.h"
#include "base/socket.h"
#include "base/sync.h"
#include "env/system.h"
#include "exec/parallel.h"
#include "harness.h"
#include "net/server.h"
#include "netcdf/synth.h"
#include "object/value_parser.h"
#include "object/value_write.h"
#include "obs/trace.h"
#include "service/result_cache.h"
#include "service/service.h"
#include "storage/tile_store.h"

namespace perfbench {
namespace {

using aql::Result;
using aql::Status;
using aql::System;
using aql::Value;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "aql_perfbench: %s\n", what.c_str());
  std::exit(2);
}

// ---- configuration the workloads run with ----

// Closed-loop clients. served_mix: each in-flight request holds a
// connection thread and a service worker, so 2 clients keep runnable
// threads within 4 cores.
int ClientsFor(Workload w) { return w == Workload::kServedMix ? 2 : 1; }

// tiled_scan: decoded, T and RH are 138 KB each and WS 276 KB: 553 KB
// against a 128 KiB tile cache of 16 KiB tiles.
constexpr uint64_t kTileCacheBytes = 128 << 10, kTileBytes = 16 << 10;
constexpr uint64_t kTiledDatasetBytes =
    8 * (2 * kTiledDays * 24 + kTiledDays * 48 * kTiledAlts) * kTiledCells * kTiledCells;

// ---- seeded data ----

// Sets of exactly n distinct elements, so every seed does the same work.
Value NatSet(Rng* r, size_t n, uint64_t bound) {
  std::set<uint64_t> seen;
  std::vector<Value> elems;
  while (elems.size() < n) {
    uint64_t v = r->Below(bound);
    if (seen.insert(v).second) elems.push_back(Value::Nat(v));
  }
  return Value::MakeSet(std::move(elems));
}

Value PairSet(Rng* r, size_t n, uint64_t keys, uint64_t bound) {
  std::set<std::pair<uint64_t, uint64_t>> seen;
  std::vector<Value> elems;
  while (elems.size() < n) {
    uint64_t k = r->Below(keys), v = r->Below(bound);
    if (seen.insert({k, v}).second) {
      elems.push_back(Value::MakeTuple({Value::Nat(k), Value::Nat(v)}));
    }
  }
  return Value::MakeSet(std::move(elems));
}

Value NatVector(Rng* r, size_t n, uint64_t bound) {
  std::vector<Value> elems;
  for (size_t i = 0; i < n; ++i) elems.push_back(Value::Nat(r->Below(bound)));
  return Value::MakeVector(std::move(elems));
}

Result<Value> HeatIndex(const Value& arg) {
  double peak = -1e30;
  for (const Value& v : arg.array().elems) {
    const auto& f = v.tuple_fields();
    peak = std::max(peak,
                    f[0].real_value() + 0.05 * f[1].real_value() - 0.4 * f[2].real_value());
  }
  return Value::Real(peak);
}

Status Check(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
  return s;
}

// Binds the workload's data into `sys`. Returns the readval time (ms).
double BindData(Workload w, uint64_t seed, const std::string& dir, System* sys) {
  Rng r(seed ^ 0x5eedda7aull);
  switch (w) {
    case Workload::kServedMix: {
      // Small vals of an interactive session (tour.aql, §4.2).
      Check(sys->DefineVal("R", PairSet(&r, 64, 16, 1000)), "R");
      std::vector<Value> s;
      for (uint64_t k = 0; k < 16; ++k) {
        s.push_back(Value::MakeTuple({Value::Nat(k), Value::Bool(r.Below(2) == 0)}));
      }
      Check(sys->DefineVal("S", Value::MakeSet(std::move(s))), "S");
      Check(sys->DefineVal("X", NatSet(&r, 16, 1000)), "X");
      Check(sys->DefineVal("A", NatVector(&r, 256, 100)), "A");
      Check(sys->DefineVal("B", NatVector(&r, 256, 100)), "B");
      std::vector<Value> m;
      for (int i = 0; i < 32 * 32; ++i) m.push_back(Value::Nat(r.Below(100)));
      Result<Value> mv = Value::MakeArray({32, 32}, std::move(m));
      if (!mv.ok()) Die(mv.status().ToString());
      Check(sys->DefineVal("M", *mv), "M");
      return 0;
    }
    case Workload::kSetGroupby: {
      // Sizes put each query at a few ms of boxed-set execution.
      Check(sys->DefineVal("Rel", PairSet(&r, 125, 20, 1000)), "Rel");
      Check(sys->DefineVal("Large", PairSet(&r, 300, 40, 1000)), "Large");
      Check(sys->DefineVal("Big", PairSet(&r, 1400, 512, 1000)), "Big");
      Check(sys->DefineVal("Hv", NatVector(&r, 1000, 64)), "Hv");
      Check(sys->DefineVal("Fv", NatVector(&r, 8000, 2000)), "Fv");
      Check(sys->DefineVal("Sv", NatSet(&r, 125, 100000)), "Sv");
      Check(sys->DefineVal("Tv", NatSet(&r, 50, 200000)), "Tv");
      return 0;
    }
    case Workload::kTiledScan: {
      aql::netcdf::SynthWeatherOptions opts;
      opts.days = kTiledDays;
      opts.lats = opts.lons = kTiledCells;
      opts.alts = kTiledAlts;
      opts.seed = seed;
      const std::string t = dir + "/temp.nc", rh = dir + "/rh.nc", ws = dir + "/wind.nc";
      for (auto [path, writer] : {std::pair{&t, &aql::netcdf::WriteTempFile},
                                  std::pair{&rh, &aql::netcdf::WriteHumidityFile},
                                  std::pair{&ws, &aql::netcdf::WriteWindFile}}) {
        Result<size_t> written = writer(*path, opts);
        if (!written.ok()) Die(written.status().ToString());
      }
      Check(sys->RegisterPrimitive("heatindex", "[[real * real * real]]_1 -> real", HeatIndex),
            "heatindex");
      const std::string h = std::to_string(kTiledDays * 24 - 1);
      const std::string c = std::to_string(kTiledCells - 1);
      const std::string script =
          "readval \\T using NETCDF3 at (\"" + t + "\", \"temp\", (0, 0, 0), (" + h + ", " +
          c + ", " + c + "));\n" + "readval \\RH using NETCDF3 at (\"" + rh +
          "\", \"rh\", (0, 0, 0), (" + h + ", " + c + ", " + c + "));\n" +
          "readval \\WS using NETCDF4 at (\"" + ws + "\", \"ws\", (0, 0, 0, 0), (" +
          std::to_string(kTiledDays * 48 - 1) + ", " + std::to_string(kTiledAlts - 1) +
          ", " + c + ", " + c + "));\n";
      int64_t start = NowNs();
      auto rd = sys->Run(script);
      double ms = double(NowNs() - start) / 1e6;
      if (!rd.ok()) Die("readval: " + rd.status().ToString());
      for (const auto& res : *rd) {
        if (res.value.array().payload != aql::ArrayRep::Payload::kTiled) {
          Die("readval " + res.name + " did not produce a tiled array");
        }
      }
      return ms;
    }
  }
  return 0;
}

// ---- HTTP client (keep-alive, one request in flight) ----

class HttpClient {
 public:
  static std::unique_ptr<HttpClient> Connect(uint16_t port) {
    Result<aql::Socket> s = aql::Socket::ConnectLocal(port);
    if (!s.ok()) return nullptr;
    return std::unique_ptr<HttpClient>(new HttpClient(std::move(*s)));
  }

  // Returns false when the connection failed (the op counts as failed).
  bool Post(const std::string& body, const std::string& extra_headers, HttpResponse* out) {
    std::string req = "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: " +
                      std::to_string(body.size()) + "\r\n" + extra_headers + "\r\n" + body;
    if (!socket_.WriteAll(req).ok()) return false;
    for (;;) {
      size_t consumed = 0;
      int r = ParseHttpResponse(buffer_, out, &consumed);
      if (r < 0) return false;
      if (r == 1) {
        buffer_.erase(0, consumed);
        return true;
      }
      char chunk[65536];
      Result<size_t> n = socket_.Read(chunk, sizeof(chunk));
      if (!n.ok() || *n == 0) return false;
      buffer_.append(chunk, *n);
    }
  }

 private:
  explicit HttpClient(aql::Socket s) : socket_(std::move(s)) {}
  aql::Socket socket_;
  std::string buffer_;
};

// ---- the measured stack ----

struct Stack {
  std::unique_ptr<System> sys;
  std::unique_ptr<aql::service::QueryService> svc;
  std::unique_ptr<aql::net::HttpServer> server;
  double readval_ms = 0;
};

uint64_t ResultCacheBytes(Workload w) {
  // tiled_scan measures the storage path: its window results are not
  // kept, so every repeated plan runs again against the tile cache.
  return w == Workload::kTiledScan ? 0 : (64ull << 20);
}

std::unique_ptr<Stack> BuildStack(Workload w, uint64_t seed, const std::string& dir, bool http) {
  aql::service::ServiceConfig config;
  if (config.plan_cache_capacity != size_t(kPlanCacheCapacity)) {
    Die("the service's plan cache holds " + std::to_string(config.plan_cache_capacity) +
        " plans; the popular pools are sized for " + std::to_string(kPlanCacheCapacity));
  }
  config.result_cache_bytes = ResultCacheBytes(w);
  auto stack = std::make_unique<Stack>();
  aql::storage::TileStore::Global().Clear();
  stack->sys = std::make_unique<System>();
  Check(stack->sys->init_status(), "System");
  stack->readval_ms = BindData(w, seed, dir, stack->sys.get());
  stack->svc = std::make_unique<aql::service::QueryService>(stack->sys.get(), config);
  if (http) {
    aql::net::HttpServerConfig hc;
    hc.port = 0;
    stack->server = std::make_unique<aql::net::HttpServer>(stack->svc.get(), hc);
    Check(stack->server->Start(), "HttpServer");
  }
  return stack;
}

// ---- the closed loop ----

// End-to-end figures are medians over equal parts of the window, each at
// least this long. A part must hold about 1000 ops, so that ten of them
// lie beyond its p99, even on a slow host: set_groupby serves 150-250
// ops/s, tiled_scan 230-310, served_mix 2500-11000. The shorter the
// parts, the more of them a run has, and the more of the run a burst of
// load from other tenants of the host (seen to last 5-15 s) must cover
// before it moves the median: served_mix, whose sub-millisecond ops
// hand off between threads and so slow down most in such a burst, has
// 20 parts in a 20 s run; tiled_scan and set_groupby 3.
double MinPartSeconds(Workload w) {
  return w == Workload::kServedMix ? 1.0 : 6.5;
}

int WindowParts(Workload w, double seconds) {
  return std::max(1, int(seconds / MinPartSeconds(w) + 1e-9));
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// peak_rss_mb is read when this many ops of the window have finished,
// not at its end: the system's memory grows with the ops it has served,
// and a faster build must not be charged for serving more of them. Each
// count is well under what a slow run of the benchmark's length reaches.
uint64_t RssCheckpointOps(Workload w) {
  switch (w) {
    case Workload::kServedMix: return 30000;
    case Workload::kSetGroupby: return 2000;
    case Workload::kTiledScan: return 2500;
  }
  return 0;
}

// Share of this machine's CPU time the hypervisor took between two
// reads of /proc/stat; 0 where it cannot be read.
struct CpuTimes {
  uint64_t steal = 0, total = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  char label[16];
  unsigned long long v[10] = {};
  int n = std::fscanf(f, "%15s %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu", label, &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7], &v[8], &v[9]);
  std::fclose(f);
  if (n < 9) return t;
  t.steal = v[7];
  for (unsigned long long x : v) t.total += x;
  return t;
}

double StealShare(const CpuTimes& a, const CpuTimes& b) {
  return b.total > a.total ? double(b.steal - a.steal) / double(b.total - a.total) : 0;
}

// What an op returned. The closed loop keeps only fingerprints (and
// spills first HTTP bodies to a file): stored results would grow the
// process's memory with the op count and blur peak_rss_mb.
struct Observed {
  bool have = false;
  Value value;        // in-process result, until fingerprinted
  std::string body;   // HTTP text body, until fingerprinted
  uint64_t hash = 0;  // HashValue of the value, or std::hash of the body
  int64_t body_offset = -1;  // first body's place in the spill file
  uint64_t body_len = 0;
  uint64_t ok_ops = 0;
};

struct Window {
  Tally tally;
  std::vector<OpSample> samples;
  double seconds = 0;    // nominal window
  double elapsed_s = 0;  // until the last op finished
  double rss_mb = 0;     // peak RSS at the checkpoint (see RssCheckpointOps)
  bool rss_checkpoint_reached = false;
  uint64_t queries = 0;
  std::vector<Observed> observed;  // by instance id
  std::vector<std::string> instances;
  std::vector<std::pair<uint64_t, int64_t>> op_instance;  // (qid, instance), in issue order
  std::vector<int8_t> op_template;                        // template id per op
  std::string body_file;  // spilled first HTTP bodies
  uint64_t warmup_ops = 0;
  double cpu_steal_share = 0;  // over the window
};

// How one op is executed: returns its outcome and, on success, fills
// the observed result (value or body).
using Executor = std::function<Outcome(int client, const Op&, Observed* result)>;

// True once the service's caches are in the state they keep for the rest
// of a run: the plan cache at capacity, and the result cache (where it is
// on) either full, so that inserts evict, or flushed by a write.
bool CachesFull(const aql::service::QueryService& svc) {
  if (svc.plan_cache().size() < svc.plan_cache().capacity()) return false;
  const aql::service::ResultCache& rc = svc.result_cache();
  if (!rc.enabled()) return true;
  const aql::service::ResultCache::Stats st = rc.stats();
  return st.evictions > 0 || st.invalidations > 0;
}

// Warm-up ends by this time even if the caches are not full yet.
constexpr double kMaxWarmupSeconds = 15;

Window RunClosedLoop(Workload w, uint64_t seed, const std::string& dir, double seconds,
                     const aql::service::QueryService& svc, const Executor& exec,
                     const std::function<void()>& on_warmed = {}) {
  Window win;
  std::mutex mu;
  StreamGenerator gen(w, seed, dir);
  uint64_t next_qid = 0;
  win.body_file = dir + "/bodies.txt";
  std::unique_ptr<FILE, int (*)(FILE*)> bodies(std::fopen(win.body_file.c_str(), "wb"), &std::fclose);
  if (!bodies) Die("cannot write " + win.body_file);
  int64_t body_end = 0;
  auto observe = [&](const Op& op, Observed result, Outcome* outcome) {
    if (*outcome != Outcome::kOk || op.kind != Op::Kind::kQuery) return;
    result.hash = result.body.empty() ? aql::HashValue(result.value)
                                      : std::hash<std::string>()(result.body);
    result.value = Value();
    if (win.observed.size() <= size_t(op.instance)) win.observed.resize(size_t(op.instance) + 1);
    Observed& o = win.observed[size_t(op.instance)];
    if (!o.have) {
      if (!result.body.empty()) {
        if (std::fwrite(result.body.data(), 1, result.body.size(), bodies.get()) !=
            result.body.size()) {
          Die("cannot write " + win.body_file);
        }
        result.body_offset = body_end;
        result.body_len = result.body.size();
        body_end += int64_t(result.body.size());
      }
      result.body.clear();
      o = std::move(result);
      o.have = true;
    } else if (o.hash != result.hash) {
      *outcome = Outcome::kWrong;  // a repeat disagrees with the first answer
    }
    if (*outcome == Outcome::kOk) ++o.ok_ops;
  };
  // Warm-up, untimed: the popular instances are issued (and planned and
  // cached) once, and the stream runs on until the service's caches are
  // full, as in a session that has been running a while. Until then no
  // insert evicts anything and ops run faster than they do for the rest
  // of the run: set_groupby's p50 is a quarter lower over the first
  // 3 s, while its result cache fills, and tiled_scan's plan cache takes
  // 5 s to fill with one-off plans.
  Tally warm;
  const int64_t warm_deadline = NowNs() + int64_t(kMaxWarmupSeconds * 1e9);
  while (!gen.warmed() || (!CachesFull(svc) && NowNs() < warm_deadline)) {
    Op op = gen.Next();
    Observed result;
    Outcome outcome = exec(0, op, &result);
    ++next_qid;
    observe(op, std::move(result), &outcome);
    warm.Add(outcome);
  }
  if (warm.errors() > 0) Die("an operation failed during warm-up");
  if (on_warmed) on_warmed();
  const CpuTimes cpu_before = ReadCpuTimes();
  const int64_t start = NowNs();
  const int64_t deadline = start + int64_t(seconds * 1e9);
  std::atomic<int64_t> last_end{start};
  auto client = [&](int c) {
    for (;;) {
      Op op;
      uint64_t qid;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (NowNs() >= deadline) return;
        op = gen.Next();
        qid = ++next_qid;
      }
      Observed result;
      int64_t t0 = NowNs();
      Outcome outcome = exec(c, op, &result);
      int64_t t1 = NowNs();
      int64_t prev = last_end.load();
      while (prev < t1 && !last_end.compare_exchange_weak(prev, t1)) {
      }
      std::lock_guard<std::mutex> lock(mu);
      win.samples.push_back({t1 - start, double(t1 - t0) / 1e3, true});
      win.op_instance.emplace_back(qid, op.instance);
      win.op_template.push_back(int8_t(op.tmpl));
      if (op.kind == Op::Kind::kQuery) ++win.queries;
      observe(op, std::move(result), &outcome);
      win.tally.Add(outcome);
      win.samples.back().ok = outcome == Outcome::kOk;
      if (win.tally.attempted == RssCheckpointOps(w)) {
        win.rss_mb = PeakRssMb();
        win.rss_checkpoint_reached = true;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < ClientsFor(w); ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();
  win.seconds = seconds;
  win.elapsed_s = double(last_end.load() - start) / 1e9;
  win.cpu_steal_share = StealShare(cpu_before, ReadCpuTimes());
  if (!win.rss_checkpoint_reached) win.rss_mb = PeakRssMb();
  win.instances = gen.instances();
  win.warmup_ops = warm.attempted;
  if (std::fflush(bodies.get()) != 0) Die("cannot write " + win.body_file);
  return win;
}

// Compares every observed instance with System::Eval (the tree-walking
// evaluator), in parallel after the window. Returns mismatched instances.
uint64_t CheckOracle(System* sys, Window* win, bool http) {
  std::string bodies;
  if (http) {
    FILE* f = std::fopen(win->body_file.c_str(), "rb");
    if (f == nullptr) Die("cannot read " + win->body_file);
    char buf[65536];
    for (size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) bodies.append(buf, n);
    std::fclose(f);
  }
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> mismatched{0};
  std::mutex mu;
  auto worker = [&] {
    for (;;) {
      size_t i = next.fetch_add(1);
      if (i >= win->observed.size()) return;
      Observed& o = win->observed[i];
      if (!o.have) continue;
      Result<Value> expected = sys->Eval(win->instances[i]);
      bool match = expected.ok();
      if (match && http) {
        std::string_view body =
            std::string_view(bodies).substr(size_t(o.body_offset), size_t(o.body_len));
        if (!body.empty() && body.back() == '\n') body.remove_suffix(1);
        Result<Value> got = aql::ParseValue(body);
        match = got.ok() && *got == *expected;
      } else if (match) {
        match = o.hash == aql::HashValue(*expected);
      }
      if (!match) {
        mismatched.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu);
        std::fprintf(stderr, "aql_perfbench: oracle mismatch on instance %zu: %s\n", i,
                     win->instances[i].c_str());
        win->tally.ok -= o.ok_ops;
        win->tally.wrong += o.ok_ops;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  return mismatched.load();
}

// ---- counters over the window ----

struct Counters {
  uint64_t plan_hits = 0, plan_misses = 0, rejected = 0;
  aql::service::ResultCache::Stats rc;
  uint64_t par_chunks = 0, unboxed = 0, unchecked = 0, pushdowns = 0;
  aql::storage::TileStoreStats tiles;
  uint64_t system_wait_us = 0, tile_wait_us = 0;
};

Counters Snapshot(aql::service::QueryService* svc) {
  Counters c;
  c.plan_hits = svc->metrics()->GetCounter("plan_cache.hits")->value();
  c.plan_misses = svc->metrics()->GetCounter("plan_cache.misses")->value();
  c.rejected = svc->metrics()->GetCounter("queries.rejected")->value();
  c.rc = svc->result_cache().stats();
  const aql::exec::ExecStats& es = aql::exec::GlobalExecStats();
  c.par_chunks = es.par_chunks.load();
  c.unboxed = es.unboxed_arrays.load();
  c.unchecked = es.unchecked_kernels.load();
  c.pushdowns = es.tab_pushdowns.load();
  c.tiles = aql::storage::TileStore::Global().stats();
  for (const auto& m : aql::SnapshotMutexStats()) {
    if (m.name == "service.system") c.system_wait_us = m.wait_us;
    if (m.name == "storage.tile_cache") c.tile_wait_us = m.wait_us;
  }
  return c;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---- output ----

struct Json {
  std::string out;
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Field(key, buf);
  }
  void Str(const std::string& key, const std::string& v) { Field(key, "\"" + JsonEscape(v) + "\""); }
  void Raw(const std::string& key, const std::string& v) { Field(key, v); }
  void Field(const std::string& key, const std::string& v) {
    out += out.empty() ? "{" : ",";
    out += "\"" + JsonEscape(key) + "\":" + v;
  }
  std::string Done() const { return out.empty() ? "{}" : out + "}"; }
};

void AddProvenance(Json* j) {
  j->Str("build_type", PERFBENCH_BUILD_TYPE);
  j->Str("compiler", PERFBENCH_COMPILER);
  j->Num("nproc", double(std::thread::hardware_concurrency()));
}


void AddEndToEnd(Json* j, Workload w, const Window& win, double setup_s) {
  const WindowSummary sum =
      Summarize(win.samples, win.seconds, win.elapsed_s, WindowParts(w, win.seconds));
  Json e;
  e.Num("setup_s", setup_s);
  e.Num("ops_per_s", sum.ops_per_s);
  e.Num("latency_p50_ms", sum.p50_ms);
  e.Num("latency_p99_ms", sum.p99_ms);
  e.Num("error_rate", win.tally.error_rate());
  e.Num("peak_rss_mb", win.rss_mb);
  j->Raw("e2e", e.Done());
  Json t;
  t.Num("attempted", double(win.tally.attempted));
  t.Num("ok", double(win.tally.ok));
  t.Num("failed", double(win.tally.failed));
  t.Num("refused", double(win.tally.refused));
  t.Num("wrong", double(win.tally.wrong));
  t.Num("queries", double(win.queries));
  t.Num("distinct_instances", double(win.instances.size()));
  t.Num("latency_samples", double(win.samples.size()));
  t.Num("samples_beyond_p99", double(sum.min_beyond_p99));
  t.Num("rss_checkpoint_reached", win.rss_checkpoint_reached ? 1 : 0);
  t.Num("window_s", win.elapsed_s);
  t.Num("warmup_ops", double(win.warmup_ops));
  t.Num("cpu_steal_share", win.cpu_steal_share);
  j->Raw("tally", t.Done());
}

// One line per op, in issue order, for per-template analysis of a run.
void WriteOps(Workload w, const Window& win, const std::string& dir) {
  FILE* f = std::fopen((dir + "/ops.jsonl").c_str(), "w");
  if (f == nullptr) return;
  for (size_t i = 0; i < win.op_instance.size(); ++i) {
    const auto [qid, inst] = win.op_instance[i];
    std::fprintf(f, "{\"qid\":%llu,\"template\":\"%s\",\"latency_us\":%.3f,\"text\":\"%s\"}\n",
                 (unsigned long long)qid, StreamGenerator::TemplateName(w, win.op_template[i]),
                 win.samples[i].latency_us,
                 inst < 0 ? "" : JsonEscape(win.instances[size_t(inst)]).c_str());
  }
  std::fclose(f);
}

struct Args {
  Workload workload = Workload::kServedMix;
  uint64_t seed = 1;
  double seconds = 10;
  std::string mode = "plain";
  std::string data_dir;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      if (!ParseWorkload(v, &a.workload)) Die("unknown workload " + v);
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--mode") {
      if (v != "plain" && v != "traced" && v != "setup") Die("unknown mode " + v);
      a.mode = v;
    } else if (k == "--data-dir") {
      a.data_dir = v;
    } else {
      Die("unknown argument " + k);
    }
  }
  if (!have_workload || a.data_dir.empty() || !(a.seconds > 0)) {
    Die("usage: aql_perfbench --workload W --seed N --seconds S --mode plain|traced|setup "
        "--data-dir DIR");
  }
  return a;
}

// The stack and connected clients of a run, ready for its first op.
struct Prepared {
  std::unique_ptr<Stack> stack;
  std::vector<std::unique_ptr<HttpClient>> clients;
  double setup_s = 0;  // process start to ready
};

Prepared Prepare(const Args& a, int64_t process_start) {
  Prepared p;
  const bool http = a.workload == Workload::kServedMix;
  p.stack = BuildStack(a.workload, a.seed, a.data_dir, http);
  if (http) {
    for (int c = 0; c < ClientsFor(a.workload); ++c) {
      p.clients.push_back(HttpClient::Connect(p.stack->server->port()));
      if (!p.clients.back()) Die("connect failed");
    }
  }
  p.setup_s = double(NowNs() - process_start) / 1e9;
  return p;
}

// Issues ops through the public entry points: RunScript for writes,
// HttpServer for served_mix's queries, QueryService::Execute otherwise.
Executor PublicEntryPoints(Prepared* p) {
  const bool http = p->stack->server != nullptr;
  aql::service::QueryService* svc = p->stack->svc.get();
  return [p, http, svc](int c, const Op& op, Observed* result) -> Outcome {
    if (op.kind == Op::Kind::kWrite) {
      return svc->RunScript(op.text).ok() ? Outcome::kOk : Outcome::kFailed;
    }
    if (http) {
      HttpResponse resp;
      if (!p->clients[size_t(c)]->Post(op.text, "", &resp)) return Outcome::kFailed;
      result->body = std::move(resp.body);
      return ClassifyHttpStatus(resp.status);
    }
    Result<Value> r = svc->Execute(op.text);
    if (!r.ok()) {
      return r.status().code() == aql::StatusCode::kResourceExhausted ? Outcome::kRefused
                                                                       : Outcome::kFailed;
    }
    result->value = std::move(*r);
    return Outcome::kOk;
  };
}

// --mode setup: set up as a plain run would, report the time, exit;
// run.py repeats it to take a median set-up time.
int RunSetup(const Args& a, int64_t process_start) {
  Prepared p = Prepare(a, process_start);
  Json j;
  j.Str("workload", WorkloadName(a.workload));
  j.Str("mode", "setup");
  AddProvenance(&j);
  j.Num("setup_s", p.setup_s);
  j.Num("readval_ms", p.stack->readval_ms);
  std::printf("%s\n", j.Done().c_str());
  return 0;
}

int RunPlain(const Args& a, int64_t process_start) {
  const Workload w = a.workload;
  const bool http = w == Workload::kServedMix;
  Prepared prepared = Prepare(a, process_start);
  std::unique_ptr<Stack>& stack = prepared.stack;
  aql::service::QueryService* svc = stack->svc.get();
  Counters before;
  Window win = RunClosedLoop(w, a.seed, a.data_dir, a.seconds, *svc,
                             PublicEntryPoints(&prepared), [&] { before = Snapshot(svc); });
  const Counters after = Snapshot(svc);
  prepared.clients.clear();
  const uint64_t mismatched = CheckOracle(stack->sys.get(), &win, http);

  Json j;
  j.Str("workload", WorkloadName(w));
  j.Str("mode", "plain");
  AddProvenance(&j);
  AddEndToEnd(&j, w, win, prepared.setup_s);
  Json l;
  const double plan_lookups = double(after.plan_hits + after.plan_misses) -
                              double(before.plan_hits + before.plan_misses);
  l.Num("opt.fresh_plans", double(after.plan_misses - before.plan_misses));
  l.Num("service.plan_cache.hit_ratio", Ratio(double(after.plan_hits - before.plan_hits), plan_lookups));
  const double rc_hits = double(after.rc.hits + after.rc.subsumptions) -
                         double(before.rc.hits + before.rc.subsumptions);
  const double rc_lookups = rc_hits + double(after.rc.misses - before.rc.misses);
  l.Num("service.result_cache.hit_ratio", Ratio(rc_hits, rc_lookups));
  l.Num("service.result_cache.subsumed", double(after.rc.subsumptions - before.rc.subsumptions));
  l.Num("service.result_cache.invalidations", double(after.rc.invalidations - before.rc.invalidations));
  l.Num("service.system_lock.wait_us", double(after.system_wait_us - before.system_wait_us));
  l.Num("service.rejected", double(after.rejected - before.rejected));
  l.Num("net.refused", double(win.tally.refused));
  l.Num("exec.par_chunks", double(after.par_chunks - before.par_chunks));
  l.Num("exec.unboxed_arrays", double(after.unboxed - before.unboxed));
  l.Num("exec.unchecked_kernels", double(after.unchecked - before.unchecked));
  l.Num("exec.tab_pushdowns", double(after.pushdowns - before.pushdowns));
  const double tile_hits = double(after.tiles.hits - before.tiles.hits);
  const double tile_misses = double(after.tiles.misses - before.tiles.misses);
  l.Num("storage.tile.hit_ratio", Ratio(tile_hits, tile_hits + tile_misses));
  l.Num("storage.tile.misses", tile_misses);
  l.Num("storage.tile.evictions", double(after.tiles.evictions - before.tiles.evictions));
  l.Num("storage.tile.prunes", double(after.tiles.prunes - before.tiles.prunes));
  l.Num("storage.tile.zone_fills", double(after.tiles.zone_fills - before.tiles.zone_fills));
  l.Num("storage.tile_cache.wait_us", double(after.tile_wait_us - before.tile_wait_us));
  l.Num("io.readval_ms", stack->readval_ms);
  l.Num("stream.fresh_plan_share", Ratio(double(after.plan_misses - before.plan_misses),
                                         double(win.queries)));
  l.Num("storage.dataset_bytes", w == Workload::kTiledScan ? double(kTiledDatasetBytes) : 0);
  l.Num("storage.tile_budget_bytes",
        w == Workload::kTiledScan ? double(aql::storage::TileStore::Global().Budget()) : 0);
  j.Raw("layers", l.Done());
  WriteOps(w, win, a.data_dir);
  Json info;
  info.Num("oracle_mismatched_instances", double(mismatched));
  j.Raw("info", info.Done());
  std::printf("%s\n", j.Done().c_str());
  std::fflush(stdout);
  return mismatched == 0 && win.tally.errors() == 0 ? 0 : 1;
}

// ---- traced run ----

// Collects the spans src/ emits through obs::Tracer while the window
// runs. The tracer drops spans beyond Tracer::kMaxRecords, so a thread
// drains it every 100 ms; the spans are kept in memory until the end.
class SpanDrain {
 public:
  SpanDrain() = default;
  SpanDrain(const SpanDrain&) = delete;
  SpanDrain& operator=(const SpanDrain&) = delete;
  ~SpanDrain() {
    if (thread_.joinable()) Stop();
  }

  void Start() {
    aql::obs::Tracer& tracer = aql::obs::Tracer::Get();
    tracer.Drain();
    dropped_before_ = tracer.dropped();
    tracer.SetEnabled(true);
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mu_);
      while (!cv_.wait_for(lock, std::chrono::milliseconds(100), [this] { return stop_; })) {
        Take();
      }
    });
  }

  // Call after the last op was answered. The server closes its spans
  // just after the client has the answer, so those are waited for.
  std::vector<SpanRecord> Stop() {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    aql::obs::Tracer::Get().SetEnabled(false);
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    Take();
    return std::move(spans_);
  }

  uint64_t dropped() const { return aql::obs::Tracer::Get().dropped() - dropped_before_; }

 private:
  void Take() {
    for (aql::obs::SpanRecord& r : aql::obs::Tracer::Get().Drain()) {
      SpanRecord s;
      s.id = r.id;
      s.parent = r.parent_id;
      s.start_ns = int64_t(r.start_us) * 1000;
      s.end_ns = int64_t(r.start_us + r.dur_us) * 1000;
      if (r.name.rfind("opt.", 0) == 0) {
        for (const auto& [key, value] : r.counters) {
          if (key.rfind("rule_n/", 0) == 0) s.rule_firings += value;
          if (key == "nodes_out") s.nodes_out = int64_t(value);
        }
      }
      s.name = std::move(r.name);
      spans_.push_back(std::move(s));
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
  std::vector<SpanRecord> spans_;
  uint64_t dropped_before_ = 0;
};

// Per-call times of the two functions src/ has no span for, measured by
// the benchmark after the window on the window's own instances (tracer
// off): analysis::AnalyzePlan, once per distinct instance on the plan the
// optimizer makes of it, and ValueWriter over an op's answer (served_mix,
// whose answers the server renders), once per sampled op.
struct Untraced {
  std::vector<double> analysis_us, render_us, result_bytes;
};

Untraced TimeUntracedSteps(System* sys, const Window& win, bool render) {
  constexpr size_t kSamples = 400;
  Untraced out;
  std::vector<int64_t> distinct;
  std::set<int64_t> seen;
  for (const auto& [qid, inst] : win.op_instance) {
    if (inst >= 0 && seen.insert(inst).second) distinct.push_back(inst);
  }
  const size_t stride = std::max<size_t>(1, distinct.size() / kSamples);
  for (size_t i = 0; i < distinct.size(); i += stride) {
    const std::string& text = win.instances[size_t(distinct[i])];
    Result<aql::ExprPtr> core = sys->ParseToCore(text);
    if (!core.ok()) Die("re-parse: " + core.status().ToString());
    Result<aql::ExprPtr> resolved = sys->ResolveNames(*core);
    if (!resolved.ok()) Die("re-resolve: " + resolved.status().ToString());
    const aql::ExprPtr optimized = sys->Optimize(*resolved);
    const int64_t t0 = NowNs();
    aql::analysis::PlanFacts facts = aql::analysis::AnalyzePlan(optimized);
    out.analysis_us.push_back(double(NowNs() - t0) / 1e3);
  }
  if (!render) return out;
  const size_t op_stride = std::max<size_t>(1, win.op_instance.size() / kSamples);
  std::unordered_map<int64_t, Value> answers;
  for (size_t i = 0; i < win.op_instance.size(); i += op_stride) {
    const int64_t inst = win.op_instance[i].second;
    if (inst < 0 || !win.samples[i].ok) continue;
    auto it = answers.find(inst);
    if (it == answers.end()) {
      Result<Value> v = sys->Eval(win.instances[size_t(inst)]);
      if (!v.ok()) Die("re-evaluate: " + v.status().ToString());
      it = answers.emplace(inst, std::move(*v)).first;
    }
    aql::ValueWriter writer([](std::string_view) { return Status::OK(); },
                            aql::ValueFormat::kText);
    const int64_t t0 = NowNs();
    Check(writer.Write(it->second), "render");
    out.render_us.push_back(double(NowNs() - t0) / 1e3);
    out.result_bytes.push_back(double(writer.bytes_emitted()));
  }
  return out;
}

// HTTP round trip minus in-process QueryService::Execute for the same
// result-cache hit, in alternating pairs over the window's most-issued
// instances: the cost of the net layer for a query that costs the
// service almost nothing.
std::vector<double> NetOverheadUs(Prepared* p, const Window& win) {
  std::vector<std::pair<uint64_t, int64_t>> by_ops;
  for (size_t i = 0; i < win.observed.size(); ++i) {
    if (win.observed[i].ok_ops > 0) by_ops.emplace_back(win.observed[i].ok_ops, int64_t(i));
  }
  std::sort(by_ops.rbegin(), by_ops.rend());
  by_ops.resize(std::min<size_t>(by_ops.size(), 8));
  std::vector<double> diffs;
  for (int round = 0; round <= 40; ++round) {
    for (const auto& [ops, inst] : by_ops) {
      const std::string& text = win.instances[size_t(inst)];
      HttpResponse resp;
      const int64_t t0 = NowNs();
      if (!p->clients[0]->Post(text, "", &resp) || resp.status != 200) Die("net pair: HTTP");
      const int64_t t1 = NowNs();
      if (!p->stack->svc->Execute(text).ok()) Die("net pair: Execute");
      const int64_t t2 = NowNs();
      if (round > 0) diffs.push_back(double((t1 - t0) - (t2 - t1)) / 1e3);  // round 0 warms
    }
  }
  return diffs;
}

int RunTraced(const Args& a, int64_t process_start) {
  const Workload w = a.workload;
  const bool http = w == Workload::kServedMix;
  Prepared prepared = Prepare(a, process_start);
  System* sys = prepared.stack->sys.get();
  SpanDrain drain;
  Window win = RunClosedLoop(w, a.seed, a.data_dir, a.seconds, *prepared.stack->svc,
                             PublicEntryPoints(&prepared), [&] { drain.Start(); });
  std::vector<SpanRecord> spans = drain.Stop();
  const std::vector<double> net_us = http ? NetOverheadUs(&prepared, win) : std::vector<double>{};
  prepared.clients.clear();
  const uint64_t mismatched = CheckOracle(sys, &win, http);
  const Untraced untraced = TimeUntracedSteps(sys, win, http);

  LayerSplit split = SplitByLayer(&spans);
  // Per optimize call: the rules that fired and the size of the term the
  // last phase left.
  std::map<uint64_t, double> firings;
  std::map<uint64_t, std::pair<int64_t, double>> nodes;  // root -> (end, nodes)
  std::vector<double> service_us;
  double query_roots_us = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == "query" && s.root == s.id) {
      service_us.push_back(double(s.end_ns - s.start_ns) / 1e3);
      query_roots_us += service_us.back();
    }
    if (s.nodes_out < 0) continue;
    firings[s.root] += double(s.rule_firings);
    auto& [end, n] = nodes[s.root];
    if (s.end_ns >= end) end = s.end_ns, n = double(s.nodes_out);
  }
  std::vector<double> firings_per_call, nodes_per_call;
  for (const auto& [root, f] : firings) firings_per_call.push_back(f);
  for (const auto& [root, en] : nodes) nodes_per_call.push_back(en.second);

  // Shares of the traced time. The clients' wait outside the service's
  // query spans is the HTTP round trip (served_mix) or the service's
  // queueing (in-process); the server's http.* spans overlap the query
  // spans they wait on, so they are not added again. The service's share
  // is the query spans' self time: cache lookups and inserts, the system
  // lock, and analysis::AnalyzePlan, which has no span of its own.
  double client_query_us = 0;
  for (size_t i = 0; i < win.samples.size(); ++i) {
    if (win.op_template[i] >= 0) client_query_us += win.samples[i].latency_us;
  }
  const double outside = std::max(0.0, client_query_us - query_roots_us);
  auto total = [&](const char* layer) { return split.total_us[layer]; };
  const double front = total("surface") + total("env") + total("typecheck") + total("opt") +
                       total("exec.compile");
  const double exec_t = total("exec.run"), storage_t = total("storage");
  const double net_t = http ? outside : 0;
  const double service_t = total("service") + (http ? 0 : outside);
  const double all = front + exec_t + storage_t + net_t + service_t + total("other");

  Json j;
  j.Str("workload", WorkloadName(w));
  j.Str("mode", "traced");
  AddProvenance(&j);
  AddEndToEnd(&j, w, win, prepared.setup_s);
  Json l;
  l.Num("surface.parse_us", Median(split.per_root_us["surface"]));
  l.Num("env.resolve_us", Median(split.per_root_us["env"]));
  l.Num("typecheck.infer_us", Median(split.per_root_us["typecheck"]));
  l.Num("exec.compile_us", Median(split.per_root_us["exec.compile"]));
  l.Num("opt.optimize_us", Median(split.per_root_us["opt"]));
  l.Num("opt.rule_firings", Median(firings_per_call));
  l.Num("opt.plan_nodes", Median(nodes_per_call));
  l.Num("analysis.plan_facts_us", Median(untraced.analysis_us));
  l.Num("exec.run_us", Median(split.per_root_us["exec.run"]));
  l.Num("object.render_us", Median(untraced.render_us));
  l.Num("object.result_bytes", Median(untraced.result_bytes));
  l.Num("service.execute_us", Median(service_us));
  l.Num("net.roundtrip_overhead_us", Median(net_us));
  l.Num("trace.share.front_end", Ratio(front, all));
  l.Num("trace.share.exec", Ratio(exec_t, all));
  l.Num("trace.share.storage", Ratio(storage_t, all));
  l.Num("trace.share.net", Ratio(net_t, all));
  l.Num("trace.share.service", Ratio(service_t, all));
  l.Num("trace.spans", double(spans.size()));
  l.Num("trace.dropped_spans", double(drain.dropped()));
  j.Raw("layers", l.Done());
  Json info;
  info.Num("oracle_mismatched_instances", double(mismatched));
  j.Raw("info", info.Done());

  // Spans are kept in memory during the window and written out here.
  const std::string path = a.data_dir + "/spans.jsonl";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"root\":%llu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"self_ns\":%lld}\n",
                   (unsigned long long)s.id, (unsigned long long)s.parent,
                   (unsigned long long)s.root, JsonEscape(s.name).c_str(), (long long)s.start_ns,
                   (long long)s.end_ns, (long long)split.self_ns[i]);
    }
    std::fclose(f);
  }
  WriteOps(w, win, a.data_dir);
  std::printf("%s\n", j.Done().c_str());
  std::fflush(stdout);
  return mismatched == 0 && win.tally.errors() == 0 && drain.dropped() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Address-space randomization gives each process its own heap and
  // stack layout, and with it a few percent of its own speed; run with a
  // fixed layout so runs differ by their inputs, not by their addresses.
  // Where the kernel refuses, run as is.
  const int persona = personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(persona | ADDR_NO_RANDOMIZE) != -1) {
    execv("/proc/self/exe", argv);
  }
  const int64_t process_start = NowNs();
  Args a = ParseArgs(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(a.data_dir, ec);
  if (ec) Die("cannot create " + a.data_dir);
  // tiled_scan's storage configuration (docs/STORAGE.md knobs): a tile
  // cache far smaller than the data, and slabs of 64 KiB and up read as
  // tiled values.
  ::setenv("AQL_TILE_CACHE_BYTES", std::to_string(kTileCacheBytes).c_str(), 1);
  ::setenv("AQL_TILE_BYTES", std::to_string(kTileBytes).c_str(), 1);
  ::setenv("AQL_TILED_READ_THRESHOLD", "65536", 1);
  if (a.mode == "setup") return RunSetup(a, process_start);
  return a.mode == "traced" ? RunTraced(a, process_start) : RunPlain(a, process_start);
}
