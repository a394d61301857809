// Harness logic of the AQL end-to-end benchmark that does not depend on a
// running system: seeded query streams, latency percentiles, span self
// times, outcome accounting and HTTP response framing. Kept apart from
// main.cc so harness_test.cc can check each piece on its own.

#ifndef AQL_PERFBENCH_HARNESS_H_
#define AQL_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---- workloads and their query streams ----

enum class Workload { kServedMix, kSetGroupby, kTiledScan };

// tiled_scan's weather grids: hourly T and RH, half-hourly WS at one
// altitude, on kTiledCells x kTiledCells cells.
constexpr uint64_t kTiledDays = 20, kTiledCells = 6, kTiledAlts = 1;

bool ParseWorkload(std::string_view name, Workload* out);
const char* WorkloadName(Workload w);

// splitmix64: the stream must be byte-identical for a seed on every
// platform, so no std:: distribution is used anywhere in generation.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  double Unit() { return double(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// Zipf(s = 1) rank in [0, n) for a uniform u in [0, 1): rank 0 is the
// most popular. Inverse of the continuous CDF ln(r + 1) / ln(n + 1).
uint64_t ZipfRank(uint64_t n, double u);

struct Op {
  enum class Kind { kQuery, kWrite };
  Kind kind = Kind::kQuery;
  std::string text;    // AQL expression (query) or statement (write)
  int64_t instance = -1;  // distinct query instance id; -1 for writes
  bool fresh = false;  // first occurrence of this instance in the stream
  int tmpl = -1;       // template index, for per-template reporting
};

// Composition of one workload's stream. Kinds are dealt in blocks of
// kBlock ops with exact counts, templates in shuffled cycles with exact
// weights, so two seeds differ in which instances they draw but not in
// how much of each kind of work they do.
struct StreamMix {
  static constexpr int kBlock = 100;
  int writes = 0;   // writeval statements per block
  int fresh = 0;    // new instances per block, templates by fresh_weights
  int subslab = 0;  // new windows into an earlier slab instance per block
  // The rest of the block repeats a popular instance: the template by
  // these weights (index = template id), the instance Zipf-skewed over the
  // template's first `pool` instances. New instances beyond the pool are
  // one-offs, so the mix is the same at any run length.
  std::vector<int> repeat_weights;
  int pool = 0;  // PopularPool(repeat_weights.size())
  // Template weights of new instances; empty means every query template
  // once per turn.
  std::vector<int> fresh_weights = {};
};

// Plans the query service keeps (ServiceConfig::plan_cache_capacity;
// main.cc checks that the two agree).
constexpr int kPlanCacheCapacity = 128;

// Popular instances per repeated template: together they fill half the
// plan cache, so the other half holds one-offs and a plan is compiled
// again only when the stream brings a new instance, not because the
// popular set outgrew the cache.
constexpr int PopularPool(int repeated_templates) {
  return kPlanCacheCapacity / (2 * repeated_templates);
}

StreamMix MixFor(Workload w);

// Deterministic op stream: op k is a function of (workload, seed, k) only.
class StreamGenerator {
 public:
  // `write_dir` is where served_mix's writeval statements put their files.
  StreamGenerator(Workload w, uint64_t seed, std::string write_dir = ".");

  Op Next();

  // True once every repeated template's popular pool is full: from here
  // on the stream's composition no longer changes.
  bool warmed() const;

  // Text of every distinct query instance issued so far, by instance id.
  const std::vector<std::string>& instances() const { return texts_; }
  // Query templates, plus served_mix's "subslab" pseudo-template.
  static int NumTemplates(Workload w);
  static const char* TemplateName(Workload w, int tmpl);

 private:
  enum class Kind { kWrite, kFresh, kSubslab, kRepeat };

  Op NewInstance(int tmpl, bool popular);
  Op NewSubslab(bool popular);
  Op Emit(int tmpl, std::string text, bool popular);
  std::string Instantiate(int tmpl);
  // Next entry of a cycle, refilled from `pattern` and shuffled when empty.
  int Deal(std::vector<int>* cycle, const std::vector<int>& pattern);

  Workload workload_;
  StreamMix mix_;
  Rng rng_;
  std::string write_dir_;
  uint64_t writes_ = 0;
  std::vector<int> block_pattern_, block_;
  std::vector<int> fresh_pattern_, fresh_cycle_;
  std::vector<int> repeat_pattern_, repeat_cycle_;
  std::vector<std::string> texts_;
  std::vector<std::vector<int64_t>> popular_;  // by template
  std::set<std::string> seen_;
};

// ---- latency statistics ----

// Nearest-rank percentile (q in (0, 100]) of `sorted`: the value at
// 1-based rank ceil(q/100 * n).
double Percentile(const std::vector<double>& sorted, double q);

// Samples strictly beyond the q-th percentile's rank. The benchmark only
// reports a percentile with at least ten samples beyond it.
size_t SamplesBeyond(size_t n, double q);

// One measured op: when it completed (ns after the window opened), how
// long it took, and whether it succeeded.
struct OpSample {
  int64_t end_ns = 0;
  double latency_us = 0;
  bool ok = true;
};

// End-to-end figures of a window, taken as medians over `parts` equal
// sub-windows (by completion time), so a burst of outside load in one
// part does not move them. The last part also takes the ops that were
// issued before the deadline and finished after it. A failed op counts
// as infinitely slow.
struct WindowSummary {
  double ops_per_s = 0;  // successful ops per second
  double p50_ms = 0;
  double p99_ms = 0;
  size_t min_beyond_p99 = 0;  // over the parts: the ten-beyond check
};
WindowSummary Summarize(const std::vector<OpSample>& ops, double seconds, double elapsed_s,
                        int parts);

// ---- outcome accounting ----

enum class Outcome { kOk, kFailed, kRefused, kWrong };

// HTTP status to outcome: 2xx ok; 429 and 503 refused; anything else failed.
Outcome ClassifyHttpStatus(int status);

struct Tally {
  uint64_t attempted = 0, ok = 0, failed = 0, refused = 0, wrong = 0;
  void Add(Outcome o);
  // Failures, refusals and wrong results all count against the run.
  uint64_t errors() const { return failed + refused + wrong; }
  double error_rate() const { return attempted == 0 ? 0 : double(errors()) / attempted; }
};

// ---- spans ----

// One finished span of the traced run, from the obs::Tracer spans src/
// emits. Times are on the tracer's clock.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root (no enclosing span on its thread)
  uint64_t root = 0;    // id of the span's root, filled by SplitByLayer
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t rule_firings = 0;  // opt.<phase> spans: the rule_n/* counters
  int64_t nodes_out = -1;     // opt.<phase> spans: term size after the phase
};

// Self time of each span (ns): its duration minus the union of its
// children's intervals clipped to it. Children may run on other threads.
std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

// The layer a src span name belongs to: "surface" (parse, desugar), "env"
// (resolve), "typecheck", "opt" (optimize, opt.*), "exec.compile",
// "exec.run" (exec.run, exec.parallel_for), "storage" (storage.*,
// netcdf.*, io.read.*), "service" (query: QueryService::RunQuery), "net"
// (http.*), and "other" for the rest.
std::string LayerOf(std::string_view span_name);

// Self times summed per layer, per root span (one query, one HTTP
// request or one statement) and over all spans. A root's layer time is
// the self time of every span of that layer under it, so a layer call
// with children in the same layer (optimize and its phases) counts once,
// and children of another layer (storage reads under exec.run) are not
// charged to it. Fills each span's `root`.
struct LayerSplit {
  // layer -> one value (µs) per root that has spans of that layer.
  std::map<std::string, std::vector<double>> per_root_us;
  std::map<std::string, double> total_us;  // layer -> summed self time (µs)
  std::vector<int64_t> self_ns;            // SelfTimesNs, by span
};
LayerSplit SplitByLayer(std::vector<SpanRecord>* spans);

// ---- HTTP response framing (client side) ----

struct HttpResponse {
  int status = 0;
  std::string body;
};

// Parses one complete response from the front of `buffer`. Returns 1 and
// sets *consumed when a whole response is present, 0 when more bytes are
// needed, -1 on malformed input. Handles Content-Length and chunked bodies.
int ParseHttpResponse(std::string_view buffer, HttpResponse* out, size_t* consumed);

// ---- small helpers ----

double Median(std::vector<double> v);
std::string JsonEscape(std::string_view s);

}  // namespace perfbench

#endif  // AQL_PERFBENCH_HARNESS_H_
