#include "harness.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <unordered_map>
#include <utility>

namespace perfbench {

bool ParseWorkload(std::string_view name, Workload* out) {
  if (name == "served_mix") {
    *out = Workload::kServedMix;
  } else if (name == "set_groupby") {
    *out = Workload::kSetGroupby;
  } else if (name == "tiled_scan") {
    *out = Workload::kTiledScan;
  } else {
    return false;
  }
  return true;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kServedMix: return "served_mix";
    case Workload::kSetGroupby: return "set_groupby";
    case Workload::kTiledScan: return "tiled_scan";
  }
  return "?";
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t ZipfRank(uint64_t n, double u) {
  if (n <= 1) return 0;
  double r = std::floor(std::pow(double(n) + 1.0, u)) - 1.0;
  if (r < 0) r = 0;
  return std::min<uint64_t>(uint64_t(r), n - 1);
}

// Each mix, and what it rests on. Nothing in the repository records real
// AQL traffic, so the proportions are assumptions, chosen as follows.
//  - served_mix: one template per query shape of examples/scripts/tour.aql
//    and the §4.2 session, weighted equally because the tour issues each
//    shape once. The split of 84 repeats, 10 new instances, 5 new subslab
//    windows and 1 write per 100 ops is assumed: an analyst mostly re-runs
//    and pages through queries already on screen. The popular set is
//    sized against the plan cache (PopularPool).
//  - set_groupby: unseen queries only. Per turn of 33, each of the eight
//    E2/E8/E13 and cartesian/summap templates is dealt four times and the
//    large nest once, so that p99 falls inside that one template's
//    latencies rather than on the edge between two templates, where a
//    small shift moves it far.
//  - tiled_scan: the §1 heat-wave query (E9) weighted 6 against 1 for each
//    of window, aggregate and column reads, so p50 falls inside the
//    heat-wave repeats, and 5 new instances per 100 ops, each a fresh
//    plan that pays plan analysis. Two of the five are heat-wave queries,
//    the slowest fresh plans, so p99 falls in the middle of their
//    latencies rather than at their low edge, next to the other fresh
//    plans, which cost a third as much.
// The weights that place p50 and p99 are choices for metric stability,
// not measurements of traffic.
StreamMix MixFor(Workload w) {
  switch (w) {
    case Workload::kServedMix:
      return {1, 10, 5, std::vector<int>(12, 1), PopularPool(12)};
    case Workload::kSetGroupby:
      return {0, 100, 0, {}, 0, {4, 4, 4, 4, 4, 4, 4, 4, 1}};
    case Workload::kTiledScan: return {0, 5, 0, {1, 1, 1, 6}, PopularPool(4), {1, 1, 1, 2}};
  }
  return {};
}

namespace {

std::string U(uint64_t v) { return std::to_string(v); }

const char* const kServedNames[] = {"join",  "nest",      "index", "tabulate",
                                    "zip",   "hist_fast", "slab",  "transpose",
                                    "block", "rank",      "window_sum", "subslab"};
constexpr int kServedSlab = 6, kServedSubslab = 11;
const char* const kGroupbyNames[] = {"nest", "nest_count", "index",     "hist",      "hist_fast",
                                     "rank", "cartesian",  "summap_gen", "nest_large"};
const char* const kTiledNames[] = {"window", "aggregate", "column", "heatwave"};

}  // namespace

int StreamGenerator::NumTemplates(Workload w) {
  switch (w) {
    case Workload::kServedMix: return int(std::size(kServedNames));
    case Workload::kSetGroupby: return int(std::size(kGroupbyNames));
    case Workload::kTiledScan: return int(std::size(kTiledNames));
  }
  return 0;
}

const char* StreamGenerator::TemplateName(Workload w, int tmpl) {
  if (tmpl < 0 || tmpl >= NumTemplates(w)) return "write";
  switch (w) {
    case Workload::kServedMix: return kServedNames[tmpl];
    case Workload::kSetGroupby: return kGroupbyNames[tmpl];
    case Workload::kTiledScan: return kTiledNames[tmpl];
  }
  return "?";
}

StreamGenerator::StreamGenerator(Workload w, uint64_t seed, std::string write_dir)
    : workload_(w),
      mix_(MixFor(w)),
      rng_(seed * 0x2545f4914f6cdd1dull + uint64_t(w) + 1),
      write_dir_(std::move(write_dir)),
      popular_(size_t(NumTemplates(w))) {
  const int repeats = StreamMix::kBlock - mix_.writes - mix_.fresh - mix_.subslab;
  for (auto [kind, n] : {std::pair{Kind::kWrite, mix_.writes}, std::pair{Kind::kFresh, mix_.fresh},
                         std::pair{Kind::kSubslab, mix_.subslab},
                         std::pair{Kind::kRepeat, repeats}}) {
    block_pattern_.insert(block_pattern_.end(), size_t(n), int(kind));
  }
  // Fresh instances: every real template (not the subslab one) by weight.
  const int real = w == Workload::kServedMix ? kServedSubslab : NumTemplates(w);
  for (int t = 0; t < real; ++t) {
    const int weight = mix_.fresh_weights.empty() ? 1 : mix_.fresh_weights[size_t(t)];
    fresh_pattern_.insert(fresh_pattern_.end(), size_t(weight), t);
  }
  for (size_t t = 0; t < mix_.repeat_weights.size(); ++t) {
    repeat_pattern_.insert(repeat_pattern_.end(), size_t(mix_.repeat_weights[t]), int(t));
  }
}

int StreamGenerator::Deal(std::vector<int>* cycle, const std::vector<int>& pattern) {
  if (cycle->empty()) {
    *cycle = pattern;
    for (size_t i = cycle->size(); i > 1; --i) {
      std::swap((*cycle)[i - 1], (*cycle)[rng_.Below(i)]);
    }
  }
  int v = cycle->back();
  cycle->pop_back();
  return v;
}

// The vals each template reads are bound by main.cc's set-up; their
// extents (A and B of length 256, M 32x32, Hv 1000, Fv 8000, the weather
// grids of harness.h) bound the parameters drawn here. Parameters are
// offsets and added constants, never selectivities or sizes, so every
// instance of a template costs about the same whatever the seed. Every
// template has far more distinct instances than a run of a minute draws.
std::string StreamGenerator::Instantiate(int tmpl) {
  Rng& r = rng_;
  switch (workload_) {
    case Workload::kServedMix:
      switch (tmpl) {
        case 0: return "{ (k, v + " + U(r.Below(1000000)) +
                       ", b) | (\\k, \\v) <- R, (k, \\b) <- S }";
        case 1: return "nest!{ (k, v + " + U(r.Below(1000000)) + ") | (\\k, \\v) <- R }";
        case 2: return "index!{ (k, v + " + U(r.Below(1000000)) + ") | (\\k, \\v) <- R }";
        case 3: return "[[ A[i] * A[i] + " + U(r.Below(1000000)) + " | \\i < len!A ]]";
        case 4: {
          uint64_t p = r.Below(224), q = r.Below(224);
          return "zip!(subseq!(A, " + U(p) + ", " + U(p + 31) + "), subseq!(B, " + U(q) +
                 ", " + U(q + 31) + "))";
        }
        case 5: {
          uint64_t p = r.Below(256 - 48);
          return "maparr!(fn \\c => c + " + U(r.Below(1000000)) + ", hist_fast!(subseq!(A, " +
                 U(p) + ", " + U(p + 47) + ")))";
        }
        case kServedSlab:
          return "[[ M[i, j] + " + U(r.Below(1000000)) + " | \\i < 32, \\j < 32 ]]";
        case 7: return "transpose!([[ M[i, j] * " + U(1 + r.Below(1000000)) +
                       " | \\i < 32, \\j < 32 ]])";
        case 8: return "let val \\sq = [[ A[i] * " + U(1 + r.Below(1000000)) +
                       " | \\i < 64 ]] val \\tot = summap(fn \\i => sq[i])!(dom!sq) in "
                       "(tot, arrmax!sq) end";
        case 9: return "rank!{ x + " + U(r.Below(1000000)) + " | \\x <- X }";
        case 10: {
          uint64_t p = r.Below(256 - 48);
          return "maparr!(fn \\s => s + " + U(r.Below(1000000)) + ", window_sum!(subseq!(B, " +
                 U(p) + ", " + U(p + 47) + "), 4))";
        }
      }
      break;
    case Workload::kSetGroupby:
      switch (tmpl) {
        case 0: return "nest!{ (k, v + " + U(r.Below(1000000)) + ") | (\\k, \\v) <- Rel }";
        case 1: return "{ (k, card!g) | (\\k, \\g) <- nest!{ (k + " + U(r.Below(1000000)) +
                       ", v) | (\\k, \\v) <- Rel } }";
        case 2: return "maparr!(fn \\s => card!s, index!{ (k, v + " + U(r.Below(1000000)) +
                       ") | (\\k, \\v) <- Big })";
        case 3: {
          uint64_t w = 140 + r.Below(4), p = r.Below(1000 - w);
          return "hist!(subseq!(Hv, " + U(p) + ", " + U(p + w - 1) + "))";
        }
        case 4: {
          uint64_t p = r.Below(8000 - 2800);
          return "hist_fast!(subseq!(Fv, " + U(p) + ", " + U(p + 2799) + "))";
        }
        case 5: return "rank!{ x + " + U(r.Below(1000000)) + " | \\x <- Sv }";
        case 6: return "card!{ (x + " + U(r.Below(1000000)) +
                       ", y) | \\x <- Sv, \\y <- Tv, x < y }";
        case 7: {
          std::string p = U(r.Below(1000000));
          return "summap(fn \\i => (i + " + p + ") * (i + " + p + "))!(gen!17000)";
        }
        case 8: return "nest!{ (k, v + " + U(r.Below(1000000)) + ") | (\\k, \\v) <- Large }";
      }
      break;
    case Workload::kTiledScan: {
      constexpr uint64_t kHours = kTiledDays * 24, kCells = kTiledCells;
      const std::string cells = U(kCells);
      switch (tmpl) {
        case 0: return "[[ T[(h + " + U(r.Below(kHours - 24)) + ", i, j)] | \\h < 24, \\i < " +
                       cells + ", \\j < " + cells + " ]]";
        case 1: return "summap(fn \\h => summap(fn \\i => summap(fn \\j => T[(h + " +
                       U(r.Below(kHours - 24)) + ", i, j)])!(gen!" + cells + "))!(gen!" +
                       cells + "))!(gen!24)";
        case 2: return "[[ RH[(h + " + U(r.Below(kHours - 168)) + ", " + U(r.Below(kCells)) +
                       ", " + U(r.Below(kCells)) + ")] | \\h < 168 ]]";
        case 3: {
          // The §1 heat-wave query over one week at one cell.
          uint64_t t0 = 24 * r.Below(kHours / 24 - 7);
          std::string i = U(r.Below(kCells)), j = U(r.Below(kCells));
          return "{ d | \\d <- gen!7, \\WS' == evenpos!([[ WS[(t + " + U(2 * t0) + ", 0, " +
                 i + ", " + j + ")] | \\t < 336 ]]), \\TRW == zip_3!([[ T[(h + " + U(t0) +
                 ", " + i + ", " + j + ")] | \\h < 168 ]], [[ RH[(h + " + U(t0) + ", " + i +
                 ", " + j + ")] | \\h < 168 ]], WS'), \\A == subseq!(TRW, d * 24, d * 24 + "
                 "23), heatindex!A > 75.0 }";
        }
      }
      break;
    }
  }
  std::fprintf(stderr, "perfbench: no template %d\n", tmpl);
  std::abort();
}

bool StreamGenerator::warmed() const {
  for (size_t t = 0; t < mix_.repeat_weights.size(); ++t) {
    if (mix_.repeat_weights[t] > 0 && popular_[t].size() < size_t(mix_.pool)) return false;
  }
  return true;
}

Op StreamGenerator::Emit(int tmpl, std::string text, bool popular) {
  Op op;
  op.kind = Op::Kind::kQuery;
  op.text = std::move(text);
  op.instance = int64_t(texts_.size());
  op.fresh = true;
  op.tmpl = tmpl;
  seen_.insert(op.text);
  texts_.push_back(op.text);
  if (popular) popular_[size_t(tmpl)].push_back(op.instance);
  return op;
}

Op StreamGenerator::NewInstance(int tmpl, bool popular) {
  for (int attempt = 0; attempt < 10000; ++attempt) {
    std::string text = Instantiate(tmpl);
    if (!seen_.count(text)) return Emit(tmpl, std::move(text), popular);
  }
  std::fprintf(stderr, "perfbench: template %s has no unseen instance left\n",
               TemplateName(workload_, tmpl));
  std::abort();
}

// [[ (S)[i + a, j + b] | \i < m, \j < n ]], 6 <= m, n <= 10: the result
// cache answers it by slicing S when S is cached (docs/CACHING.md,
// subsumption). The popular slabs give about 78k distinct windows.
Op StreamGenerator::NewSubslab(bool popular) {
  const std::vector<int64_t>& slabs = popular_[kServedSlab];
  if (slabs.empty()) return NewInstance(kServedSlab, popular);
  for (int attempt = 0; attempt < 10000; ++attempt) {
    const std::string& base = texts_[size_t(slabs[ZipfRank(slabs.size(), rng_.Unit())])];
    uint64_t m = 6 + rng_.Below(5), n = 6 + rng_.Below(5);
    uint64_t a = rng_.Below(32 - m + 1), b = rng_.Below(32 - n + 1);
    std::string text = "[[ (" + base + ")[i + " + U(a) + ", j + " + U(b) + "] | \\i < " +
                       U(m) + ", \\j < " + U(n) + " ]]";
    if (!seen_.count(text)) return Emit(kServedSubslab, std::move(text), popular);
  }
  std::fprintf(stderr, "perfbench: no unseen subslab left\n");
  std::abort();
}

Op StreamGenerator::Next() {
  switch (Kind(Deal(&block_, block_pattern_))) {
    case Kind::kWrite: {
      Op op;
      op.kind = Op::Kind::kWrite;
      op.text = "writeval X using COFILE at \"" + write_dir_ + "/write" + U(writes_++ % 4) +
                ".co\";";
      return op;
    }
    case Kind::kFresh:
      return NewInstance(Deal(&fresh_cycle_, fresh_pattern_), false);
    case Kind::kSubslab:
      return NewSubslab(false);
    case Kind::kRepeat:
      break;
  }
  const int tmpl = Deal(&repeat_cycle_, repeat_pattern_);
  const std::vector<int64_t>& pool = popular_[size_t(tmpl)];
  if (pool.size() < size_t(mix_.pool)) {
    return workload_ == Workload::kServedMix && tmpl == kServedSubslab ? NewSubslab(true)
                                                                       : NewInstance(tmpl, true);
  }
  Op op;
  op.instance = pool[ZipfRank(pool.size(), rng_.Unit())];
  op.text = texts_[size_t(op.instance)];
  op.tmpl = tmpl;
  return op;
}

// ---- statistics ----

namespace {

// 1-based nearest rank ceil(q/100 * n), in [1, n]. The small slack keeps
// 99.9% of 10000 at rank 9990 despite 99.9/100 not being exact in binary.
size_t NearestRank(size_t n, double q) {
  size_t rank = size_t(std::ceil(q / 100.0 * double(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[NearestRank(sorted.size(), q) - 1];
}

size_t SamplesBeyond(size_t n, double q) { return n == 0 ? 0 : n - NearestRank(n, q); }

WindowSummary Summarize(const std::vector<OpSample>& ops, double seconds, double elapsed_s,
                        int parts) {
  WindowSummary out;
  if (parts < 1 || seconds <= 0) return out;
  const double part_s = seconds / parts;
  std::vector<std::vector<double>> lat{size_t(parts)};
  std::vector<uint64_t> ok(size_t(parts), 0);
  for (const OpSample& op : ops) {
    size_t k = size_t(std::clamp<int64_t>(int64_t(double(op.end_ns) / 1e9 / part_s), 0, parts - 1));
    lat[k].push_back(op.ok ? op.latency_us : INFINITY);
    if (op.ok) ++ok[k];
  }
  std::vector<double> rate, p50, p99;
  out.min_beyond_p99 = SIZE_MAX;
  for (size_t k = 0; k < size_t(parts); ++k) {
    double len = k + 1 == size_t(parts) ? std::max(elapsed_s - part_s * double(k), part_s) : part_s;
    std::sort(lat[k].begin(), lat[k].end());
    rate.push_back(double(ok[k]) / len);
    p50.push_back(Percentile(lat[k], 50) / 1e3);
    p99.push_back(Percentile(lat[k], 99) / 1e3);
    out.min_beyond_p99 = std::min(out.min_beyond_p99, SamplesBeyond(lat[k].size(), 99));
  }
  out.ops_per_s = Median(rate);
  out.p50_ms = Median(p50);
  out.p99_ms = Median(p99);
  return out;
}

Outcome ClassifyHttpStatus(int status) {
  if (status >= 200 && status < 300) return Outcome::kOk;
  if (status == 429 || status == 503) return Outcome::kRefused;
  return Outcome::kFailed;
}

void Tally::Add(Outcome o) {
  ++attempted;
  switch (o) {
    case Outcome::kOk: ++ok; break;
    case Outcome::kFailed: ++failed; break;
    case Outcome::kRefused: ++refused; break;
    case Outcome::kWrong: ++wrong; break;
  }
}

// ---- spans ----

std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    auto it = by_id.find(s.parent);
    if (s.parent != 0 && it != by_id.end()) {
      children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::string LayerOf(std::string_view n) {
  auto starts = [n](std::string_view p) { return n.substr(0, p.size()) == p; };
  if (n == "parse" || n == "desugar") return "surface";
  if (n == "resolve") return "env";
  if (n == "typecheck") return "typecheck";
  if (n == "optimize" || starts("opt.")) return "opt";
  if (n == "exec.compile") return "exec.compile";
  if (n == "exec.run" || n == "exec.parallel_for") return "exec.run";
  if (starts("storage.") || starts("netcdf.") || starts("io.read.")) return "storage";
  if (n == "query") return "service";
  if (starts("http.")) return "net";
  return "other";
}

LayerSplit SplitByLayer(std::vector<SpanRecord>* spans) {
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans->size(); ++i) by_id[(*spans)[i].id] = i;
  // A span whose parent is missing (it ended outside the traced window)
  // is a root.
  auto root_of = [&](size_t i) {
    std::vector<size_t> path;
    for (;;) {
      SpanRecord& s = (*spans)[i];
      if (s.root != 0) break;
      path.push_back(i);
      auto it = by_id.find(s.parent);
      if (s.parent == 0 || it == by_id.end()) {
        s.root = s.id;
        break;
      }
      i = it->second;
    }
    const uint64_t root = (*spans)[i].root;
    for (size_t j : path) (*spans)[j].root = root;
    return root;
  };
  LayerSplit out;
  out.self_ns = SelfTimesNs(*spans);
  std::map<uint64_t, std::map<std::string, double>> by_root;
  for (size_t i = 0; i < spans->size(); ++i) {
    const std::string layer = LayerOf((*spans)[i].name);
    const double us = double(out.self_ns[i]) / 1e3;
    by_root[root_of(i)][layer] += us;
    out.total_us[layer] += us;
  }
  for (const auto& [root, layers] : by_root) {
    for (const auto& [layer, us] : layers) out.per_root_us[layer].push_back(us);
  }
  return out;
}

// ---- HTTP response framing ----

namespace {

bool ParseHex(std::string_view s, size_t* out) {
  size_t v = 0;
  if (s.empty()) return false;
  for (char c : s) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else if (c == ';' || c == ' ') break;  // chunk extensions
    else return false;
    if (v > (SIZE_MAX >> 4)) return false;
    v = v * 16 + size_t(d);
  }
  *out = v;
  return true;
}

std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = char(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace

int ParseHttpResponse(std::string_view buf, HttpResponse* out, size_t* consumed) {
  size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return 0;
  std::string_view head = buf.substr(0, head_end);
  size_t line_end = head.find("\r\n");
  std::string_view status_line = head.substr(0, line_end);
  // "HTTP/1.1 200 OK"
  size_t sp = status_line.find(' ');
  if (sp == std::string_view::npos || status_line.size() < sp + 4) return -1;
  int status = 0;
  for (size_t i = sp + 1; i < sp + 4; ++i) {
    char c = status_line[i];
    if (c < '0' || c > '9') return -1;
    status = status * 10 + (c - '0');
  }
  bool chunked = false;
  size_t content_length = 0;
  bool has_length = false;
  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t e = head.find("\r\n", pos);
    if (e == std::string_view::npos) e = head.size();
    std::string_view line = head.substr(pos, e - pos);
    size_t colon = line.find(':');
    if (colon != std::string_view::npos) {
      std::string key = Lower(line.substr(0, colon));
      std::string_view value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      if (key == "transfer-encoding" && Lower(value).find("chunked") != std::string::npos) {
        chunked = true;
      } else if (key == "content-length") {
        size_t v = 0;
        for (char c : value) {
          if (c < '0' || c > '9') return -1;
          if (v > SIZE_MAX / 10 - 10) return -1;
          v = v * 10 + size_t(c - '0');
        }
        content_length = v;
        has_length = true;
      }
    }
    pos = e + 2;
  }
  size_t body_pos = head_end + 4;
  std::string body;
  if (chunked) {
    size_t p = body_pos;
    for (;;) {
      size_t e = buf.find("\r\n", p);
      if (e == std::string_view::npos) return 0;
      size_t n = 0;
      if (!ParseHex(buf.substr(p, e - p), &n)) return -1;
      p = e + 2;
      if (n == 0) {
        // No trailers are sent by the server: the final CRLF follows.
        if (buf.size() < p + 2) return 0;
        if (buf.substr(p, 2) != "\r\n") return -1;
        p += 2;
        break;
      }
      if (buf.size() < p + n + 2) return 0;
      body.append(buf.substr(p, n));
      if (buf.substr(p + n, 2) != "\r\n") return -1;
      p += n + 2;
    }
    *consumed = p;
  } else {
    if (!has_length) content_length = 0;
    if (buf.size() < body_pos + content_length) return 0;
    body.assign(buf.substr(body_pos, content_length));
    *consumed = body_pos + content_length;
  }
  out->status = status;
  out->body = std::move(body);
  return 1;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace perfbench
