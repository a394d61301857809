// Tests of the benchmark harness's own logic (harness.h).

#include "harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(double(i));
  return v;
}

TEST(Percentile, NearestRank) {
  std::vector<double> v = Iota(1000);
  EXPECT_EQ(Percentile(v, 50), 500);
  EXPECT_EQ(Percentile(v, 99), 990);
  EXPECT_EQ(Percentile(v, 100), 1000);
  EXPECT_EQ(Percentile(Iota(1), 99), 1);
}

TEST(Percentile, TenBeyondRule) {
  // p99 of n samples leaves n - ceil(0.99 n) beyond it.
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);  // the fewest samples p99 may use
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(SamplesBeyond(500, 99), 5u);
  EXPECT_EQ(SamplesBeyond(500, 95), 25u);
  EXPECT_EQ(SamplesBeyond(10000, 99.9), 10u);  // 99.9/100 is inexact in binary
  EXPECT_EQ(SamplesBeyond(0, 99), 0u);
}

TEST(Summarize, MediansOverPartsResistOneSlowPart) {
  // 3 parts of 1 s; part 1 runs 10x slower (outside load).
  std::vector<OpSample> ops;
  for (int k = 0; k < 3; ++k) {
    const int n = k == 1 ? 100 : 1000;
    for (int i = 0; i < n; ++i) {
      OpSample op;
      op.end_ns = int64_t(k) * 1000000000 + int64_t(i) * (1000000000 / n);
      op.latency_us = (k == 1 ? 10000.0 : 1000.0) + i % 100;
      ops.push_back(op);
    }
  }
  WindowSummary s = Summarize(ops, 3, 3, 3);
  EXPECT_DOUBLE_EQ(s.ops_per_s, 1000);
  EXPECT_DOUBLE_EQ(s.p50_ms, 1.049);
  EXPECT_DOUBLE_EQ(s.p99_ms, 1.098);
  EXPECT_EQ(s.min_beyond_p99, 1u);  // the slow part has too few samples
}

TEST(Summarize, FailuresCountAsSlowAndLateOpsJoinTheLastPart) {
  std::vector<OpSample> ops;
  for (int i = 0; i < 2000; ++i) {
    OpSample op;
    op.end_ns = int64_t(i) * 1000000;  // 2 s of completions in a 1.5 s window
    op.latency_us = 500;
    op.ok = i % 100 != 0;  // 1% failures
    ops.push_back(op);
  }
  WindowSummary s = Summarize(ops, 1.5, 2.0, 1);
  EXPECT_DOUBLE_EQ(s.ops_per_s, 1980 / 2.0);
  EXPECT_DOUBLE_EQ(s.p50_ms, 0.5);
  EXPECT_DOUBLE_EQ(s.p99_ms, 0.5);  // 20 failures are beyond p99's rank
  EXPECT_EQ(s.min_beyond_p99, 20u);
}

SpanRecord Span(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.name = std::to_string(id);
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SubtractsUnionOfChildren) {
  // net [0,100) > service [10,80) > {surface [10,20), exec [30,70) >
  // storage [40,50)}; render [80,95) under net; an overlapping pair of
  // children of exec's sibling counts once.
  std::vector<SpanRecord> spans = {
      Span(1, 0, 0, 100), Span(2, 1, 10, 80), Span(3, 2, 10, 20),
      Span(4, 2, 30, 70), Span(5, 4, 40, 50), Span(6, 1, 80, 95),
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 70 - 15);
  EXPECT_EQ(self[1], 70 - 10 - 40);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 10);
  EXPECT_EQ(self[5], 15);
}

TEST(SelfTime, OverlappingAndOverhangingChildren) {
  // Children on two threads overlap each other and overhang the parent.
  std::vector<SpanRecord> spans = {Span(1, 0, 100, 200), Span(2, 1, 90, 150),
                                   Span(3, 1, 120, 160), Span(4, 1, 190, 260)};
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 60 - 10);
}

SpanRecord Named(uint64_t id, uint64_t parent, const char* name, int64_t start_us,
                 int64_t end_us) {
  SpanRecord s = Span(id, parent, start_us * 1000, end_us * 1000);
  s.name = name;
  return s;
}

TEST(LayerSplit, SumsSelfTimePerLayerPerRoot) {
  // Query 1: parse and desugar (one ParseToCore call), optimize with two
  // phases, exec.run over a storage read. Query 2: a result-cache hit.
  // An HTTP request span on the connection thread is a root of its own.
  std::vector<SpanRecord> spans = {
      Named(1, 0, "query", 0, 100),         Named(2, 1, "parse", 0, 5),
      Named(3, 1, "desugar", 5, 8),         Named(4, 1, "optimize", 10, 40),
      Named(5, 4, "opt.normalize", 10, 25), Named(6, 4, "opt.cost", 25, 38),
      Named(7, 1, "exec.run", 50, 90),      Named(8, 7, "storage.tile_load", 60, 80),
      Named(9, 0, "query", 200, 220),       Named(10, 9, "parse", 200, 204),
      Named(11, 9, "desugar", 204, 206),    Named(12, 0, "http.POST /query", 195, 230),
  };
  // Children arrive before their parents, as the tracer emits them.
  std::reverse(spans.begin(), spans.end());
  LayerSplit split = SplitByLayer(&spans);
  EXPECT_EQ(split.per_root_us["surface"], (std::vector<double>{8, 6}));
  EXPECT_EQ(split.per_root_us["opt"], (std::vector<double>{30}));
  EXPECT_EQ(split.per_root_us["exec.run"], (std::vector<double>{20}));
  EXPECT_EQ(split.per_root_us["storage"], (std::vector<double>{20}));
  EXPECT_EQ(split.per_root_us["service"], (std::vector<double>{100 - 8 - 30 - 40, 20 - 6}));
  EXPECT_EQ(split.per_root_us["net"], (std::vector<double>{35}));
  EXPECT_DOUBLE_EQ(split.total_us["surface"], 14);
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.root, s.id <= 8 ? 1u : s.id <= 11 ? 9u : 12u) << s.name;
  }
}

TEST(LayerSplit, MissingParentMakesARoot) {
  std::vector<SpanRecord> spans = {Named(5, 4, "exec.run", 0, 10)};
  LayerSplit split = SplitByLayer(&spans);
  EXPECT_EQ(spans[0].root, 5u);
  EXPECT_EQ(split.per_root_us["exec.run"], (std::vector<double>{10}));
  EXPECT_EQ(LayerOf("io.write.COFILE"), "other");
  EXPECT_EQ(LayerOf("netcdf.read_slab"), "storage");
}

std::vector<std::string> Stream(Workload w, uint64_t seed, int n) {
  StreamGenerator gen(w, seed, "data");
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(gen.Next().text);
  return out;
}

TEST(Stream, SameSeedSameBytesOtherSeedOtherStream) {
  for (Workload w : {Workload::kServedMix, Workload::kSetGroupby, Workload::kTiledScan}) {
    SCOPED_TRACE(WorkloadName(w));
    EXPECT_EQ(Stream(w, 7, 3000), Stream(w, 7, 3000));
    EXPECT_NE(Stream(w, 7, 3000), Stream(w, 8, 3000));
  }
}

TEST(Stream, MixHasRepeatsFreshAndWrites) {
  StreamGenerator gen(Workload::kServedMix, 3, "data");
  int writes = 0, fresh = 0, repeats = 0;
  for (int i = 0; i < 5000; ++i) {
    Op op = gen.Next();
    if (op.kind == Op::Kind::kWrite) ++writes;
    else if (op.fresh) ++fresh;
    else ++repeats;
  }
  // Kinds are dealt in blocks of 100 with exact counts: 1 write and 15
  // new instances (10 fresh, 5 subslabs) per block, plus the popular
  // pools' first fills (12 templates x 5) taken from the repeats.
  EXPECT_EQ(PopularPool(12), 5);
  EXPECT_EQ(writes, 50);
  EXPECT_EQ(fresh, 750 + 12 * 5);
  EXPECT_EQ(repeats, 5000 - 50 - 750 - 12 * 5);
}

TEST(Stream, SetGroupbyNeverRepeats) {
  StreamGenerator gen(Workload::kSetGroupby, 5, "data");
  for (int i = 0; i < 3000; ++i) EXPECT_TRUE(gen.Next().fresh);
  EXPECT_EQ(gen.instances().size(), 3000u);
}

TEST(Outcome, RefusalsCountAsFailures) {
  EXPECT_EQ(ClassifyHttpStatus(200), Outcome::kOk);
  EXPECT_EQ(ClassifyHttpStatus(429), Outcome::kRefused);
  EXPECT_EQ(ClassifyHttpStatus(503), Outcome::kRefused);
  EXPECT_EQ(ClassifyHttpStatus(400), Outcome::kFailed);
  EXPECT_EQ(ClassifyHttpStatus(500), Outcome::kFailed);
  Tally t;
  t.Add(Outcome::kOk);
  t.Add(Outcome::kOk);
  t.Add(ClassifyHttpStatus(429));
  t.Add(ClassifyHttpStatus(503));
  t.Add(Outcome::kWrong);
  EXPECT_EQ(t.attempted, 5u);
  EXPECT_EQ(t.refused, 2u);
  EXPECT_EQ(t.errors(), 3u);
  EXPECT_DOUBLE_EQ(t.error_rate(), 0.6);
}

TEST(HttpResponse, ChunkedAndContentLength) {
  std::string chunked =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n";
  HttpResponse r;
  size_t used = 0;
  for (size_t cut = 0; cut < chunked.size(); ++cut) {
    EXPECT_EQ(ParseHttpResponse(chunked.substr(0, cut), &r, &used), 0) << cut;
  }
  ASSERT_EQ(ParseHttpResponse(chunked + "HTTP/1.1", &r, &used), 1);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "abcde");
  EXPECT_EQ(used, chunked.size());
  std::string refused = "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 5\r\n\r\nslow!";
  ASSERT_EQ(ParseHttpResponse(refused, &r, &used), 1);
  EXPECT_EQ(r.status, 429);
  EXPECT_EQ(r.body, "slow!");
  EXPECT_EQ(ParseHttpResponse("HTTP/1.1 2x0 OK\r\n\r\n", &r, &used), -1);
}

}  // namespace
}  // namespace perfbench
