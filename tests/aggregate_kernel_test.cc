// Differential tests for the compiled backend's aggregate fast paths
// (docs/EXEC.md §3 and §7): Sums folded by typed kernels, standalone or
// inside a tabulation kernel, and index_k filled straight from its
// comprehension through the index sink. Each query must return exactly
// what the tree-walking evaluator returns — the same value, the same ⊥,
// or an error of the same code — around the edges these paths
// special-case: nat wrap-around and real fold order, empty sources, ⊥
// inside the fold, set sources (one holding a non-nat), a Sum in a loop
// that stays generic, a deadline in the middle of a fold, and, for the
// sink, duplicate and unordered pairs, values <_t cannot order strictly,
// keys without an extent, volumes over the cap, rank-2 keys and empty
// sources.
//
// Every test runs at AQL_EXEC_THREADS=1 and =4, with
// AQL_EXEC_PAR_THRESHOLD=1 so every loop of the 4-thread run is chunked,
// and every comparison runs with the unchecked kernels on and off.

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/cancel.h"
#include "env/system.h"
#include "eval/evaluator.h"
#include "exec/compiled.h"
#include "exec/parallel.h"
#include "gtest/gtest.h"
#include "service/service.h"

namespace aql {
namespace {

using service::QueryOptions;
using service::QueryService;

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value.c_str(), /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

Value NatVector(std::vector<uint64_t> xs) {
  std::vector<Value> elems;
  for (uint64_t x : xs) elems.push_back(Value::Nat(x));
  return Value::MakeVector(std::move(elems));
}

class AggregateKernelTest : public ::testing::TestWithParam<int> {
 protected:
  AggregateKernelTest()
      : threads_("AQL_EXEC_THREADS", std::to_string(GetParam())),
        threshold_("AQL_EXEC_PAR_THRESHOLD", "1") {
    std::vector<uint64_t> a, sv;
    for (uint64_t i = 0; i < 60; ++i) a.push_back((i * 37) % 23);
    Define("A", NatVector(a));
    std::vector<Value> reals;
    for (uint64_t i = 0; i < 40; ++i) reals.push_back(Value::Real(0.1 * double(i) + 0.05));
    Define("Rv", Value::MakeVector(std::move(reals)));
    std::vector<Value> s;
    for (uint64_t i = 0; i < 50; ++i) s.push_back(Value::Nat((i * 7919) % 1000));
    Define("Sv", Value::MakeSet(std::move(s)));
    Define("E", Value::EmptySet());
    std::vector<Value> pairs;
    for (uint64_t i = 0; i < 120; ++i) {
      pairs.push_back(Value::MakeTuple({Value::Nat(i % 17), Value::Nat((i * 31) % 97)}));
    }
    Define("Big", Value::MakeSet(std::move(pairs)));
  }

  void Define(const std::string& name, Value v) {
    ASSERT_TRUE(sys_.DefineVal(name, std::move(v)).ok()) << name;
  }

  // The compiled backend (through the service, as every served query
  // runs) against the tree walker, with the unchecked kernels on and off.
  void Agree(const std::string& q) {
    SCOPED_TRACE(q);
    Result<Value> tree = sys_.Eval(q);
    for (const char* unchecked : {"1", "0"}) {
      SCOPED_TRACE(std::string("AQL_EXEC_UNCHECKED=") + unchecked);
      ScopedEnv knob("AQL_EXEC_UNCHECKED", unchecked);
      Result<Value> fast = svc_.Execute(q, NoCache());
      ASSERT_EQ(tree.ok(), fast.ok()) << "tree: " << tree.status().ToString()
                                      << "\ncompiled: " << fast.status().ToString();
      if (!tree.ok()) {
        EXPECT_EQ(tree.status().code(), fast.status().code());
        continue;
      }
      EXPECT_EQ(tree.value(), fast.value());
      EXPECT_EQ(tree.value().ToString(), fast.value().ToString());
    }
  }

  // The same for a core term, compiled without the optimizer.
  void AgreeCore(const ExprPtr& e) {
    SCOPED_TRACE(e->ToString());
    Result<Value> tree = Evaluator().Eval(e);
    Result<exec::Program> program = exec::Compile(e, nullptr);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    for (const char* unchecked : {"1", "0"}) {
      ScopedEnv knob("AQL_EXEC_UNCHECKED", unchecked);
      Result<Value> fast = program->Run();
      ASSERT_EQ(tree.ok(), fast.ok()) << "tree: " << tree.status().ToString()
                                      << "\ncompiled: " << fast.status().ToString();
      if (!tree.ok()) {
        EXPECT_EQ(tree.status().code(), fast.status().code());
        continue;
      }
      EXPECT_EQ(tree.value().ToString(), fast.value().ToString());
    }
  }

  static QueryOptions NoCache() {
    QueryOptions o;
    o.use_result_cache = false;
    return o;
  }

  ScopedEnv threads_, threshold_;
  System sys_;
  QueryService svc_{&sys_, {.num_workers = 1, .result_cache_bytes = 0}};
};

TEST_P(AggregateKernelTest, NatWrapAndRealFoldOrder) {
  for (const char* q : {
           // Nat addition wraps, in a chunked fold as in a sequential one.
           "summap(fn \\i => 18446744073709551615 + i)!(gen!100)",
           "summap(fn \\i => 9223372036854775808 * (i + 1))!(gen!77)",
           "[[ summap(fn \\k => 9223372036854775808 * (k + i))!(gen!64) | \\i < 3 ]]",
           // Left to right from 0.0: each 1.0 after 1e16 is lost to rounding,
           // which a reassociated fold would not lose.
           "summap(fn \\i => if i = 0 then 10000000000000000.0 else 1.0)!(gen!100)",
           "[[ summap(fn \\k => if k = 0 then 10000000000000000.0 else Rv[i])!(gen!50) "
           "| \\i < 4 ]]",
           "summap(fn \\i => Rv[i % 40] * Rv[(i * 7) % 40])!(gen!300)",
           // -0.0 parts: the fold starts from 0.0, so the sum is 0.0.
           "summap(fn \\i => 0.0 * (0.0 - 1.0))!(gen!40)",
           "[[ summap(fn \\k => 0.0 * (0.0 - Rv[k]))!(gen!i) | \\i < 5 ]]",
           // The paper's aggregates over the prelude.
           "hist!A",
           "window_sum!(A, 5)",
           "conv1!(A, [[ i + 1 | \\i < 4 ]])",
           "matmul!([[ i + j | \\i < 6, \\j < 7 ]], [[ i * j | \\i < 7, \\j < 5 ]])",
           "smooth!(Rv, 3)",
       }) {
    Agree(q);
  }
}

TEST_P(AggregateKernelTest, EmptySources) {
  for (const char* q : {
           "summap(fn \\i => i)!(gen!0)",
           "summap(fn \\x => x * 2)!E",
           "[[ summap(fn \\k => k + i)!(gen!i) | \\i < 5 ]]",
           "[[ summap(fn \\k => k + i)!E | \\i < 5 ]]",
           // A real tabulation whose Sums are empty at some cells: each of
           // those cells is Nat(0), so the kernel gives way to the generic
           // loop (and its boxed, mixed array).
           "[[ summap(fn \\k => Rv[k])!(gen!i) | \\i < 5 ]]",
           "[[ summap(fn \\k => Rv[k])!(gen!(i % 2)) | \\i < 50 ]]",
           "[[ summap(fn \\k => Rv[k])!E | \\i < 3 ]]",
           "[[ summap(fn \\k => Rv[k])!(gen!i) + 1.0 | \\i < 3 ]]",
           "smooth!(Rv, 0)",
       }) {
    Agree(q);
  }
}

TEST_P(AggregateKernelTest, BottomInsideTheFold) {
  for (const char* q : {
           "summap(fn \\i => 100 / (if i = 70 then 0 else i + 1))!(gen!100)",
           "summap(fn \\i => 100 % (i - 30))!(gen!100)",
           "summap(fn \\i => A[i])!(gen!(len!A + 1))",
           "summap(fn \\i => Rv[i])!(gen!(len!Rv + 1))",
           "summap(fn \\i => A[i])!Sv",
           // Per-cell ⊥: the partial array keeps its holes.
           "[[ summap(fn \\k => A[i + k])!(gen!8) | \\i < len!A ]]",
           "[[ summap(fn \\k => Rv[i + k])!(gen!8) | \\i < len!Rv ]]",
           "[[ summap(fn \\k => 60 / (k - i))!(gen!40) | \\i < 6 ]]",
           // ⊥ in the trip count.
           "[[ summap(fn \\k => k)!(gen!(10 / (3 - i))) | \\i < 6 ]]",
           "window_sum!(A, 61)",
       }) {
    Agree(q);
  }
}

TEST_P(AggregateKernelTest, SetSourcedSums) {
  for (const char* q : {
           "summap(fn \\x => x * 2 + 1)!Sv",
           "summap(fn \\x => A[x % 60])!Sv",
           "[[ summap(fn \\x => if x < i * 100 then 1 else 0)!Sv | \\i < 12 ]]",
           "let val \\D = gen!41 in [[ summap(fn \\s => A[s + i])!D | \\i < 20 ]] end",
       }) {
    Agree(q);
  }
  // A set source holding a non-nat: the kernel refuses it, and the generic
  // fold reports the tree walker's error.
  std::vector<Value> elems;
  for (uint64_t i = 0; i < 40; ++i) elems.push_back(Value::Nat(i));
  elems.push_back(Value::Real(2.5));
  const Value mixed = Value::MakeSet(std::move(elems));
  ExprPtr x = Expr::Var("x");
  AgreeCore(Expr::Sum("x", Expr::Arith(ArithOp::kMul, x, Expr::NatConst(2)),
                      Expr::Literal(mixed)));
  AgreeCore(Expr::Tab({"i"},
                      Expr::Sum("x", Expr::Arith(ArithOp::kAdd, x, Expr::Var("i")),
                                Expr::Literal(mixed)),
                      {Expr::NatConst(3)}));
  // A Sum whose binder shadows the tabulation's: the body's i is the Sum's.
  AgreeCore(Expr::Tab(
      {"i"},
      Expr::Sum("i",
                Expr::Subscript(Expr::Literal(NatVector({5, 6, 7, 8})), Expr::Var("i")),
                Expr::Gen(Expr::NatConst(4))),
      {Expr::NatConst(9)}));
  AgreeCore(Expr::Tab(
      {"i"},
      Expr::Sum("i",
                Expr::Subscript(Expr::Literal(NatVector({5, 6, 7, 8})), Expr::Var("i")),
                Expr::Gen(Expr::NatConst(5))),
      {Expr::NatConst(3)}));
}

TEST_P(AggregateKernelTest, SumInAGenericLoop) {
  for (const char* q : {
           // Below and above the kernel's trip-count floor.
           "{ (x, summap(fn \\j => x * j)!(gen!5)) | \\x <- Sv }",
           "{ (x, summap(fn \\j => x * j + 1)!(gen!200)) | \\x <- Sv }",
           "{ summap(fn \\j => A[(x + j) % 60])!(gen!(x % 70)) | \\x <- Sv }",
           "maparr!(fn \\n => summap(fn \\j => j * n)!(gen!n), A)",
           "{ (k, summap(fn \\j => v * j)!(gen!k)) | (\\k, \\v) <- Big }",
       }) {
    Agree(q);
  }
}

TEST_P(AggregateKernelTest, DeadlineMidFold) {
  QueryOptions o = NoCache();
  o.deadline = std::chrono::milliseconds(50);
  for (const char* q : {
           // A standalone fold of 10^10 parts (nested), and a tabulation
           // kernel whose cells each fold 10^9: both end only by the
           // deadline, checked and unchecked.
           "summap(fn \\i => summap(fn \\j => i * j)!(gen!100000))!(gen!100000)",
           "[[ summap(fn \\j => i * j)!(gen!1000000000) | \\i < 4 ]]",
           "[[ summap(fn \\j => A[(i + j) % 60])!(gen!1000000000) | \\i < 4 ]]",
           "summap(fn \\i => 1.5 * Rv[i % 40])!(gen!10000000000)",
       }) {
    for (const char* unchecked : {"1", "0"}) {
      SCOPED_TRACE(std::string(q) + " unchecked=" + unchecked);
      ScopedEnv knob("AQL_EXEC_UNCHECKED", unchecked);
      Result<Value> r = svc_.Execute(q, o);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded) << r.status().ToString();
    }
  }
  Agree("summap(fn \\i => i * 3)!(gen!1000)");
  // A program run directly under an armed token (no service to re-check
  // the deadline afterwards): a Sum that stopped early must not leak its
  // partial value into the result.
  ExprPtr tab = Expr::Tab(
      {"i"},
      Expr::Sum("j", Expr::Arith(ArithOp::kMul, Expr::Var("i"), Expr::Var("j")),
                Expr::Gen(Expr::NatConst(1000000000))),
      {Expr::NatConst(4)});
  for (const ExprPtr& e : {tab, tab->tab_body()}) {
    Result<exec::Program> program = exec::Compile(e, nullptr, {"i"});
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    for (const char* unchecked : {"1", "0"}) {
      ScopedEnv knob("AQL_EXEC_UNCHECKED", unchecked);
      CancelToken token;
      token.SetTimeout(std::chrono::milliseconds(50));
      ExecScope scope(&token);
      Result<Value> r = program->Run({Value::Nat(3)});
      ASSERT_FALSE(r.ok()) << e->ToString() << " unchecked=" << unchecked;
      EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded) << r.status().ToString();
    }
  }
}

TEST_P(AggregateKernelTest, SinkDuplicateAndUnorderedPairs) {
  for (const char* q : {
           "index!{ (x % 7, x / 3) | \\x <- gen!100 }",
           "index!{ (x % 3, x % 2) | \\x <- gen!50 }",
           "index!{ (50 - x % 9, 1000 - x) | \\x <- Sv }",
           "index!{ (k, v + 5) | (\\k, \\v) <- Big }",
           "index!{ (v % 5, k) | (\\k, \\v) <- Big }",
           "index!{ p | \\p <- Big }",
           "index!{ (x, y) | \\x <- gen!6, \\y <- gen!x }",
           "index!{ (x % 4, (x, x % 3)) | \\x <- gen!30 }",
           "maparr!(fn \\s => card!s, index!{ (A[i], i) | \\i < 60 })",
           "hist_fast!A",
       }) {
    Agree(q);
  }
}

TEST_P(AggregateKernelTest, SinkValuesKeysAndVolumes) {
  for (const char* q : {
           // Values <_t cannot order strictly: NaN and -0.0.
           "index!{ (x % 3, if x % 4 = 0 then 0.0 / 0.0 else Rv[x]) | \\x <- gen!30 }",
           "index!{ (x % 3, if x % 2 = 0 then 0.0 * (0.0 - 1.0) else 0.0) | \\x <- gen!30 }",
           "index!{ (x % 2, (x, 0.0 / 0.0)) | \\x <- gen!5 }",
           // A key without an extent, and ⊥ after it: the loop finishes
           // (⊥ wins) before any key is checked.
           "index!{ (if x = 5 then 18446744073709551615 else x, x) | \\x <- gen!10 }",
           "index!{ (if x = 2 then 18446744073709551615 else x, 10 / (5 - x)) | \\x <- gen!10 }",
           "index!{ (x, 10 / (5 - x)) | \\x <- gen!10 }",
           // A volume over the default cap.
           "index!{ (x * 1000000000000, x) | \\x <- gen!3 }",
           // Rank-2 keys, one coordinate without an extent, and an empty source.
           "index2!{ ((x % 3, x % 5), x) | \\x <- gen!40 }",
           "index2!{ ((x % 3, if x = 7 then 18446744073709551615 else x), x) | \\x <- gen!9 }",
           "index2!{ ((x, x), x) | \\x <- gen!0 }",
           "index!{ (x, x) | \\x <- gen!0 }",
           "index!{ (k, v) | (\\k, \\v) <- Big, k > 100000 }",
       }) {
    Agree(q);
  }
  ScopedEnv cap("AQL_EXEC_MAX_ELEMS", "1000");
  Agree("index!{ (x * 600, x) | \\x <- gen!3 }");
  Agree("index!{ (x * 300, x) | \\x <- gen!3 }");
}

TEST_P(AggregateKernelTest, CountersAndMirrors) {
  exec::ExecStats& stats = exec::GlobalExecStats();
  const uint64_t sums = stats.sum_kernels.load();
  const uint64_t fused = stats.index_fused.load();
  ASSERT_TRUE(svc_.Execute("summap(fn \\i => (i + 3) * (i + 3))!(gen!1000)", NoCache()).ok());
  EXPECT_GT(stats.sum_kernels.load(), sums);
  const uint64_t after_standalone = stats.sum_kernels.load();
  ASSERT_TRUE(svc_.Execute("hist!A", NoCache()).ok());
  EXPECT_GT(stats.sum_kernels.load(), after_standalone);
  ASSERT_TRUE(svc_.Execute("hist_fast!A", NoCache()).ok());
  EXPECT_GT(stats.index_fused.load(), fused);
  // An unfiled sink falls back and is not counted.
  const uint64_t fused_before_nan = stats.index_fused.load();
  ASSERT_TRUE(svc_.Execute("index!{ (x, 0.0 / 0.0) | \\x <- gen!4 }", NoCache()).ok());
  EXPECT_EQ(stats.index_fused.load(), fused_before_nan);
  std::string report = svc_.StatsReport();
  EXPECT_NE(report.find("exec.sum.kernels"), std::string::npos);
  EXPECT_NE(report.find("exec.index.fused"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Threads, AggregateKernelTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace aql
