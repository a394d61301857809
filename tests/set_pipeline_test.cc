// Differential tests for the compiled backend's set pipelines
// (docs/EXEC.md, "Set pipelines"): comprehensions that emit into one
// builder, counted gen loops, hash probes and sorted-range probes must
// return exactly what the tree-walking evaluator returns — the same value,
// or the same ⊥, or an error of the same code — for the group-by, join,
// rank and cartesian shapes the set_groupby and served_mix workloads run,
// and around the edges the probes special-case: duplicate emissions, empty
// sources, ⊥ and errors in the outer term and in the body, and a deadline
// that fires in the middle of a probed loop.
//
// Every test runs at AQL_EXEC_THREADS=1 and =4, with
// AQL_EXEC_PAR_THRESHOLD=1 so every loop of the 4-thread run is chunked.

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

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

// Deterministic data in the shapes of the benchmark's vals.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : s_(seed) {}
  uint64_t Below(uint64_t n) {
    s_ = s_ * 6364136223846793005ull + 1442695040888963407ull;
    return (s_ >> 33) % n;
  }

 private:
  uint64_t s_;
};

Value PairSet(Lcg* r, size_t n, uint64_t keys, uint64_t bound) {
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

Value NatSet(Lcg* r, size_t n, uint64_t bound) {
  std::vector<Value> elems;
  for (size_t i = 0; i < n; ++i) elems.push_back(Value::Nat(r->Below(bound)));
  return Value::MakeSet(std::move(elems));
}

Value NatVector(Lcg* r, size_t n, uint64_t bound) {
  std::vector<Value> elems;
  for (size_t i = 0; i < n; ++i) elems.push_back(Value::Nat(r->Below(bound)));
  return Value::MakeVector(std::move(elems));
}

class SetPipelineTest : public ::testing::TestWithParam<int> {
 protected:
  SetPipelineTest()
      : threads_("AQL_EXEC_THREADS", std::to_string(GetParam())),
        threshold_("AQL_EXEC_PAR_THRESHOLD", "1") {
    Lcg r(1996);
    Define("Rel", PairSet(&r, 60, 9, 1000));
    Define("Big", PairSet(&r, 200, 64, 1000));
    Define("Sv", NatSet(&r, 40, 1000));
    Define("Tv", NatSet(&r, 25, 2000));
    Define("Hv", NatVector(&r, 90, 16));
    std::vector<Value> s;
    for (uint64_t k = 0; k < 9; ++k) {
      s.push_back(Value::MakeTuple({Value::Nat(k), Value::Bool(r.Below(2) == 0)}));
    }
    Define("S", Value::MakeSet(std::move(s)));
    Define("Dup", Value::MakeSet({Value::Nat(3), Value::Nat(3), Value::Nat(5)}));
  }

  void Define(const std::string& name, Value v) {
    ASSERT_TRUE(sys_.DefineVal(name, std::move(v)).ok()) << name;
  }

  // The compiled backend (through the service, as every served query
  // runs) against the tree walker on the same query.
  void Agree(const std::string& q) {
    SCOPED_TRACE(q);
    Result<Value> tree = sys_.Eval(q);
    Result<Value> fast = svc_.Execute(q, NoCache());
    ASSERT_EQ(tree.ok(), fast.ok()) << "tree: " << tree.status().ToString()
                                    << "\ncompiled: " << fast.status().ToString();
    if (!tree.ok()) {
      EXPECT_EQ(tree.status().code(), fast.status().code());
      return;
    }
    EXPECT_EQ(tree.value(), fast.value());
    EXPECT_EQ(tree.value().ToString(), fast.value().ToString());
  }

  // The proof certificate of q's compiled plan.
  std::string Proof(const std::string& q) {
    Result<ExprPtr> plan = sys_.Compile(q);
    EXPECT_TRUE(plan.ok()) << q << ": " << plan.status().ToString();
    if (!plan.ok()) return "";
    Result<exec::Program> program = exec::Compile(*plan, sys_.PrimitiveResolver());
    EXPECT_TRUE(program.ok()) << q << ": " << program.status().ToString();
    return program.ok() ? program->proof().ToString() : "";
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

TEST_P(SetPipelineTest, GroupByJoinRankCartesianShapes) {
  for (const char* q : {
           "nest!{ (k, v + 7) | (\\k, \\v) <- Rel }",
           "{ (k, card!g) | (\\k, \\g) <- nest!{ (k + 3, v) | (\\k, \\v) <- Rel } }",
           "nest!{ (k, v + 1) | (\\k, \\v) <- Big }",
           "{ (k, v + 5, b) | (\\k, \\v) <- Rel, (k, \\b) <- S }",
           "rank!{ x + 4 | \\x <- Sv }",
           "maparr!(fn \\s => card!s, index!{ (k, v + 2) | (\\k, \\v) <- Big })",
           "hist_fast!(subseq!(Hv, 3, 80))",
           "hist!(subseq!(Hv, 3, 80))",
           "summap(fn \\i => (i + 2) * (i + 2))!(gen!300)",
       }) {
    Agree(q);
  }
  for (const char* op : {"<", "<=", ">", ">=", "="}) {
    Agree(std::string("card!{ (x + 9, y) | \\x <- Sv, \\y <- Tv, x ") + op + " y }");
    Agree(std::string("{ (x, y) | \\x <- Sv, \\y <- Tv, y ") + op + " x }");
    Agree(std::string("{ (i, j) | \\i <- gen!30, \\j <- gen!40, j ") + op + " i + 3 }");
  }
}

TEST_P(SetPipelineTest, ProbesAreAdmittedAndRecorded) {
  EXPECT_NE(Proof("nest!{ (k, v + 7) | (\\k, \\v) <- Rel }").find("hash-probe"),
            std::string::npos);
  EXPECT_NE(Proof("{ (k, v + 5, b) | (\\k, \\v) <- Rel, (k, \\b) <- S }").find("hash-probe"),
            std::string::npos);
  EXPECT_NE(Proof("rank!{ x + 4 | \\x <- Sv }").find("range-probe"), std::string::npos);
  EXPECT_NE(Proof("card!{ (x, y) | \\x <- Sv, \\y <- Tv, x < y }").find("range-probe"),
            std::string::npos);
  // Sum-side guards are not probed.
  EXPECT_EQ(Proof("hist!(subseq!(Hv, 3, 80))").find("probe"), std::string::npos);

  exec::ExecStats& stats = exec::GlobalExecStats();
  const uint64_t probes = stats.set_probes.load();
  const uint64_t ranges = stats.set_ranges.load();
  const uint64_t skipped = stats.sorts_skipped.load();
  ASSERT_TRUE(svc_.Execute("nest!{ (k, v + 7) | (\\k, \\v) <- Rel }", NoCache()).ok());
  ASSERT_TRUE(svc_.Execute("rank!{ x + 4 | \\x <- Sv }", NoCache()).ok());
  EXPECT_GT(stats.set_probes.load(), probes);
  EXPECT_GT(stats.set_ranges.load(), ranges);
  EXPECT_GT(stats.sorts_skipped.load(), skipped);
  // Mirrored into the service's metrics.
  std::string report = svc_.StatsReport();
  EXPECT_NE(report.find("exec.set.probes"), std::string::npos);
  EXPECT_NE(report.find("exec.set.ranges"), std::string::npos);
  EXPECT_NE(report.find("exec.set.sorts_skipped"), std::string::npos);
}

TEST_P(SetPipelineTest, DuplicateAndUnorderedEmissions) {
  for (const char* q : {
           "{ x / 3 | \\x <- gen!40 }",                      // ascending, repeats
           "{ 50 - x / 3 | \\x <- gen!40 }",                 // descending: sorted
           "{ (k, card!{ v | (k, \\v) <- Rel }) | (\\k, _) <- Rel }",
           "{ x % 7 | \\x <- Sv } union { x % 5 | \\x <- Tv }",
           "{ y | \\x <- Dup, \\y <- {x, x + 1, 4} }",
           "{ v | (\\k, \\v) <- Rel, \\w <- Dup, k = w }",
       }) {
    Agree(q);
  }
}

TEST_P(SetPipelineTest, EmptySources) {
  for (const char* q : {
           "nest!{ (k, v) | (\\k, \\v) <- Rel, k > 100000 }",
           "{ (k, v, b) | (\\k, \\v) <- Rel, k > 100000, (k, \\b) <- S }",
           "{ x | \\x <- Sv, x < 0 }",
           "{ x | \\x <- Sv, x > 100000 }",
           "rank!{ x | \\x <- Sv, x > 100000 }",
           "{ (i, j) | \\i <- gen!0, \\j <- gen!5, j < i }",
           "summap(fn \\i => i)!(gen!0)",
       }) {
    Agree(q);
  }
}

TEST_P(SetPipelineTest, BottomAndErrorsInOuterTermAndBody) {
  for (const char* q : {
           // ⊥ in the outer term O (nat division by zero).
           "{ (x, y) | \\x <- Sv, \\y <- Tv, y < x / (x - x) }",
           "{ (k, v, b) | (\\k, \\v) <- Rel, (\\j, \\b) <- S, j = k / (v - v) }",
           // ⊥ in the body of the matching elements only.
           "{ (x, y / (y - y)) | \\x <- Sv, \\y <- Tv, x < y }",
           "{ (k, b, v / (v - v)) | (\\k, \\v) <- Rel, (k, \\b) <- S }",
           // An error in O and in the body (an index key with no extent).
           "{ (x, y) | \\x <- Sv, \\y <- Tv, y < x + len!(index!{ (18446744073709551615, x) }) }",
           "{ (x, len!(index!{ (18446744073709551615, y) })) | \\x <- Sv, \\y <- Tv, x < y }",
           "{ (k, b, len!(index!{ (18446744073709551615, v) })) | (\\k, \\v) <- Rel, "
           "(k, \\b) <- S }",
           // A guard that never admits: O's ⊥ must not be reached.
           "{ (x, y) | \\x <- Sv, \\y <- Tv, x > 100000, y < x / (x - x) }",
       }) {
    Agree(q);
  }
}

TEST_P(SetPipelineTest, DeadlineFiresMidProbe) {
  // One key: every probe admits every element, so the run is quadratic in
  // the probed loops and only ends by the deadline.
  QueryOptions o = NoCache();
  o.deadline = std::chrono::milliseconds(50);
  Result<Value> r = svc_.Execute("card!(nest!{ (0, x) | \\x <- gen!40000 })", o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded) << r.status().ToString();
  Result<Value> next = svc_.Execute("card!(nest!{ (k, v) | (\\k, \\v) <- Rel })", NoCache());
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next.value(), sys_.Eval("card!(nest!{ (k, v) | (\\k, \\v) <- Rel })").value());
}

// Core terms, compiled without the optimizer, so a guard's outer term
// stays inside the loop (code motion would hoist an invariant one out).
class CoreGuards : public SetPipelineTest {
 protected:
  void AgreeCore(const ExprPtr& e) {
    SCOPED_TRACE(e->ToString());
    Result<Value> tree = Evaluator().Eval(e);
    Result<exec::Program> program = exec::Compile(e, nullptr);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    Result<Value> fast = program->Run();
    ASSERT_EQ(tree.ok(), fast.ok()) << "tree: " << tree.status().ToString()
                                    << "\ncompiled: " << fast.status().ToString();
    if (!tree.ok()) {
      EXPECT_EQ(tree.status().code(), fast.status().code());
      return;
    }
    EXPECT_EQ(tree.value().ToString(), fast.value().ToString());
  }

  static ExprPtr N(uint64_t n) { return Expr::NatConst(n); }
  static ExprPtr V(const std::string& v) { return Expr::Var(v); }
  static ExprPtr P(size_t i, ExprPtr t) { return Expr::Proj(i, 2, std::move(t)); }
  // An outer term that is ⊥ (nat division by zero) or an error (a
  // projection of a nat) only when `y` is 2, the third outer visit: by
  // then the probe has built its index.
  static ExprPtr OuterAt2(ExprPtr bad) {
    return Expr::If(Expr::Cmp(CmpOp::kEq, V("y"), N(2)), std::move(bad), V("y"));
  }
  // U{ U{ if pi_1(g) = O then {pi_2(g)} else {} | g in R } | y in gen(4) }
  static ExprPtr Probed(ExprPtr outer, ExprPtr then_e, const Value& r) {
    ExprPtr inner = Expr::BigUnion(
        "g",
        Expr::If(Expr::Cmp(CmpOp::kEq, P(1, V("g")), std::move(outer)), std::move(then_e),
                 Expr::EmptySet()),
        Expr::Literal(r));
    return Expr::BigUnion("y", std::move(inner), Expr::Gen(N(4)));
  }
  // U{ U{ if x op O then {x} else {} | x in gen(9) } | y in gen(4) }
  static ExprPtr Ranged(CmpOp op, ExprPtr outer, ExprPtr then_e) {
    ExprPtr inner = Expr::BigUnion(
        "x",
        Expr::If(Expr::Cmp(op, V("x"), std::move(outer)), std::move(then_e), Expr::EmptySet()),
        Expr::Gen(N(9)));
    return Expr::BigUnion("y", std::move(inner), Expr::Gen(N(4)));
  }

  static Value Pairs(std::vector<std::pair<Value, uint64_t>> kv) {
    std::vector<Value> elems;
    for (auto& [k, v] : kv) elems.push_back(Value::MakeTuple({k, Value::Nat(v)}));
    return Value::MakeSet(std::move(elems));
  }
};

TEST_P(CoreGuards, ProbeOuterAndBodyFailuresMatchTheScan) {
  const Value r = Pairs({{Value::Nat(0), 10}, {Value::Nat(1), 11}, {Value::Nat(1), 12},
                         {Value::Nat(2), 13}, {Value::Nat(3), 14}});
  ExprPtr div0 = Expr::Arith(ArithOp::kDiv, N(1), N(0));
  ExprPtr proj_of_nat = P(1, N(3));
  AgreeCore(Probed(V("y"), Expr::Singleton(P(2, V("g"))), r));
  AgreeCore(Probed(OuterAt2(div0), Expr::Singleton(P(2, V("g"))), r));
  AgreeCore(Probed(OuterAt2(proj_of_nat), Expr::Singleton(P(2, V("g"))), r));
  // The body fails only for the element with key 2.
  ExprPtr body = Expr::Singleton(Expr::Arith(ArithOp::kDiv, P(2, V("g")),
                                             Expr::Arith(ArithOp::kMonus, N(2), V("y"))));
  AgreeCore(Probed(V("y"), body, r));
  AgreeCore(Probed(V("y"), Expr::If(Expr::Cmp(CmpOp::kEq, V("y"), N(3)), P(1, N(3)),
                                    Expr::Singleton(V("y"))),
                   r));
  // Keys <_t cannot order (NaN) or that are not tuples: the loop scans.
  const Value nan_keys = Pairs({{Value::Real(NAN), 1}, {Value::Real(1.0), 2}});
  // (Emitting y keeps a scanned first visit from masking a later probe.)
  ExprPtr per_visit = Expr::Singleton(Expr::Tuple({V("y"), P(2, V("g"))}));
  AgreeCore(Probed(Expr::RealConst(1.0), per_visit, nan_keys));
  const Value real_keys = Pairs({{Value::Real(0.5), 1}, {Value::Real(1.0), 2}});
  AgreeCore(Probed(Expr::RealConst(NAN), per_visit, real_keys));
  AgreeCore(Expr::BigUnion(
      "y",
      Expr::BigUnion("g",
                     Expr::If(Expr::Cmp(CmpOp::kEq, P(1, V("g")), V("y")),
                              Expr::Singleton(V("y")), Expr::EmptySet()),
                     Expr::Literal(Value::MakeSet({Value::Nat(1), Value::Nat(2)}))),
      Expr::Gen(N(3))));
}

TEST_P(CoreGuards, RangeOuterAndBodyFailuresMatchTheScan) {
  for (CmpOp op : {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe, CmpOp::kEq}) {
    AgreeCore(Ranged(op, Expr::Arith(ArithOp::kMul, V("y"), N(3)), Expr::Singleton(V("x"))));
    AgreeCore(Ranged(op, OuterAt2(Expr::Arith(ArithOp::kDiv, N(1), N(0))),
                     Expr::Singleton(V("x"))));
    AgreeCore(Ranged(op, OuterAt2(P(1, N(3))), Expr::Singleton(V("x"))));
    AgreeCore(Ranged(op, V("y"),
                     Expr::Singleton(Expr::Arith(ArithOp::kDiv, N(1),
                                                 Expr::Arith(ArithOp::kMonus, V("x"), N(4))))));
    // A non-nat outer term orders by kind rank.
    AgreeCore(Ranged(op, Expr::BoolConst(true), Expr::Singleton(V("x"))));
    AgreeCore(Ranged(op, Expr::RealConst(NAN), Expr::Singleton(V("x"))));
  }
  // <_t is not a strict order on NaN (it compares equal to everything):
  // a NaN inside the outer term, or inside a source element, makes the
  // admitted elements non-contiguous, so the loop must scan.
  auto rt = [](double a, double b) {
    return Value::MakeTuple({Value::Real(a), Value::Real(b)});
  };
  const Value reals = Value::MakeSet({rt(1.0, 9.0), rt(2.0, 1.0), rt(3.0, 7.0), rt(4.0, 2.0)});
  const Value nan_elem = Value::MakeSet({rt(NAN, 1.0), rt(0.5, 2.0), rt(2.0, 0.0)});
  for (CmpOp op : {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe, CmpOp::kEq}) {
    for (const Value& src : {reals, nan_elem}) {
      for (double first : {double(NAN), 1.5}) {
        ExprPtr outer = Expr::Tuple({Expr::RealConst(first), Expr::RealConst(5.0)});
        AgreeCore(Expr::BigUnion(
            "x",
            Expr::If(Expr::Cmp(op, V("x"), std::move(outer)), Expr::Singleton(V("x")),
                     Expr::EmptySet()),
            Expr::Literal(src)));
      }
    }
  }
  // A counted source whose count is ⊥ or not a nat.
  AgreeCore(Expr::BigUnion("x", Expr::Singleton(V("x")),
                           Expr::Gen(Expr::Arith(ArithOp::kDiv, N(1), N(0)))));
  AgreeCore(Expr::Sum("x", V("x"), Expr::Gen(Expr::BoolConst(true))));
}

TEST_P(CoreGuards, BuilderKeepsWhatMakeSetKeeps) {
  // -0.0 and 0.0 are equal under <_t but print differently, and NaN is
  // equal to everything: emissions containing either are canonicalized by
  // MakeSet's sort, exactly as the tree walker does.
  for (double special : {-0.0, double(NAN)}) {
    for (uint64_t n : {2u, 40u}) {
      ExprPtr elem = Expr::If(Expr::Cmp(CmpOp::kEq, Expr::Arith(ArithOp::kMod, V("x"), N(3)),
                                        N(0)),
                              Expr::RealConst(special), Expr::RealConst(0.0));
      AgreeCore(Expr::BigUnion("x", Expr::Singleton(Expr::Tuple({std::move(elem), V("x")})),
                               Expr::Gen(N(n))));
      ExprPtr zero = Expr::If(Expr::Cmp(CmpOp::kLt, V("x"), N(n / 2)),
                              Expr::RealConst(special), Expr::RealConst(0.0));
      AgreeCore(Expr::BigUnion("x", Expr::Singleton(std::move(zero)), Expr::Gen(N(n))));
    }
  }
}

TEST_P(CoreGuards, SumFoldStopsAtTheFirstFailure) {
  // Sum over gen(16): ⊥ at x = 5, a real (mixed with nats) at x = 7. The
  // sequential fold stops at the ⊥; chunked folds must not reach the
  // mixed-kind error beyond it. And the mirror image: the error first.
  auto body = [](uint64_t bottom_at, uint64_t real_at) {
    return Expr::If(
        Expr::Cmp(CmpOp::kEq, V("x"), N(bottom_at)), Expr::Arith(ArithOp::kDiv, N(1), N(0)),
        Expr::If(Expr::Cmp(CmpOp::kEq, V("x"), N(real_at)), Expr::RealConst(1.0), V("x")));
  };
  AgreeCore(Expr::Sum("x", body(5, 7), Expr::Gen(N(16))));
  AgreeCore(Expr::Sum("x", body(7, 5), Expr::Gen(N(16))));
}

INSTANTIATE_TEST_SUITE_P(Threads, CoreGuards, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

INSTANTIATE_TEST_SUITE_P(Threads, SetPipelineTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace aql
