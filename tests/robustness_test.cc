// Robustness and tooling tests: the evaluator's recursion guard, the
// CF-convention (scale_factor/add_offset) NetCDF unpacking, and the
// System::Explain compilation report.

#include <cstdio>
#include <filesystem>

#include "core/expr_ops.h"
#include "env/system.h"
#include "eval/evaluator.h"
#include "gtest/gtest.h"
#include "io/drivers.h"
#include "netcdf/writer.h"
#include "service/service.h"
#include "test_util.h"

namespace aql {
namespace {

TEST(DepthGuard, DeepExpressionTreesErrorInsteadOfCrashing) {
  // Build 1 + (1 + (1 + ...)) programmatically, past a small limit.
  Evaluator limited(nullptr, /*max_depth=*/100);
  ExprPtr deep = Expr::NatConst(0);
  for (int i = 0; i < 300; ++i) {
    deep = Expr::Arith(ArithOp::kAdd, Expr::NatConst(1), deep);
  }
  auto r = limited.Eval(deep);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kEvalError);
  EXPECT_NE(r.status().message().find("depth"), std::string::npos);
}

TEST(DepthGuard, ShallowExpressionsUnaffected) {
  Evaluator limited(nullptr, /*max_depth=*/100);
  ExprPtr e = Expr::NatConst(0);
  for (int i = 0; i < 40; ++i) e = Expr::Arith(ArithOp::kAdd, Expr::NatConst(1), e);
  auto r = limited.Eval(e);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, Value::Nat(40));
}

TEST(DepthGuard, NestedClosureApplications) {
  // f(f(f(...f(0)))) through closures also counts toward the budget.
  Evaluator limited(nullptr, /*max_depth=*/64);
  ExprPtr apply_chain = Expr::NatConst(0);
  for (int i = 0; i < 64; ++i) {
    apply_chain = Expr::Apply(
        Expr::Lambda("x", Expr::Arith(ArithOp::kAdd, Expr::Var("x"), Expr::NatConst(1))),
        apply_chain);
  }
  EXPECT_FALSE(limited.Eval(apply_chain).ok());
}

TEST(DepthGuard, DefaultLimitIsGenerous) {
  // Ordinary nested queries sit far below the default budget.
  System sys;
  EXPECT_EQ(testing::EvalOrDie(
                &sys, "summap(fn \\x => summap(fn \\y => x * y)!(gen!20))!(gen!20)"),
            Value::Nat(36100));
}

TEST(CfConventions, ScaleFactorAndAddOffsetUnpack) {
  // Pack temperatures as shorts with scale/offset, the way real archives
  // do; the NETCDF reader must unpack transparently.
  std::string path =
      (std::filesystem::temp_directory_path() / "aql_cf_packed.nc").string();
  netcdf::NcWriter w(1);
  uint32_t d = w.AddDim("t", 4);
  // raw shorts {0, 100, 200, 300}; scale 0.1, offset 50 -> {50, 60, 70, 80}.
  w.AddVar("temp", netcdf::NcType::kShort, {d}, {0, 100, 200, 300},
           {netcdf::NcAttr{"scale_factor", netcdf::NcType::kDouble, {0.1}, ""},
            netcdf::NcAttr{"add_offset", netcdf::NcType::kDouble, {50.0}, ""}});
  w.AddVar("plain", netcdf::NcType::kShort, {d}, {1, 2, 3, 4});
  ASSERT_TRUE(w.WriteFile(path).ok());

  auto reader = MakeNetcdfReader(1);
  auto packed = reader(Value::MakeTuple(
      {Value::Str(path), Value::Str("temp"), Value::Nat(0), Value::Nat(3)}));
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  EXPECT_EQ(packed->array().At(0), Value::Real(50.0));
  EXPECT_EQ(packed->array().At(3), Value::Real(80.0));

  // Variables without the attributes pass through unchanged.
  auto plain = reader(Value::MakeTuple(
      {Value::Str(path), Value::Str("plain"), Value::Nat(0), Value::Nat(3)}));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->array().At(0), Value::Real(1.0));
  std::remove(path.c_str());
}

TEST(Explain, ReportsTypeSizesAndRules) {
  System sys;
  auto report = sys.Explain("transpose!([[ i * 10 + j | \\i < 4, \\j < 5 ]])");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("type            : [[nat]]_2"), std::string::npos) << *report;
  EXPECT_NE(report->find("beta_p"), std::string::npos) << *report;
  EXPECT_NE(report->find("delta_p"), std::string::npos) << *report;
  EXPECT_NE(report->find("plan            : [[ "), std::string::npos) << *report;
}

TEST(Explain, PropagatesErrors) {
  System sys;
  EXPECT_EQ(sys.Explain("1 +").status().code(), StatusCode::kParseError);
  EXPECT_EQ(sys.Explain("{1, true}").status().code(), StatusCode::kTypeError);
}

TEST(Robustness, LargeCanonicalSetsStayConsistent) {
  // A larger stress: 20k-element set built out of order.
  System sys;
  Value v = testing::EvalOrDie(&sys, "card!({ (x * 7919) % 20011 | \\x <- gen!20000 })");
  ASSERT_EQ(v.kind(), ValueKind::kNat);
  EXPECT_GT(v.nat_value(), 19000u) << "7919 is coprime to 20011";
}

// index's extent is max key + 1: the largest nat has none (key + 1
// wrapped the extent to 0 and the bucket write ran out of bounds), and a
// key past the element cap is a typed error, not a giant bucket allocation
// (which aborted the process with std::bad_alloc).
constexpr const char* kHugeIndexQueries[] = {
    "index!{(18446744073709551615, 1)}",
    "index!{(1099511627776, 1)}",
    "index!{(2, 5), (18446744073709551615, 1)}",
};

TEST(Robustness, HugeIndexKeysAreTypedErrorsInBothBackends) {
  System sys;
  for (const char* q : kHugeIndexQueries) {
    auto plan = sys.Compile(q);
    ASSERT_TRUE(plan.ok()) << q << ": " << plan.status().ToString();
    auto tree = sys.EvalCore(*plan);
    auto fast = sys.EvalCoreCompiled(*plan);
    EXPECT_EQ(tree.status().code(), StatusCode::kEvalError) << q << ": " << tree.status().ToString();
    EXPECT_EQ(fast.status().code(), StatusCode::kEvalError) << q << ": " << fast.status().ToString();
  }
}

TEST(Robustness, HugeIndexKeysLeaveTheServiceServing) {
  System sys;
  service::QueryService svc(&sys, {.num_workers = 1});
  for (const char* q : kHugeIndexQueries) {
    auto r = svc.Execute(q);
    EXPECT_EQ(r.status().code(), StatusCode::kEvalError) << q << ": " << r.status().ToString();
    auto next = svc.Execute("len!(index!{(3, 1), (1, 2)})");
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_EQ(next.value(), Value::Nat(4));
  }
}

TEST(Robustness, OptimizerIsIdempotent) {
  // optimize(optimize(e)) should be alpha-equal to optimize(e) on
  // representative queries (the fixpoint really is a fixpoint).
  System sys;
  for (const char* q : {
           "fn (\\A, \\B) => subseq!(zip!(A, B), 3, 10)",
           "fn \\m => transpose!(transpose!m)",
           "[[ i + summap(fn \\j => j)!(gen!50) | \\i < 10 ]]",
           "fn \\e => hist_fast!e",
       }) {
    auto once = sys.Compile(q);
    ASSERT_TRUE(once.ok()) << q;
    ExprPtr twice = sys.Optimize(*once);
    EXPECT_TRUE(AlphaEqual(*once, twice))
        << q << "\nonce:  " << (*once)->ToString() << "\ntwice: " << twice->ToString();
  }
}

}  // namespace
}  // namespace aql
