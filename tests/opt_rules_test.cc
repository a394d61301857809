// Per-rule optimizer tests: each normalization rule fires on its redex,
// refuses unsound instances, and the engine reaches fixpoints.

#include "opt/optimizer.h"

#include "core/expr_ops.h"
#include "env/system.h"
#include "gtest/gtest.h"
#include "opt/analysis.h"

namespace aql {
namespace {

class OptRulesTest : public ::testing::Test {
 protected:
  // Optimizes and returns the rendered result.
  std::string Opt(const ExprPtr& e) { return optimizer_.Optimize(e)->ToString(); }
  ExprPtr OptE(const ExprPtr& e, RewriteStats* stats = nullptr) {
    return optimizer_.Optimize(e, stats);
  }
  Optimizer optimizer_;
};

TEST_F(OptRulesTest, BetaInlines) {
  ExprPtr e = Expr::Apply(Expr::Lambda("x", Expr::Arith(ArithOp::kAdd, Expr::Var("x"),
                                                        Expr::Var("x"))),
                          Expr::Var("y"));
  EXPECT_EQ(Opt(e), "y + y");
}

TEST_F(OptRulesTest, ProjTupleFiresUnconditionally) {
  ExprPtr ok = Expr::Proj(1, 2, Expr::Tuple({Expr::Var("a"), Expr::Var("b")}));
  EXPECT_EQ(Opt(ok), "a");
  // Dropping a possibly-erroring sibling refines definedness (the
  // normalization contract); the rule still fires.
  ExprPtr risky =
      Expr::Proj(1, 2, Expr::Tuple({Expr::Var("a"), Expr::Get(Expr::Var("s"))}));
  EXPECT_EQ(Opt(risky), "a");
}

TEST_F(OptRulesTest, BigUnionOverEmptyAndSingleton) {
  ExprPtr empty = Expr::BigUnion("x", Expr::Singleton(Expr::Var("x")), Expr::EmptySet());
  EXPECT_EQ(Opt(empty), "{}");
  ExprPtr single = Expr::BigUnion("x", Expr::Singleton(Expr::Var("x")),
                                  Expr::Singleton(Expr::Var("a")));
  EXPECT_EQ(Opt(single), "{a}");
}

TEST_F(OptRulesTest, VerticalFusionReassociates) {
  // U{ {x} | x in U{ {y+1} | y in S } }  ~>  U{ {y+1} | y in S } shape:
  // after fusion + singleton elimination the inner loop disappears.
  ExprPtr inner = Expr::BigUnion(
      "y", Expr::Singleton(Expr::Arith(ArithOp::kAdd, Expr::Var("y"), Expr::NatConst(1))),
      Expr::Var("S"));
  ExprPtr e = Expr::BigUnion("x", Expr::Singleton(Expr::Var("x")), inner);
  RewriteStats stats;
  ExprPtr r = OptE(e, &stats);
  EXPECT_GE(stats.firings["bigunion_fusion"], 1u);
  ASSERT_EQ(r->kind(), ExprKind::kBigUnion);
  EXPECT_EQ(r->child(1)->var_name(), "S") << "one flat loop over S: " << r->ToString();
}

TEST_F(OptRulesTest, VerticalFusionRenamesOnCapture) {
  // e1 mentions a free y; the inner binder y must be renamed.
  ExprPtr inner =
      Expr::BigUnion("y", Expr::Singleton(Expr::Var("y")), Expr::Var("S"));
  ExprPtr e = Expr::BigUnion(
      "x", Expr::Singleton(Expr::Tuple({Expr::Var("x"), Expr::Var("y")})), inner);
  ExprPtr r = OptE(e);
  auto fv = FreeVars(r);
  EXPECT_TRUE(fv.count("y")) << "outer free y must remain free: " << r->ToString();
  EXPECT_TRUE(fv.count("S"));
}

TEST_F(OptRulesTest, HorizontalFusionSplitsUnions) {
  ExprPtr e = Expr::BigUnion("x", Expr::Singleton(Expr::Var("x")),
                             Expr::Union(Expr::Var("A"), Expr::Var("B")));
  RewriteStats stats;
  ExprPtr r = OptE(e, &stats);
  EXPECT_GE(stats.firings["bigunion_over_union"], 1u);
  EXPECT_EQ(r->kind(), ExprKind::kUnion);
}

TEST_F(OptRulesTest, FilterPromotionHoistsInvariantCondition) {
  // U{ if c then {x} else {} | x in S } with c independent of x.
  ExprPtr e = Expr::BigUnion(
      "x",
      Expr::If(Expr::Cmp(CmpOp::kLt, Expr::Var("c"), Expr::NatConst(5)),
               Expr::Singleton(Expr::Var("x")), Expr::EmptySet()),
      Expr::Var("S"));
  ExprPtr r = OptE(e);
  ASSERT_EQ(r->kind(), ExprKind::kIf) << r->ToString();
  EXPECT_EQ(r->child(1)->kind(), ExprKind::kBigUnion);
}

TEST_F(OptRulesTest, FilterPromotionRespectsDependence) {
  // Condition mentions the binder: must NOT hoist.
  ExprPtr e = Expr::BigUnion(
      "x",
      Expr::If(Expr::Cmp(CmpOp::kLt, Expr::Var("x"), Expr::NatConst(5)),
               Expr::Singleton(Expr::Var("x")), Expr::EmptySet()),
      Expr::Var("S"));
  EXPECT_EQ(OptE(e)->kind(), ExprKind::kBigUnion);
}

TEST_F(OptRulesTest, SumRules) {
  EXPECT_EQ(Opt(Expr::Sum("x", Expr::Var("x"), Expr::EmptySet())), "0");
  EXPECT_EQ(Opt(Expr::Sum("x", Expr::Var("x"), Expr::Singleton(Expr::Var("a")))), "a");
  // Sum must NOT distribute over union (deduplication!): no rule fires.
  ExprPtr e = Expr::Sum("x", Expr::Var("x"), Expr::Union(Expr::Var("A"), Expr::Var("B")));
  EXPECT_EQ(OptE(e)->kind(), ExprKind::kSum);
}

TEST_F(OptRulesTest, ConditionalFolding) {
  EXPECT_EQ(Opt(Expr::If(Expr::BoolConst(true), Expr::Var("a"), Expr::Var("b"))), "a");
  EXPECT_EQ(Opt(Expr::If(Expr::BoolConst(false), Expr::Var("a"), Expr::Var("b"))), "b");
  // Same branches collapse only when the condition is error-free.
  EXPECT_EQ(Opt(Expr::If(Expr::Cmp(CmpOp::kLt, Expr::Var("x"), Expr::Var("y")),
                         Expr::Var("a"), Expr::Var("a"))),
            "a");
  ExprPtr risky = Expr::If(Expr::Cmp(CmpOp::kLt, Expr::Get(Expr::Var("s")), Expr::Var("y")),
                           Expr::Var("a"), Expr::Var("a"));
  EXPECT_EQ(OptE(risky)->kind(), ExprKind::kIf);
}

TEST_F(OptRulesTest, CmpAndArithConstantFolding) {
  EXPECT_EQ(Opt(Expr::Cmp(CmpOp::kLt, Expr::NatConst(3), Expr::NatConst(5))), "true");
  EXPECT_EQ(Opt(Expr::Arith(ArithOp::kMonus, Expr::NatConst(3), Expr::NatConst(5))), "0");
  EXPECT_EQ(Opt(Expr::Arith(ArithOp::kDiv, Expr::NatConst(7), Expr::NatConst(0))),
            "bottom");
  EXPECT_EQ(Opt(Expr::Arith(ArithOp::kAdd, Expr::Var("x"), Expr::NatConst(0))), "x");
  EXPECT_EQ(Opt(Expr::Arith(ArithOp::kMul, Expr::NatConst(1), Expr::Var("x"))), "x");
  EXPECT_EQ(Opt(Expr::Arith(ArithOp::kMul, Expr::Var("x"), Expr::NatConst(0))), "0");
  ExprPtr risky = Expr::Arith(ArithOp::kMul, Expr::Get(Expr::Var("s")), Expr::NatConst(0));
  EXPECT_EQ(OptE(risky)->kind(), ExprKind::kArith) << "x*0 needs error-free x";
}

TEST_F(OptRulesTest, CmpReflexive) {
  ExprPtr same = Expr::Cmp(CmpOp::kLe, Expr::Var("x"), Expr::Var("x"));
  EXPECT_EQ(Opt(same), "true");
  EXPECT_EQ(Opt(Expr::Cmp(CmpOp::kLt, Expr::Var("x"), Expr::Var("x"))), "false");
}

// ---- The three §5 array rules ----

TEST_F(OptRulesTest, BetaPAvoidsTabulation) {
  // [[ i*2 | i < n ]][j]  ~>  if j < n then j*2 else bottom.
  ExprPtr tab = Expr::Tab({"i"}, Expr::Arith(ArithOp::kMul, Expr::Var("i"), Expr::NatConst(2)),
                          {Expr::Var("n")});
  ExprPtr e = Expr::Subscript(tab, Expr::Var("j"));
  EXPECT_EQ(Opt(e), "if j < n then j * 2 else bottom");
}

TEST_F(OptRulesTest, BetaPMultiDim) {
  ExprPtr tab = Expr::Tab({"i", "j"},
                          Expr::Arith(ArithOp::kAdd, Expr::Var("i"), Expr::Var("j")),
                          {Expr::Var("m"), Expr::Var("n")});
  ExprPtr e = Expr::Subscript(tab, Expr::Tuple({Expr::Var("p"), Expr::Var("q")}));
  RewriteStats stats;
  ExprPtr r = OptE(e, &stats);
  EXPECT_GE(stats.firings["beta_p"], 1u);
  EXPECT_EQ(r->ToString(), "if p < m then if q < n then p + q else bottom else bottom");
}

TEST_F(OptRulesTest, BetaPSubstitutesIndexExpressionLiterally) {
  // The paper's rule duplicates e3 into the bound check and the body.
  ExprPtr tab = Expr::Tab({"i"}, Expr::Arith(ArithOp::kAdd, Expr::Var("i"), Expr::Var("i")),
                          {Expr::Var("n")});
  ExprPtr idx = Expr::Get(Expr::Var("s"));
  ExprPtr r = OptE(Expr::Subscript(tab, idx));
  EXPECT_EQ(r->ToString(), "if get(s) < n then get(s) + get(s) else bottom");
}

TEST_F(OptRulesTest, EtaPCollapsesIdentityTabulation) {
  // [[ A[i] | i < len(A) ]] ~> A.
  ExprPtr e = Expr::Tab({"i"}, Expr::Subscript(Expr::Var("A"), Expr::Var("i")),
                        {Expr::Dim(1, Expr::Var("A"))});
  EXPECT_EQ(Opt(e), "A");
}

TEST_F(OptRulesTest, EtaPMultiDim) {
  ExprPtr body = Expr::Subscript(Expr::Var("M"),
                                 Expr::Tuple({Expr::Var("i"), Expr::Var("j")}));
  ExprPtr e = Expr::Tab({"i", "j"}, body,
                        {Expr::Proj(1, 2, Expr::Dim(2, Expr::Var("M"))),
                         Expr::Proj(2, 2, Expr::Dim(2, Expr::Var("M")))});
  EXPECT_EQ(Opt(e), "M");
}

TEST_F(OptRulesTest, EtaPRejectsWrongShape) {
  // Swapped indices are a transpose, not the identity.
  ExprPtr body = Expr::Subscript(Expr::Var("M"),
                                 Expr::Tuple({Expr::Var("j"), Expr::Var("i")}));
  ExprPtr e = Expr::Tab({"i", "j"}, body,
                        {Expr::Proj(1, 2, Expr::Dim(2, Expr::Var("M"))),
                         Expr::Proj(2, 2, Expr::Dim(2, Expr::Var("M")))});
  EXPECT_EQ(OptE(e)->kind(), ExprKind::kTab);
  // Wrong bound: [[A[i] | i < len(B)]] must not collapse.
  ExprPtr e2 = Expr::Tab({"i"}, Expr::Subscript(Expr::Var("A"), Expr::Var("i")),
                         {Expr::Dim(1, Expr::Var("B"))});
  EXPECT_EQ(OptE(e2)->kind(), ExprKind::kTab);
  // Shadowed binders: both parts name the inner `a`, so (x, y) reads
  // M[y, y], a diagonal, not M.
  ExprPtr diag = Expr::Subscript(Expr::Var("M"),
                                 Expr::Tuple({Expr::Var("a"), Expr::Var("a")}));
  ExprPtr e3 = Expr::Tab({"a", "a"}, diag,
                         {Expr::Proj(1, 2, Expr::Dim(2, Expr::Var("M"))),
                          Expr::Proj(2, 2, Expr::Dim(2, Expr::Var("M")))});
  EXPECT_EQ(OptE(e3)->kind(), ExprKind::kTab);
}

TEST_F(OptRulesTest, EtaPShadowedBindersMatchTreeWalker) {
  SystemConfig plain;
  plain.optimize = false;
  System reference(plain);
  System optimizing;
  const std::string setup = "val \\S = [[ i * 10 + j | \\i < 3, \\j < 3 ]];";
  ASSERT_TRUE(reference.Run(setup).ok());
  ASSERT_TRUE(optimizing.Run(setup).ok());
  const std::string query = "[[ S[a, a] | \\a < 3, \\a < 3 ]]";
  auto want = reference.Eval(query);
  auto got = optimizing.Eval(query);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *want) << got->ToString() << " vs " << want->ToString();
}

TEST_F(OptRulesTest, DeltaPSkipsTabulation) {
  ExprPtr e = Expr::Dim(1, Expr::Tab({"i"}, Expr::Subscript(Expr::Var("A"), Expr::Var("i")),
                                     {Expr::Var("n")}));
  EXPECT_EQ(Opt(e), "n");
  ExprPtr e2 = Expr::Dim(2, Expr::Tab({"i", "j"}, Expr::NatConst(0),
                                      {Expr::Var("m"), Expr::Var("n")}));
  EXPECT_EQ(Opt(e2), "(m, n)");
}

TEST_F(OptRulesTest, DeltaPGatedUnderStrictArrays) {
  OptimizerConfig cfg;
  cfg.strict_arrays = true;
  Optimizer strict(cfg);
  // Body contains a subscript (not provably error-free): the paper's
  // caveat applies and delta^p must not fire.
  ExprPtr risky = Expr::Dim(
      1, Expr::Tab({"i"}, Expr::Subscript(Expr::Var("A"), Expr::Var("i")), {Expr::Var("n")}));
  EXPECT_EQ(strict.Optimize(risky)->kind(), ExprKind::kDim);
  // Error-free body: fires even under strict arrays.
  ExprPtr safe = Expr::Dim(1, Expr::Tab({"i"}, Expr::Var("i"), {Expr::Var("n")}));
  EXPECT_EQ(strict.Optimize(safe)->ToString(), "n");
}

TEST_F(OptRulesTest, DenseFolding) {
  ExprPtr dense = Expr::Dense(1, {Expr::NatConst(3)},
                              {Expr::NatConst(10), Expr::NatConst(20), Expr::NatConst(30)});
  EXPECT_EQ(Opt(Expr::Dim(1, dense)), "3");
  EXPECT_EQ(Opt(Expr::Subscript(dense, Expr::NatConst(1))), "20");
  EXPECT_EQ(Opt(Expr::Subscript(dense, Expr::NatConst(9))), "bottom");
  // Mismatched dense literal denotes bottom, and dim is strict in it.
  ExprPtr bad = Expr::Dense(1, {Expr::NatConst(2)}, {Expr::NatConst(1)});
  EXPECT_EQ(OptE(Expr::Dim(1, bad))->kind(), ExprKind::kBottom);
}

TEST_F(OptRulesTest, LiteralArrayFolding) {
  Value arr = *Value::MakeArray({2, 2}, {Value::Nat(1), Value::Nat(2), Value::Nat(3),
                                         Value::Nat(4)});
  ExprPtr lit = Expr::Literal(arr);
  EXPECT_EQ(Opt(Expr::Dim(2, lit)), "(2, 2)");
  EXPECT_EQ(Opt(Expr::Subscript(lit, Expr::Tuple({Expr::NatConst(1), Expr::NatConst(0)}))),
            "3");
}

TEST_F(OptRulesTest, EngineReportsStatsAndTerminates) {
  // A chain of nested lets all collapse; stats show beta firings and a
  // bounded number of passes.
  ExprPtr e = Expr::Var("x");
  for (int i = 0; i < 10; ++i) e = Expr::Let("x", e, Expr::Var("x"));
  RewriteStats stats;
  ExprPtr r = OptE(e, &stats);
  EXPECT_EQ(r->ToString(), "x");
  EXPECT_GE(stats.firings["beta"], 10u);
  EXPECT_LE(stats.passes, 64u);
}

TEST_F(OptRulesTest, OpennessUserRuleInjection) {
  // Register a rule rewriting gen(0) to {} and check it fires.
  Optimizer opt;
  ASSERT_TRUE(opt.AddRule("normalization",
                          {"user_gen_zero",
                           [](const ExprPtr& e) -> ExprPtr {
                             if (e->is(ExprKind::kGen) &&
                                 e->child(0)->is(ExprKind::kNatConst) &&
                                 e->child(0)->nat_const() == 0) {
                               return Expr::EmptySet();
                             }
                             return nullptr;
                           }})
                  .ok());
  RewriteStats stats;
  ExprPtr r = opt.Optimize(Expr::Gen(Expr::NatConst(0)), &stats);
  EXPECT_EQ(r->kind(), ExprKind::kEmptySet);
  EXPECT_EQ(stats.firings["user_gen_zero"], 1u);
  EXPECT_FALSE(opt.AddRule("no-such-phase", {"x", [](const ExprPtr&) { return nullptr; }})
                   .ok());
}

}  // namespace
}  // namespace aql
