// Tests for binding-aware expression operations: free variables,
// capture-avoiding substitution, alpha-equivalence.

#include "core/expr_ops.h"

#include "gtest/gtest.h"

namespace aql {
namespace {

TEST(FreeVars, RespectsBinders) {
  // \x. U{ {x U y} | z in s }
  ExprPtr e = Expr::Lambda(
      "x", Expr::BigUnion("z", Expr::Singleton(Expr::Union(Expr::Var("x"), Expr::Var("y"))),
                          Expr::Var("s")));
  auto fv = FreeVars(e);
  EXPECT_EQ(fv, (std::set<std::string>{"y", "s"}));
}

TEST(FreeVars, TabBindersScopeOverBodyOnly) {
  // [[ i + n | i < n ]] : n free (both in body and bound), i bound.
  ExprPtr e = Expr::Tab({"i"}, Expr::Arith(ArithOp::kAdd, Expr::Var("i"), Expr::Var("n")),
                        {Expr::Var("n")});
  EXPECT_EQ(FreeVars(e), (std::set<std::string>{"n"}));
  // A bound expression mentioning i refers to an OUTER i.
  ExprPtr e2 = Expr::Tab({"i"}, Expr::Var("i"), {Expr::Var("i")});
  EXPECT_EQ(FreeVars(e2), (std::set<std::string>{"i"}));
}

TEST(Substitute, SimpleReplacement) {
  ExprPtr e = Expr::Arith(ArithOp::kAdd, Expr::Var("x"), Expr::Var("y"));
  ExprPtr r = Substitute(e, "x", Expr::NatConst(5));
  EXPECT_EQ(r->ToString(), "5 + y");
}

TEST(Substitute, ShadowedOccurrencesUntouched) {
  ExprPtr e = Expr::Lambda("x", Expr::Var("x"));
  ExprPtr r = Substitute(e, "x", Expr::NatConst(5));
  EXPECT_TRUE(AlphaEqual(r, e));
}

TEST(Substitute, AvoidsCapture) {
  // (\y. x + y){x := y}  must NOT become \y. y + y.
  ExprPtr e = Expr::Lambda("y", Expr::Arith(ArithOp::kAdd, Expr::Var("x"), Expr::Var("y")));
  ExprPtr r = Substitute(e, "x", Expr::Var("y"));
  ASSERT_EQ(r->kind(), ExprKind::kLambda);
  EXPECT_NE(r->binder(), "y") << "binder must be renamed";
  const ExprPtr& body = r->child(0);
  EXPECT_EQ(body->child(0)->var_name(), "y") << "substituted y stays free";
  EXPECT_EQ(body->child(1)->var_name(), r->binder());
}

TEST(Substitute, AvoidsCaptureInTab) {
  // [[ x | i < n ]]{x := i} must rename the tab binder.
  ExprPtr e = Expr::Tab({"i"}, Expr::Var("x"), {Expr::Var("n")});
  ExprPtr r = Substitute(e, "x", Expr::Var("i"));
  ASSERT_EQ(r->kind(), ExprKind::kTab);
  EXPECT_NE(r->binders()[0], "i");
  EXPECT_EQ(r->tab_body()->var_name(), "i");
}

TEST(Substitute, SimultaneousIsNotSequential) {
  // e = x + y; {x := y, y := x} must swap, not chain.
  ExprPtr e = Expr::Arith(ArithOp::kAdd, Expr::Var("x"), Expr::Var("y"));
  std::unordered_map<std::string, ExprPtr> subst{{"x", Expr::Var("y")},
                                                 {"y", Expr::Var("x")}};
  ExprPtr r = SubstituteAll(e, subst);
  EXPECT_EQ(r->ToString(), "y + x");
}

TEST(Substitute, SharesUnchangedSubtrees) {
  ExprPtr big = Expr::Singleton(Expr::Tuple({Expr::NatConst(1), Expr::NatConst(2)}));
  ExprPtr e = Expr::Union(big, Expr::Singleton(Expr::Var("x")));
  ExprPtr r = Substitute(e, "x", Expr::NatConst(0));
  EXPECT_EQ(r->child(0).get(), big.get()) << "untouched branch is pointer-shared";
}

TEST(AlphaEqual, BoundNamesIrrelevant) {
  ExprPtr a = Expr::Lambda("x", Expr::Var("x"));
  ExprPtr b = Expr::Lambda("y", Expr::Var("y"));
  EXPECT_TRUE(AlphaEqual(a, b));
}

TEST(AlphaEqual, FreeNamesMatter) {
  EXPECT_FALSE(AlphaEqual(Expr::Var("x"), Expr::Var("y")));
  ExprPtr a = Expr::Lambda("x", Expr::Var("z"));
  ExprPtr b = Expr::Lambda("y", Expr::Var("w"));
  EXPECT_FALSE(AlphaEqual(a, b));
}

TEST(AlphaEqual, CrossedBindersDistinguished) {
  // \x.\y. x  vs  \x.\y. y
  ExprPtr a = Expr::Lambda("x", Expr::Lambda("y", Expr::Var("x")));
  ExprPtr b = Expr::Lambda("x", Expr::Lambda("y", Expr::Var("y")));
  EXPECT_FALSE(AlphaEqual(a, b));
}

TEST(AlphaEqual, TabMultiBinder) {
  ExprPtr a = Expr::Tab({"i", "j"}, Expr::Arith(ArithOp::kAdd, Expr::Var("i"), Expr::Var("j")),
                        {Expr::Var("m"), Expr::Var("n")});
  ExprPtr b = Expr::Tab({"p", "q"}, Expr::Arith(ArithOp::kAdd, Expr::Var("p"), Expr::Var("q")),
                        {Expr::Var("m"), Expr::Var("n")});
  ExprPtr c = Expr::Tab({"p", "q"}, Expr::Arith(ArithOp::kAdd, Expr::Var("q"), Expr::Var("p")),
                        {Expr::Var("m"), Expr::Var("n")});
  EXPECT_TRUE(AlphaEqual(a, b));
  EXPECT_FALSE(AlphaEqual(a, c));
}

TEST(AlphaEqual, BinderNameCollidingWithFree) {
  // \x. y   vs  \y. y : NOT alpha-equal (y free vs bound).
  ExprPtr a = Expr::Lambda("x", Expr::Var("y"));
  ExprPtr b = Expr::Lambda("y", Expr::Var("y"));
  EXPECT_FALSE(AlphaEqual(a, b));
  EXPECT_FALSE(AlphaEqual(b, a));
}

TEST(AlphaEqual, PayloadsCompared) {
  EXPECT_FALSE(AlphaEqual(Expr::NatConst(1), Expr::NatConst(2)));
  EXPECT_FALSE(AlphaEqual(Expr::Cmp(CmpOp::kLt, Expr::Var("a"), Expr::Var("b")),
                          Expr::Cmp(CmpOp::kLe, Expr::Var("a"), Expr::Var("b"))));
  EXPECT_TRUE(AlphaEqual(Expr::Literal(Value::Nat(3)), Expr::Literal(Value::Nat(3))));
}

TEST(FreshName, AvoidsGivenNames) {
  std::set<std::string> avoid{"x$0", "x$1"};
  std::string f = FreshName("x", avoid);
  EXPECT_EQ(f, "x$2");
  EXPECT_EQ(FreshName("x$1", avoid), "x$2") << "existing suffix stripped";
}

TEST(IndexParts, SplitsSyntacticallyOrProjects) {
  ExprPtr i = Expr::Var("i"), j = Expr::Var("j");
  ExprPtr pair = Expr::Tuple({i, j});
  // Rank 1: the index itself, even when it is a tuple-valued term.
  auto one = IndexParts(i, 1);
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->size(), 1u);
  EXPECT_EQ((*one)[0], i);
  // Rank k: the fields of a literal k-tuple, and nothing else.
  auto two = IndexParts(pair, 2);
  ASSERT_TRUE(two.has_value());
  EXPECT_EQ((*two)[0], i);
  EXPECT_EQ((*two)[1], j);
  EXPECT_FALSE(IndexParts(pair, 3).has_value());
  EXPECT_FALSE(IndexParts(i, 2).has_value());
  // The projecting variant falls back to #j/k of the whole index.
  std::vector<ExprPtr> proj = ProjectedIndexParts(i, 2);
  ASSERT_EQ(proj.size(), 2u);
  EXPECT_EQ(proj[0]->ToString(), Expr::Proj(1, 2, i)->ToString());
  EXPECT_EQ(proj[1]->ToString(), Expr::Proj(2, 2, i)->ToString());
  EXPECT_EQ(ProjectedIndexParts(pair, 2)[1], j);
}

}  // namespace
}  // namespace aql
