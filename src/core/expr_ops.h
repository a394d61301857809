// Binding-aware operations on core expressions: free variables,
// capture-avoiding substitution, alpha-equivalence, fresh names.
//
// These are the workhorses of the optimizer (§5): the beta rule for
// functions and the beta^p rule for arrays are both "substitute, avoiding
// capture", and rule soundness tests compare results up to alpha.

#ifndef AQL_CORE_EXPR_OPS_H_
#define AQL_CORE_EXPR_OPS_H_

#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/expr.h"

namespace aql {

// Free variables of e (bound occurrences excluded).
std::set<std::string> FreeVars(const ExprPtr& e);

// True iff `name` occurs free in e.
bool OccursFree(const ExprPtr& e, const std::string& name);

// Returns a name not present in `avoid`, derived from `base`.
// Fresh names use a '$' suffix, which the surface lexer never produces,
// so generated names can never collide with user names.
std::string FreshName(const std::string& base, const std::set<std::string>& avoid);

// e with every free occurrence of `var` replaced by `replacement`,
// alpha-renaming binders as needed to avoid capturing replacement's
// free variables.
ExprPtr Substitute(const ExprPtr& e, const std::string& var, const ExprPtr& replacement);

// Simultaneous capture-avoiding substitution.
ExprPtr SubstituteAll(const ExprPtr& e,
                      const std::unordered_map<std::string, ExprPtr>& subst);

// Structural equality up to renaming of bound variables.
bool AlphaEqual(const ExprPtr& a, const ExprPtr& b);

// Structural hash consistent with alpha-equivalence:
// AlphaEqual(a, b)  ⇒  HashExpr(a) == HashExpr(b).
// Bound variables hash by binding index (de Bruijn style), free variables
// and externals by name, literals via HashValue. This is the key function
// of the service layer's plan cache (src/service/plan_cache.h): resolved
// core expressions are bucketed by HashExpr and confirmed by AlphaEqual.
uint64_t HashExpr(const ExprPtr& e);

// Approximate heap footprint of a term in bytes: per-node overhead plus
// binder/name strings and literal payloads (object/value.h's
// ApproxValueBytes). Shared subterms are charged at every reference —
// deliberate, since cache eviction wants the cost of keeping the tree
// reachable, not its minimal DAG size. Used by the byte-bounded caches.
uint64_t ApproxExprBytes(const ExprPtr& e);

// Per-dimension parts of a rank-k subscript index: the index itself when
// k == 1, the fields of a literal k-tuple otherwise. nullopt for any other
// shape, so a caller that needs "part j" syntactically (a slab matcher,
// a kernel proof) never sees a projection.
std::optional<std::vector<ExprPtr>> IndexParts(const ExprPtr& idx, size_t k);

// IndexParts, falling back to the projections #1/k idx, ..., #k/k idx when
// the index does not split syntactically: the decomposition beta^p
// substitutes and the bounds provers reason about.
std::vector<ExprPtr> ProjectedIndexParts(const ExprPtr& idx, size_t k);

}  // namespace aql

#endif  // AQL_CORE_EXPR_OPS_H_
