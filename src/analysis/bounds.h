// BoundsAnalysis: an abstract interpretation over index arithmetic that
// proves `index < shape` facts for array subscripts (paper §5; full bound
// checking is undecidable — Proposition 5.1 — so this is a sound,
// incomplete prover).
//
// The interpreter tracks, per nat-valued expression, an exclusive upper
// bound that is either a constant or a symbolic expression compared up to
// alpha:
//
//   - tabulation binders:  [[ e | i < b ]]      gives  i < b
//   - gen binders:         U{ e | i in gen(n) } gives  i < n
//   - conditional guards:  if i < b then e ...  gives  i < b inside e
//   - arithmetic:          i % n < n,  i / n <= i,  i - n <= i (monus),
//                          constant folding for +, *, and if-joins
//
// For every subscript a[e] the analysis decides, per dimension, whether
// the index is provably below the array's extent (the extent of a
// tabulation is its bound; of a materialized or dense literal its
// constant dims; of anything else the symbolic `dim_k(a)` term). The
// summary reports which of the §5 bound-check eliminations are justified
// by a proof versus merely trusting the runtime's partial-function ⊥.

#ifndef AQL_ANALYSIS_BOUNDS_H_
#define AQL_ANALYSIS_BOUNDS_H_

#include <string>
#include <vector>

#include "core/expr.h"

namespace aql {
namespace analysis {

// One array subscript seen by the analysis.
struct SubscriptFact {
  std::string path;    // child-index path from the root, e.g. "0.1"
  std::string expr;    // the subscript, array operand as RenderArrayExpr
  bool proven = false; // every index component proven below its extent
  std::string detail;  // which components were proven / why not
};

struct BoundsSummary {
  size_t subscripts = 0;        // array subscripts analyzed
  size_t proven = 0;            // fully proven in-bounds (elimination justified)
  size_t unproven = 0;          // relying on the runtime ⊥ check
  size_t residual_guards = 0;   // `e1 < e2` comparisons still in the term
  size_t provable_guards = 0;   // residual guards the analysis can prove true
  std::vector<SubscriptFact> facts;  // capped at kMaxFacts entries

  static constexpr size_t kMaxFacts = 32;

  // "bounds: 3 subscripts, 2 proven in-bounds, 1 trusting runtime ⊥; ..."
  std::string ToString() const;
};

// Analyzes a core term (typically an optimized plan). Never fails; an
// expression shape the interpreter does not understand just yields
// "unproven".
BoundsSummary AnalyzeBounds(const ExprPtr& e);

}  // namespace analysis
}  // namespace aql

#endif  // AQL_ANALYSIS_BOUNDS_H_
