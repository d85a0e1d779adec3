// Rule-based AST rewriter backing the paper's §1 claim that "XQuery is
// carefully designed to be highly optimisable": because expressions are
// declarative, the engine can rewrite them without changing semantics.
//
// Implemented rules (each individually toggleable for the A1 ablation
// benchmark):
//   * constant folding      — arithmetic/comparison/logic over literals
//   * branch elimination    — if/where/logical with constant conditions
//   * cardinality rewrites  — count(E) = 0 -> empty(E),
//                             count(E) > 0 / != 0 -> exists(E)
//   * positional shortcut   — E[1] marks first-match-only evaluation
//                             hints for the evaluator (predicate is kept;
//                             the rewrite is the canonical exists form)
//   * boolean simplification— not(not(E)) -> boolean(E),
//                             empty(E) inverted to exists and vice versa
//   * path collapsing       — descendant-or-self::node()/child::T[p]
//                             -> descendant::T[p] when every p is
//                             position-free, avoiding the full-node
//                             intermediate sequence "//T" otherwise
//                             builds; from one attached node the fused
//                             step is an element-name-index range
//   * inferred rewrites     — cardinalities proved by the static analyzer
//                             (AnalysisFacts) let count/exists/empty and
//                             positional filters fold on *inferred*
//                             singletons, not just syntactic ones:
//                             exists($i) -> true() when $i: exactly-one
//   * ordering elision      — path steps whose raw output is provably in
//                             document order and duplicate-free (e.g. a
//                             singleton-context child::/attribute::/
//                             self:: chain) are annotated so the
//                             evaluator skips SortDocumentOrderDedup

#ifndef XQIB_XQUERY_OPTIMIZER_H_
#define XQIB_XQUERY_OPTIMIZER_H_

#include "xquery/analysis/facts.h"
#include "xquery/ast.h"

namespace xqib::xquery {

struct OptimizerOptions {
  bool constant_folding = true;
  bool branch_elimination = true;
  bool cardinality_rewrites = true;
  bool boolean_simplification = true;
  bool path_collapsing = true;
  bool inferred_rewrites = true;  // no-op unless facts are supplied
  bool ordering_elision = true;
};

struct OptimizerStats {
  int folded_constants = 0;
  int eliminated_branches = 0;
  int cardinality_rewritten = 0;
  int boolean_simplified = 0;
  int paths_collapsed = 0;
  int inferred_rewrites = 0;
  int sort_elisions = 0;  // steps annotated order-preserving + dup-free
  int total() const {
    return folded_constants + eliminated_branches + cardinality_rewritten +
           boolean_simplified + paths_collapsed + inferred_rewrites +
           sort_elisions;
  }
};

// Rewrites the expression tree in place; returns rewrite statistics.
// `facts` (optional) supplies analyzer-inferred cardinalities keyed by
// the pre-rewrite Expr nodes; run the analyzer on the same tree first.
OptimizerStats OptimizeExpr(ExprPtr* expr, const OptimizerOptions& options,
                            const analysis::AnalysisFacts* facts = nullptr);

// Optimizes a whole module: global variable initializers, function
// bodies, and the query body.
OptimizerStats OptimizeModule(Module* module, const OptimizerOptions& options,
                              const analysis::AnalysisFacts* facts = nullptr);

}  // namespace xqib::xquery

#endif  // XQIB_XQUERY_OPTIMIZER_H_
