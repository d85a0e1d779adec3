// Tests for the rewrite optimizer: every rule must preserve semantics
// (checked by evaluating both forms) and fire where expected.

#include <gtest/gtest.h>

#include "xml/xml_parser.h"
#include "xquery/engine.h"
#include "xquery/optimizer.h"
#include "xquery/parser.h"

namespace xqib::xquery {
namespace {

OptimizerStats Optimize(const std::string& query, ExprPtr* out = nullptr) {
  auto module = ParseModule(query);
  EXPECT_TRUE(module.ok()) << module.status().ToString();
  OptimizerStats stats = OptimizeModule(module->get(), OptimizerOptions());
  if (out != nullptr) *out = std::move((*module)->body);
  return stats;
}

// Evaluates a query with and without optimization; both results must
// agree (semantic preservation).
std::string EvalBoth(const std::string& query, const std::string& xml = "") {
  std::string results[2];
  for (int pass = 0; pass < 2; ++pass) {
    Engine engine;
    CompileOptions options;
    options.optimize = pass == 1;
    auto q = engine.Compile(query, options);
    if (!q.ok()) return "PARSE-ERROR " + q.status().ToString();
    DynamicContext ctx;
    std::unique_ptr<xml::Document> doc;
    if (!xml.empty()) {
      doc = std::move(xml::ParseDocument(xml)).value();
      DynamicContext::Focus f;
      f.item = xdm::Item::Node(doc->root());
      f.position = 1;
      f.size = 1;
      f.has_item = true;
      ctx.set_focus(f);
    }
    Status b = (*q)->BindGlobals(ctx);
    if (!b.ok()) return "BIND-ERROR";
    auto r = (*q)->Run(ctx);
    results[pass] = r.ok() ? xdm::SequenceToString(*r)
                           : "ERROR " + r.status().code();
  }
  EXPECT_EQ(results[0], results[1]) << "optimizer changed semantics of: "
                                    << query;
  return results[1];
}

TEST(ConstantFolding, Arithmetic) {
  EXPECT_GE(Optimize("1 + 2").folded_constants, 1);
  EXPECT_GE(Optimize("2 * 3 + 4").folded_constants, 2);
  EXPECT_GE(Optimize("-(5)").folded_constants, 1);
  EXPECT_EQ(EvalBoth("1 + 2 * 3"), "7");
  EXPECT_EQ(EvalBoth("7 idiv 2 + 7 mod 2"), "4");
}

TEST(ConstantFolding, DivisionByZeroIsNotFolded) {
  // The runtime error must survive.
  EXPECT_EQ(Optimize("1 idiv 0").folded_constants, 0);
  EXPECT_EQ(EvalBoth("1 idiv 0"), "ERROR FOAR0001");
}

TEST(ConstantFolding, InexactDivisionIsNotFoldedToInteger) {
  EXPECT_EQ(EvalBoth("10 div 4"), "2.5");
}

TEST(ConstantFolding, Comparisons) {
  EXPECT_GE(Optimize("1 < 2").folded_constants, 1);
  EXPECT_GE(Optimize("'a' eq 'a'").folded_constants, 1);
  EXPECT_EQ(EvalBoth("3 >= 4"), "false");
}

TEST(BranchElimination, ConstantIf) {
  EXPECT_GE(Optimize("if (true()) then 1 else 2").eliminated_branches, 0);
  // Folding happens through fn:true() only when the comparison feeding
  // the branch is itself literal:
  ExprPtr body;
  OptimizerStats stats = Optimize("if (1 < 2) then 'a' else 'b'", &body);
  EXPECT_GE(stats.folded_constants, 1);
  EXPECT_GE(stats.eliminated_branches, 1);
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->kind, ExprKind::kLiteral);
  EXPECT_EQ(EvalBoth("if (1 < 2) then 'a' else 'b'"), "a");
}

TEST(BranchElimination, LogicalOperators) {
  EXPECT_GE(Optimize("1 = 1 and 2 = 2").eliminated_branches, 1);
  EXPECT_GE(Optimize("1 = 2 or 3 = 3").eliminated_branches, 1);
  EXPECT_EQ(EvalBoth("1 = 1 and 2 = 3"), "false");
  EXPECT_EQ(EvalBoth("1 = 2 or 3 = 3"), "true");
}

TEST(BranchElimination, FLWORWhereConstant) {
  EXPECT_GE(Optimize("for $x in (1, 2) where 1 = 2 return $x")
                .eliminated_branches,
            1);
  EXPECT_EQ(EvalBoth("for $x in (1, 2) where 1 = 2 return $x"), "");
  EXPECT_EQ(EvalBoth("for $x in (1, 2) where 1 = 1 return $x"), "1 2");
}

TEST(CardinalityRewrites, CountComparisons) {
  EXPECT_EQ(Optimize("count(//a) = 0").cardinality_rewritten, 1);
  EXPECT_EQ(Optimize("count(//a) > 0").cardinality_rewritten, 1);
  EXPECT_EQ(Optimize("count(//a) != 0").cardinality_rewritten, 1);
  EXPECT_EQ(Optimize("count(//a) >= 1").cardinality_rewritten, 1);
  EXPECT_EQ(Optimize("0 = count(//a)").cardinality_rewritten, 1);
  EXPECT_EQ(Optimize("0 < count(//a)").cardinality_rewritten, 1);
  // Not rewritten: exact counts.
  EXPECT_EQ(Optimize("count(//a) = 3").cardinality_rewritten, 0);
}

TEST(CardinalityRewrites, PreservesSemantics) {
  const char* doc = "<r><a/><a/></r>";
  EXPECT_EQ(EvalBoth("count(//a) = 0", doc), "false");
  EXPECT_EQ(EvalBoth("count(//a) > 0", doc), "true");
  EXPECT_EQ(EvalBoth("count(//b) = 0", doc), "true");
  EXPECT_EQ(EvalBoth("0 < count(//a)", doc), "true");
  EXPECT_EQ(EvalBoth("count(//a) = 2", doc), "true");
}

TEST(BooleanSimplification, NotChains) {
  EXPECT_EQ(Optimize("not(not(//a))").boolean_simplified, 1);
  EXPECT_EQ(Optimize("not(empty(//a))").boolean_simplified, 1);
  EXPECT_EQ(Optimize("not(exists(//a))").boolean_simplified, 1);
  const char* doc = "<r><a/></r>";
  EXPECT_EQ(EvalBoth("not(not(//a))", doc), "true");
  EXPECT_EQ(EvalBoth("not(empty(//a))", doc), "true");
  EXPECT_EQ(EvalBoth("not(exists(//b))", doc), "true");
}

TEST(Optimizer, RewritesInsideFLWORAndFunctions) {
  OptimizerStats stats = Optimize(
      "declare function local:f($x) { $x + (1 + 2) }; "
      "for $i in 1 to 3 where count(//a) > 0 return local:f($i * (2 + 3))");
  EXPECT_GE(stats.folded_constants, 2);
  EXPECT_EQ(stats.cardinality_rewritten, 1);
}

TEST(Optimizer, RewritesInsideConstructors) {
  OptimizerStats stats = Optimize("<a x=\"{1 + 2}\">{3 * 4}</a>");
  EXPECT_GE(stats.folded_constants, 2);
  EXPECT_EQ(EvalBoth("string(<a x=\"{1 + 2}\">{3 * 4}</a>/@x)"), "3");
}

TEST(PathCollapsing, DescendantChildFuses) {
  ExprPtr body;
  OptimizerStats stats = Optimize("//a/b", &body);
  EXPECT_EQ(stats.paths_collapsed, 1);  // only the predicate-free //a
  ASSERT_EQ(body->kind, ExprKind::kPath);
  // //a collapsed to descendant::a; /b stays child::b.
  ASSERT_EQ(body->steps.size(), 2u);
  EXPECT_EQ(body->steps[0].axis, Axis::kDescendant);
  EXPECT_EQ(body->steps[1].axis, Axis::kChild);
}

TEST(PathCollapsing, PositionFreePredicatesFuse) {
  // Comparisons, and/or and axis paths are booleans or nodes, never a
  // position number, and read neither position() nor last().
  for (const char* q : {"//a[@p]", "//a[b]", "//a[@p = 1 and c]",
                        "//a[some $x in b satisfies $x = 1]"}) {
    ExprPtr body;
    EXPECT_EQ(Optimize(q, &body).paths_collapsed, 1) << q;
    ASSERT_EQ(body->steps.size(), 1u) << q;
    EXPECT_EQ(body->steps[0].axis, Axis::kDescendant) << q;
    EXPECT_EQ(body->steps[0].predicates.size(), 1u) << q;
  }
}

TEST(PathCollapsing, PositionalPredicatesBlockFusion) {
  for (const char* q :
       {"//b[1]", "//b[last()]", "//b[position() < 2]",
        "declare variable $n external; //b[$n]", "//b[@p][1]",
        "//b[@p = last()]",
        // A declared function inherits the focus, so it may read it,
        // also when it is declared in the fn: namespace.
        "declare function local:f() { 1 }; //b[local:f() = 1]",
        "declare function fn:f() { 1 }; //b[fn:f() = 1]"}) {
    ExprPtr body;
    EXPECT_EQ(Optimize(q, &body).paths_collapsed, 0) << q;
    ASSERT_EQ(body->steps.size(), 2u) << q;
    EXPECT_EQ(body->steps[0].axis, Axis::kDescendantOrSelf) << q;
  }
}

TEST(PathCollapsing, PreservesSemantics) {
  const char* doc = "<r><a><b/><a><b/><b/></a></a><b/></r>";
  EXPECT_EQ(EvalBoth("count(//a)", doc), "2");
  EXPECT_EQ(EvalBoth("count(//b)", doc), "4");
  EXPECT_EQ(EvalBoth("count(//a/b)", doc), "3");
  // The positional case the fusion must NOT change: each a's first b.
  EXPECT_EQ(EvalBoth("count(//a/b[1])", doc), "2");
  EXPECT_EQ(EvalBoth("count(//b[1])", doc), "3");
  EXPECT_EQ(EvalBoth("count(//b[last()])", doc), "3");
  EXPECT_EQ(EvalBoth("count(//b[position() < 2])", doc), "3");
  EXPECT_EQ(EvalBoth("declare function fn:f() { position() }; "
                     "count(//b[fn:f() = 1])",
                     doc),
            "3");
  // Fused predicated steps, from the root and from a mid-tree origin.
  EXPECT_EQ(EvalBoth("count(//a[b])", doc), "2");
  EXPECT_EQ(EvalBoth("count(//a[a])", doc), "1");
  EXPECT_EQ(EvalBoth("count(/r/a//b[not(*)])", doc), "3");
  EXPECT_EQ(EvalBoth("count((//a)[2]//b[. = ''])", doc), "2");
}

TEST(Optimizer, DisabledRulesDoNothing) {
  auto module = ParseModule("1 + 2");
  ASSERT_TRUE(module.ok());
  OptimizerOptions off;
  off.constant_folding = false;
  off.branch_elimination = false;
  off.cardinality_rewrites = false;
  off.boolean_simplification = false;
  off.path_collapsing = false;
  off.ordering_elision = false;
  OptimizerStats stats = OptimizeModule(module->get(), off);
  EXPECT_EQ(stats.total(), 0);
}

TEST(OrderingElision, ChildChainsFullyElide) {
  // Root-anchored child chains stay sorted at every step.
  EXPECT_EQ(Optimize("/a/b/c").sort_elisions, 3);
  EXPECT_EQ(Optimize("/a/@id").sort_elisions, 2);
  // After a descendant step, a child step can interleave: only the
  // first two steps are provably ordered ("//b" collapses to one
  // descendant step from the root).
  EXPECT_EQ(Optimize("//b/c").sort_elisions, 1);
}

TEST(OrderingElision, ReverseAxesNeverElide) {
  EXPECT_EQ(Optimize("/a/b/ancestor::*").sort_elisions, 2);
  EXPECT_EQ(Optimize("/a/b/preceding-sibling::*").sort_elisions, 2);
  EXPECT_EQ(Optimize("/a/b/preceding::*").sort_elisions, 2);
}

TEST(OrderingElision, AttributesElideEvenAfterDescendant) {
  // Attribute keys sort between their element and its first child, and
  // attributes of distinct elements never collide — elidable even from
  // a context with ancestor pairs.
  EXPECT_EQ(Optimize("//@p").sort_elisions, 2);
}

TEST(OrderingElision, UnknownContextBlocksElision) {
  // Without analyzer facts, $x has unproven cardinality, so $x/b must
  // sort; the only elision is "//a" (collapsed to one descendant step).
  EXPECT_EQ(Optimize("for $x in //a return $x/b").sort_elisions, 1);
}

TEST(OrderingElision, DisabledFlagLeavesStepsUnannotated) {
  OptimizerOptions off;
  off.ordering_elision = false;
  auto module = ParseModule("/a/b/c");
  ASSERT_TRUE(module.ok());
  OptimizerStats stats = OptimizeModule(module->get(), off);
  EXPECT_EQ(stats.sort_elisions, 0);
}

TEST(OrderingElision, PreservesSemantics) {
  const char* xml = "<r><a p='1'><b/><b/></a><a p='2'><b/></a></r>";
  EXPECT_EQ(EvalBoth("/r/a/b", xml), EvalBoth("/r/a/b", xml));
  EXPECT_EQ(EvalBoth("count(//a/b)", xml), "3");
  EXPECT_EQ(EvalBoth("//a/@p", xml), "1 2");
  EXPECT_EQ(EvalBoth("string-join(for $x in //b return 'b', '')", xml),
            "bbb");
}

// Property-style sweep: the optimizer must preserve results on a corpus
// of mixed queries.
class OptimizerPropertyTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(OptimizerPropertyTest, OptimizedResultMatchesUnoptimized) {
  EvalBoth(GetParam(), "<r><a p='1'>x</a><a p='2'>y</a><b>z</b></r>");
}

INSTANTIATE_TEST_SUITE_P(
    QueryCorpus, OptimizerPropertyTest,
    ::testing::Values(
        "1 + 2 * 3 - 4 idiv 2",
        "for $x in //a return string($x/@p)",
        "if (count(//a) > 0) then 'yes' else 'no'",
        "count(//a) = 0 or count(//b) != 0",
        "not(not(//a[@p = '1']))",
        "for $x in //a where 1 = 1 order by $x/@p descending return $x",
        "some $x in //a satisfies $x = 'x'",
        "string-join(for $i in 1 to 5 return string($i * (1 + 1)), ',')",
        "(//a | //b)[2]",
        "<out n=\"{2 + 3}\">{for $a in //a return <i>{$a/text()}</i>}</out>"
        "/@n",
        "every $x in //a satisfies exists($x/@p)",
        "count(//a[not(empty(@p))])"));

}  // namespace
}  // namespace xqib::xquery
