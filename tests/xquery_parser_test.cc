// Parser-focused tests: grammar coverage of the extensions, error codes
// for malformed input, and AST shapes for the browser grammar.

#include <gtest/gtest.h>

#include <string>

#include "xquery/engine.h"
#include "xquery/parser.h"

namespace xqib::xquery {
namespace {

std::string ParseErrorCode(const std::string& query) {
  auto m = ParseModule(query);
  return m.ok() ? "OK" : m.status().code();
}

const Expr* Body(const std::unique_ptr<Module>& m) {
  return m->body.get();
}

TEST(ParserErrors, Syntax) {
  EXPECT_EQ(ParseErrorCode("1 +"), "XPST0003");
  EXPECT_EQ(ParseErrorCode("for $x in"), "XPST0003");
  EXPECT_EQ(ParseErrorCode("if (1) then 2"), "XPST0003");  // missing else
  EXPECT_EQ(ParseErrorCode("<a><b></a>"), "XPST0003");
  EXPECT_EQ(ParseErrorCode("'unterminated"), "XPST0003");
  EXPECT_EQ(ParseErrorCode("1 2"), "XPST0003");  // trailing content
  EXPECT_EQ(ParseErrorCode("declare variable $x 1; $x"), "XPST0003");
}

std::string Repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

// Nesting and left-deep operator chains share one bound: the deepest
// accepted form of each shape still compiles and evaluates (the
// evaluator recurses per level too), one level more is XPST0003 rather
// than a stack overflow.
TEST(ParserErrors, ExpressionDepthIsBounded) {
  const int n = kMaxExprDepth;
  struct Shape {
    std::string deepest;   // exactly kMaxExprDepth levels
    std::string too_deep;  // one level more
    std::string value;     // the deepest form's result
  };
  auto chain = [](int terms) {
    std::string q = "1";
    for (int i = 1; i < terms; ++i) q += "+1";
    return q;
  };
  auto element = [](int depth) {
    return Repeat("<a>", depth) + "x" + Repeat("</a>", depth);
  };
  const Shape shapes[] = {
      // The top-level expression is one level; each parenthesis another.
      {Repeat("(", n - 1) + "1" + Repeat(")", n - 1),
       Repeat("(", n) + "1" + Repeat(")", n), "1"},
      // Every `+` link wraps the chain so far.
      {chain(n), chain(n + 1), std::to_string(n)},
      {Repeat("-", n - 1) + "1", Repeat("-", n) + "1", "-1"},
      {"string(" + element(n - 2) + ")", "string(" + element(n - 1) + ")",
       "x"},
  };
  for (const Shape& shape : shapes) {
    EXPECT_EQ(ParseErrorCode(shape.too_deep), "XPST0003")
        << shape.too_deep.substr(0, 40);
    Engine engine;
    auto q = engine.Compile(shape.deepest);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    DynamicContext ctx;
    auto r = (*q)->Run(ctx);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(xdm::SequenceToString(*r), shape.value)
        << shape.deepest.substr(0, 40);
  }
}

TEST(ParserErrors, MessagesCarryExactLineAndColumn) {
  // Every parser/lexer error embeds the position of the offending token.
  auto message = [](const std::string& query) {
    auto m = ParseModule(query);
    return m.ok() ? std::string("OK") : m.status().message();
  };
  EXPECT_EQ(message("'unterminated"),
            "unterminated string literal (at line 1, column 1)");
  EXPECT_EQ(message("let $x := 1\nreturn $$"),
            "expected variable name after '$' (at line 2, column 8)");
  EXPECT_EQ(message("1 2"),
            "unexpected trailing content (at line 1, column 3, near '2')");
  EXPECT_EQ(message("if (1)\nthen 2"),
            "expected 'else' (at line 2, column 7, near '')");
}

TEST(ParserErrors, UndeclaredPrefix) {
  EXPECT_EQ(ParseErrorCode("zz:func(1)"), "XPST0081");
  EXPECT_EQ(ParseErrorCode("//zz:elem"), "XPST0081");
}

TEST(ParserErrors, UnsupportedFeaturesAreCleanErrors) {
  // typeswitch without a case clause is rejected cleanly.
  EXPECT_EQ(ParseErrorCode("typeswitch (1) default return 2"), "XPST0003");
  EXPECT_EQ(ParseErrorCode(
                "typeswitch (1) case xs:integer return 1 default return 2"),
            "OK");
}

TEST(ParserAst, EventAttachShape) {
  auto m = ParseModule(
      "on event \"onclick\" at //input attach listener local:f");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  const Expr* e = Body(*m);
  ASSERT_EQ(e->kind, ExprKind::kEventAttach);
  EXPECT_FALSE(e->behind);
  EXPECT_EQ(e->qname.local(), "f");
  EXPECT_EQ(e->qname.ns(), "http://www.w3.org/2005/xquery-local-functions");
  ASSERT_EQ(e->kids.size(), 2u);
  EXPECT_EQ(e->kids[0]->kind, ExprKind::kLiteral);
  EXPECT_EQ(e->kids[1]->kind, ExprKind::kPath);
}

TEST(ParserAst, EventDetachShape) {
  auto m = ParseModule(
      "on event \"onclick\" at //input detach listener local:f");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(Body(*m)->kind, ExprKind::kEventDetach);
}

TEST(ParserAst, EventBehindShape) {
  auto m = ParseModule(
      "on event \"stateChanged\" behind local:call(1) "
      "attach listener local:done");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  const Expr* e = Body(*m);
  ASSERT_EQ(e->kind, ExprKind::kEventAttach);
  EXPECT_TRUE(e->behind);
  EXPECT_EQ(e->kids[1]->kind, ExprKind::kFunctionCall);
}

TEST(ParserAst, TriggerShape) {
  auto m = ParseModule("trigger event \"onclick\" at //input[@id=\"b\"]");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(Body(*m)->kind, ExprKind::kEventTrigger);
}

TEST(ParserAst, StyleShapes) {
  auto set = ParseModule("set style \"color\" of //d to \"red\"");
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(Body(*set)->kind, ExprKind::kSetStyle);
  EXPECT_EQ(Body(*set)->kids.size(), 3u);
  auto get = ParseModule("get style \"color\" of //d");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(Body(*get)->kind, ExprKind::kGetStyle);
}

TEST(ParserAst, SetStyleTargetDoesNotEatRangeTo) {
  // "to" binds to the style production, not a range expression.
  auto m = ParseModule("set style \"a\" of //x[1] to \"b\"");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(Body(*m)->kind, ExprKind::kSetStyle);
}

TEST(ParserAst, ModulePortExtension) {
  auto m = ParseModule(
      "module namespace ex = \"www.example.ch\" port:2001;\n"
      "declare option fn:webservice \"true\";\n"
      "declare function ex:mul($a, $b) { $a * $b };");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_TRUE((*m)->is_library);
  EXPECT_EQ((*m)->module_ns, "www.example.ch");
  EXPECT_EQ((*m)->service_port, 2001);
  ASSERT_EQ((*m)->functions.size(), 1u);
  EXPECT_EQ((*m)->functions[0]->params.size(), 2u);
}

TEST(ParserAst, FunctionAnnotations) {
  auto m = ParseModule(
      "declare updating function local:u($x) { delete node $x };\n"
      "declare sequential function local:s() { 1 };\n"
      "1");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_TRUE((*m)->functions[0]->updating);
  EXPECT_FALSE((*m)->functions[0]->sequential);
  EXPECT_TRUE((*m)->functions[1]->sequential);
}

TEST(ParserAst, ImportRecordsLocation) {
  auto m = ParseModule(
      "import module namespace ab = \"http://example.com\" "
      "at \"http://localhost:2001/wsdl\";\n"
      "ab:f()");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  ASSERT_EQ((*m)->imports.size(), 1u);
  EXPECT_EQ((*m)->imports[0].ns, "http://example.com");
  EXPECT_EQ((*m)->imports[0].location, "http://localhost:2001/wsdl");
}

TEST(ParserAst, PathSteps) {
  auto m = ParseModule("/a/b//c/@d");
  ASSERT_TRUE(m.ok());
  const Expr* e = Body(*m);
  ASSERT_EQ(e->kind, ExprKind::kPath);
  EXPECT_TRUE(e->root_anchored);
  // a, b, descendant-or-self, c, @d
  ASSERT_EQ(e->steps.size(), 5u);
  EXPECT_EQ(e->steps[2].axis, Axis::kDescendantOrSelf);
  EXPECT_EQ(e->steps[4].axis, Axis::kAttribute);
}

TEST(ParserAst, ExplicitAxes) {
  const char* axes[] = {
      "child", "descendant", "descendant-or-self", "self", "attribute",
      "parent", "ancestor", "ancestor-or-self", "following-sibling",
      "preceding-sibling", "following", "preceding"};
  for (const char* axis : axes) {
    auto m = ParseModule("//x/" + std::string(axis) + "::node()");
    EXPECT_TRUE(m.ok()) << axis << ": " << m.status().ToString();
  }
  EXPECT_EQ(ParseErrorCode("//x/sideways::node()"), "XPST0003");
}

TEST(ParserAst, CommentsAreSkippedAndNest) {
  auto m = ParseModule("1 (: outer (: inner :) still :) + 2");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(Body(*m)->kind, ExprKind::kArith);
}

TEST(ParserAst, WildcardNameTests) {
  EXPECT_EQ(ParseErrorCode("//*"), "OK");
  EXPECT_EQ(ParseErrorCode("//*:local"), "OK");
  EXPECT_EQ(ParseErrorCode("declare namespace p = 'urn:p'; //p:*"), "OK");
}

TEST(ParserAst, StringEscapes) {
  auto m = ParseModule(R"("say ""hi""")");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(Body(*m)->atom.string_value(), "say \"hi\"");
  auto m2 = ParseModule("'it''s'");
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(Body(*m2)->atom.string_value(), "it's");
}

TEST(ParserAst, PaperSyntaxVariants) {
  // The paper writes `declare variable $message = <...>` (with '=').
  EXPECT_EQ(ParseErrorCode(
                "{ declare variable $m = <message>hi</message>; $m }"),
            "OK");
  // And `do replace ... with ...` (XQueryP-style "do" prefix).
  EXPECT_EQ(ParseErrorCode("do replace value of //a with 1"), "OK");
  EXPECT_EQ(ParseErrorCode("do insert node <x/> into //a"), "OK");
}

TEST(ParserAst, DirectConstructorEdgeCases) {
  EXPECT_EQ(ParseErrorCode("<a b=\"{1}{2}\"/>"), "OK");  // two encl. parts
  EXPECT_EQ(ParseErrorCode("<a>{{ }}</a>"), "OK");       // escaped braces
  EXPECT_EQ(ParseErrorCode("<a><![CDATA[<x>]]></a>"), "OK");
  EXPECT_EQ(ParseErrorCode("<a><!-- c --><?pi d?></a>"), "OK");
  EXPECT_EQ(ParseErrorCode("<a xmlns:p=\"urn:x\"><p:b/></a>"), "OK");
  EXPECT_EQ(ParseErrorCode("<a>{</a>"), "XPST0003");
  EXPECT_EQ(ParseErrorCode("<a x=1/>"), "XPST0003");  // unquoted attr
}

TEST(ParserAst, NestedEnclosedExpressions) {
  EXPECT_EQ(ParseErrorCode(
                "<t>{ for $i in 1 to 2 return <u v=\"{$i}\">{"
                "if ($i = 1) then <w/> else 'x'}</u> }</t>"),
            "OK");
}

}  // namespace
}  // namespace xqib::xquery
