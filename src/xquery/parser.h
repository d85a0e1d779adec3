// Recursive-descent parser for the XQIB XQuery dialect.
//
// Grammar coverage: XQuery 1.0 core expressions (FLWOR, quantified, if,
// paths with all axes, constructors, operators, casts), the Update
// Facility, the Scripting Extension (blocks, declare/set variables,
// while, exit with), simplified XQuery Full Text (ftcontains with
// ftand/ftor/ftnot and "with stemming"), and the browser grammar
// extensions the paper proposes in Sections 4.3-4.5:
//
//   EventAttach  ::= "on" "event" ExprSingle ("at"|"behind") ExprSingle
//                    "attach" "listener" QName
//   EventDetach  ::= "on" "event" ExprSingle "at" ExprSingle
//                    "detach" "listener" QName
//   EventTrigger ::= "trigger" "event" ExprSingle "at" ExprSingle
//   SetStyleExpr ::= "set" "style" ExprSingle "of" ExprSingle
//                    "to" ExprSingle
//   GetStyleExpr ::= "get" "style" ExprSingle "of" ExprSingle

#ifndef XQIB_XQUERY_PARSER_H_
#define XQIB_XQUERY_PARSER_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "base/result.h"
#include "xquery/ast.h"
#include "xquery/lexer.h"

namespace xqib::xquery {

// Deepest expression nesting the parser accepts: recursive-descent
// levels plus the links of left-deep operator chains (a + b + c …). The
// parser, the analysis passes and the tree-walking evaluator recurse
// about once per level, and the page server parses client page scripts
// on shared threads, so deeper input is an XPST0003 error instead of a
// stack overflow. Lower than xml::kMaxElementDepth because one level
// here is a whole recursive-descent cascade: an unoptimized ASan build
// overflows an 8 MB stack at about 300 parenthesised levels.
inline constexpr int kMaxExprDepth = 200;

// Parses a main or library module. Statically resolves QNames against the
// prolog's namespace declarations plus the built-in bindings (xs, fn,
// local, browser, http).
Result<std::unique_ptr<Module>> ParseModule(std::string_view query);

// Parses a single expression (no prolog); convenience for tests/XPath.
Result<std::unique_ptr<Module>> ParseExpression(std::string_view expr);

}  // namespace xqib::xquery

#endif  // XQIB_XQUERY_PARSER_H_
