// Streaming-pipeline tests (pull-based ItemStream evaluation): a
// result oracle over deterministic pseudo-random pages (expected values
// captured from the eager pre-streaming engine, checked for the tree
// walker and for compiled plans), position()/last() semantics in
// streamed predicates, laziness proofs (bounded consumers stop pulling
// from huge domains), and the fn:count name-index fast path including
// its invalidation under document mutation.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "random_page.h"
#include "xml/serializer.h"
#include "xml/xml_parser.h"
#include "xquery/engine.h"

namespace xqib::xquery {
namespace {

using xdm::Sequence;

// Evaluates `query` against `xml` and renders the result: nodes
// serialized, atomics as their string value, space-separated.
std::string EvalWith(const std::string& query, const std::string& xml,
                     const Evaluator::EvalOptions& options = {},
                     Evaluator::EvalStats* stats = nullptr) {
  Engine engine;
  auto compiled = engine.Compile(query);
  if (!compiled.ok()) return "PARSE-ERROR: " + compiled.status().ToString();
  (*compiled)->evaluator().set_options(options);
  DynamicContext ctx;
  std::unique_ptr<xml::Document> doc;
  if (!xml.empty()) {
    auto parsed = xml::ParseDocument(xml);
    if (!parsed.ok()) return "XML-ERROR: " + parsed.status().ToString();
    doc = std::move(parsed).value();
    DynamicContext::Focus f;
    f.item = xdm::Item::Node(doc->root());
    f.position = 1;
    f.size = 1;
    f.has_item = true;
    ctx.set_focus(f);
  }
  Status bound = (*compiled)->BindGlobals(ctx);
  if (!bound.ok()) return "BIND-ERROR: " + bound.ToString();
  auto result = (*compiled)->Run(ctx);
  if (stats != nullptr) *stats = (*compiled)->evaluator().stats();
  if (!result.ok()) return "ERROR: " + result.status().code();
  std::string out;
  for (const xdm::Item& item : *result) {
    if (!out.empty()) out += ' ';
    out += item.is_node() ? xml::Serialize(item.node()) : item.StringValue();
  }
  return out;
}

// FNV-1a: long expected results are pinned by length and hash.
uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// An expected result: the literal text, or (text == nullptr) the length
// and FNV-1a hash of a long one.
struct Expected {
  const char* text;
  size_t length;
  uint64_t hash;
};

void ExpectResult(const std::string& got, const Expected& want,
                  const std::string& where) {
  if (want.text != nullptr) {
    EXPECT_EQ(got, want.text) << where;
    return;
  }
  EXPECT_EQ(got.size(), want.length) << where;
  EXPECT_EQ(Fnv1a64(got), want.hash) << where << "\n  got: " << got;
}

// ----------------------------------------------------- result oracle ---

// The oracle: every query's result on every page equals the value the
// eager pre-streaming engine (sort barrier on every step, no name index,
// no early exit) produced, byte for byte — document order, dedup and
// predicate semantics included. Each query also runs as the body of a
// declared function with compiled plans on and off, so the plan
// executor's index steps are checked against the tree walker.
TEST(StreamingOracle, RandomPagesMatchTheEagerEnginesResults) {
  const char* queries[] = {
      "//item",
      "//item/@v",
      "//sec/item",
      "count(//item)",
      "count(//item/..)",       // dedup under an aggregate
      "string-join(//note, ',')",
      "exists(//leaf)",
      "empty(//missing)",
      "string((//item)[1]/@v)",
      "string((//item)[last()]/@v)",
      "string((//item)[3]/@v)",
      "string-join(//item[position() = 2]/@v, ' ')",
      "string-join(//item[last()]/@v, ' ')",
      "string-join(//sec[note]/@id, ' ')",
      "string-join(//item[@v > 50]/@v, ' ')",
      "sum(//item/@v)",
      "for $i in //sec/item where $i/@v > 30 return string($i/@v)",
      "for $s in //sec, $i in $s/item return concat($s/@id, ':', $i/@v)",
      "count(//item/descendant-or-self::*/..)",
      "name((//item | //note)[2])",
      "some $i in //item satisfies $i/@v > 90",
      "every $i in //item satisfies $i/@v >= 0",
  };
  constexpr size_t kQueries = sizeof(queries) / sizeof(queries[0]);
  struct Page {
    uint32_t seed;
    Expected results[kQueries];
  };
  const Page pages[] = {
      {1,
       {{nullptr, 987, 0x701d4143ac176dc3ull},
        {nullptr, 189, 0x63c1c663fb234e46ull},
        {nullptr, 726, 0xd9216fba7d8482deull},
        {"26", 0, 0},
        {"17", 0, 0},
        {"n1,n2,n3,n5,n6,n7", 0, 0},
        {"true", 0, 0},
        {"true", 0, 0},
        {"0", 0, 0},
        {"196", 0, 0},
        {"116", 0, 0},
        {"12 82 48 97", 0, 0},
        {"0 16 116 25 125 181 122 61 161 158 43 97 197 129 97 96 196", 0, 0},
        {"s1 s2 s3 s5 s6 s7", 0, 0},
        {nullptr, 62, 0x70b29344f371f8c3ull},
        {"2319", 0, 0},
        {"81 61 98 82 58 43 69 48 97 97 96", 0, 0},
        {nullptr, 100, 0x86e4103125b07046ull},
        {"34", 0, 0},
        {"item", 0, 0},
        {"true", 0, 0},
        {"true", 0, 0}}},
      {7,
       {{nullptr, 1071, 0xeba40adea165ce0aull},
        {nullptr, 210, 0x4c3c32cfdb8b096eull},
        {nullptr, 810, 0x4fbfe9250cf1fa7aull},
        {"29", 0, 0},
        {"17", 0, 0},
        {"n0,n2,n3,n4,n7", 0, 0},
        {"true", 0, 0},
        {"true", 0, 0},
        {"98", 0, 0},
        {"168", 0, 0},
        {"80", 0, 0},
        {"80 35 78 69 78 97 29", 0, 0},
        {"98 80 35 199 78 178 69 169 168 40 140 197 73 129 174 68 168", 0, 0},
        {"s0 s2 s3 s4 s7", 0, 0},
        {nullptr, 68, 0x1ef9efa91cfc0b83ull},
        {"2663", 0, 0},
        {"98 80 48 35 99 78 69 78 68 40 31 97 73 74 68", 0, 0},
        {nullptr, 118, 0xfe259c585fe151dcull},
        {"37", 0, 0},
        {"note", 0, 0},
        {"true", 0, 0},
        {"true", 0, 0}}},
      {42,
       {{nullptr, 846, 0x3692efb249890f10ull},
        {nullptr, 167, 0x0f954e00b52d0870ull},
        {nullptr, 643, 0x56a52b45437f31d2ull},
        {"23", 0, 0},
        {"15", 0, 0},
        {"n1,n2,n7", 0, 0},
        {"true", 0, 0},
        {"true", 0, 0},
        {"75", 0, 0},
        {"123", 0, 0},
        {"85", 0, 0},
        {"85 16 47 71 27 23", 0, 0},
        {"175 85 163 16 96 130 171 69 78 31 131 27 156 23 123", 0, 0},
        {"s1 s2 s7", 0, 0},
        {"75 175 85 63 163 88 96 130 71 171 69 78 131 71 56 156 123", 0, 0},
        {"1975", 0, 0},
        {"75 85 63 88 47 96 71 69 78 31 71 56", 0, 0},
        {nullptr, 95, 0x54e0f822a2db26acull},
        {"31", 0, 0},
        {"item", 0, 0},
        {"true", 0, 0},
        {"true", 0, 0}}},
  };
  Evaluator::EvalOptions tree_walker;
  tree_walker.compiled_plans = false;
  for (const Page& p : pages) {
    std::string page = RandomPage(p.seed, 8);
    for (size_t qi = 0; qi < kQueries; ++qi) {
      const std::string q = queries[qi];
      const std::string where =
          "seed " + std::to_string(p.seed) + " query: " + q;
      ExpectResult(EvalWith(q, page), p.results[qi], where);
      const std::string wrapped =
          "declare function local:q() { " + q + " }; local:q()";
      ExpectResult(EvalWith(wrapped, page), p.results[qi],
                   where + " (compiled plan)");
      ExpectResult(EvalWith(wrapped, page, tree_walker), p.results[qi],
                   where + " (tree-walked function)");
    }
  }
}

// --------------------------------------- focus in streamed predicates ---

TEST(StreamingFocus, PositionStreamsIncrementally) {
  std::string page = RandomPage(3, 5);
  EXPECT_EQ(EvalWith("string-join(//sec[position() mod 2 = 1]/@id, ' ')",
                     page),
            "s0 s2 s4");
  // position() against a filtered primary re-numbers after each
  // predicate, exactly like the eager engine.
  EXPECT_EQ(EvalWith("string((//item[@v >= 0])[position() = 2]/@v)", page),
            "79");
}

TEST(StreamingFocus, LastForcesMaterializationButAgrees) {
  std::string page = RandomPage(9, 6);
  const char* cases[][2] = {
      {"string((//item)[last()]/@v)", "83"},
      {"string((//item)[last() - 1]/@v)", "110"},
      {"string(//sec[last()]/@id)", "s5"},
      {"string-join(//item[position() = last()]/@v, ' ')",
       "58 71 171 191 38 138 126 42 10 110 83"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(EvalWith(c[0], page), c[1]) << "query: " << c[0];
  }
}

// A user function in a predicate inherits the focus (XQIB dialect), so
// the streaming filter must fall back to materialization for it.
TEST(StreamingFocus, UserFunctionPredicateSeesTrueLast) {
  std::string page = "<page><i/><i/><i/><i/></page>";
  const std::string q =
      "declare function local:sel() { last() - 1 }; "
      "count(//i[position() = local:sel()])";
  EXPECT_EQ(EvalWith(q, page), "1");
}

// ------------------------------------------------------------ laziness ---

TEST(StreamingLazy, HeadOfHugeFlworPullsO1) {
  Evaluator::EvalStats stats;
  EXPECT_EQ(EvalWith("head(for $i in 1 to 1000000 return $i * 2)", "",
                     {}, &stats),
            "2");
  // The range never expands: a handful of pulls, no million-item buffer.
  EXPECT_LT(stats.streams.items_pulled, 100u);
  EXPECT_LT(stats.streams.items_materialized, 100u);
  EXPECT_GT(stats.early_exits, 0u);
}

TEST(StreamingLazy, PositionalFilterOverHugeFlworStopsPulling) {
  Evaluator::EvalStats stats;
  EXPECT_EQ(
      EvalWith("(for $i in 1 to 1000000 where $i mod 7 = 0 return $i)[3]",
               "", {}, &stats),
      "21");
  EXPECT_LT(stats.streams.items_pulled, 100u);
}

TEST(StreamingLazy, WhereShortCircuitStopsClauseStreams) {
  // `where` rejects tuples before the return stream is built, and the
  // existence consumer stops at the first accepted tuple — the deeper
  // clause stream is pulled a bounded number of times.
  Evaluator::EvalStats stats;
  EXPECT_EQ(EvalWith("exists(for $i in 1 to 1000000 "
                     "where $i >= 5 return $i)",
                     "", {}, &stats),
            "true");
  EXPECT_LT(stats.streams.items_pulled, 100u);
}

TEST(StreamingLazy, QuantifiersStopAtWitness) {
  Evaluator::EvalStats stats;
  EXPECT_EQ(EvalWith("some $x in 1 to 1000000 satisfies $x = 42", "",
                     {}, &stats),
            "true");
  EXPECT_LT(stats.streams.items_pulled, 200u);
  EXPECT_EQ(EvalWith("every $x in 1 to 1000000 satisfies $x < 10", "",
                     {}, &stats),
            "false");
  EXPECT_LT(stats.streams.items_pulled, 200u);
}

// Nested sections/items/leaves: a three-level page so a multi-clause
// FLWOR has genuinely large intermediate bindings to avoid buffering.
std::string NestedPage(int secs, int items, int leaves) {
  std::string xml = "<page>";
  for (int s = 0; s < secs; ++s) {
    xml += "<sec id=\"s" + std::to_string(s) + "\">";
    for (int i = 0; i < items; ++i) {
      xml += "<item v=\"" + std::to_string(i % 97) + "\">";
      for (int l = 0; l < leaves; ++l) xml += "<leaf/>";
      xml += "</item>";
    }
    xml += "</sec>";
  }
  return xml + "</page>";
}

TEST(StreamingLazy, DeepFlworMaterializesOnlyItsIndexBucket) {
  // 30 sections x 20 items x 5 leaves: the eager engine buffered every
  // clause binding (30 + 600 + 3000 items per run). The pipeline buffers
  // only the 30-node //sec name-index bucket; the clause bindings and
  // the counted leaves stay lazy. (The retired P3 runner gated 4 runs at
  // <= 120 items.)
  Evaluator::EvalStats stats;
  EXPECT_EQ(EvalWith("count(for $s in //sec, $i in $s/item, "
                     "$l in $i/leaf return $l)",
                     NestedPage(30, 20, 5), {}, &stats),
            "3000");
  EXPECT_LE(stats.streams.items_materialized, 30u);
  EXPECT_GT(stats.streams.items_pulled, 0u);
}

// -------------------------------------------------- count() fast path ---

TEST(CountFastPath, AnswersFromNameIndex) {
  Evaluator::EvalStats stats;
  EXPECT_EQ(EvalWith("count(//item)", RandomPage(5, 10), {}, &stats), "25");
  EXPECT_EQ(stats.count_index_hits, 1u);
}

TEST(CountFastPath, InvalidatedByMutation) {
  // Regression: the count must be recomputed after the document mutates
  // between two statements of one block — a stale index bucket would
  // report the pre-insert count.
  const std::string q =
      "{ declare variable $before := count(//item); "
      "insert node <item v=\"999\"/> into /page/sec[1]; "
      "($before, count(//item)) }";
  std::string page = "<page><sec><item v=\"1\"/><item v=\"2\"/></sec>"
                     "<sec><item v=\"3\"/></sec></page>";
  Evaluator::EvalStats stats;
  EXPECT_EQ(EvalWith(q, page, {}, &stats), "3 4");
  EXPECT_GT(stats.count_index_hits, 0u);
  // Deletion invalidates too.
  const std::string q2 =
      "{ declare variable $before := count(//item); "
      "delete node (//item)[1]; "
      "($before, count(//item)) }";
  EXPECT_EQ(EvalWith(q2, page), "3 2");
}

}  // namespace
}  // namespace xqib::xquery
