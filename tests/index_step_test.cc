// Differential oracle for descendant name steps served from the
// element-name index: every fused or index-served form selects exactly
// the nodes the plain tree walk selects, in the same order. Pages come
// from the streaming suite's generator; seeded random XQuery Update
// edits (insert, delete, rename, replace, move) run between checks on a
// delta-tracking document, so lookups read spliced buckets and
// gap-assigned order keys, not only fresh builds.
//
// The oracle arm compiles with OptimizerOptions::path_collapsing off and
// puts a self::node() step before the descendant step: the step is then
// never a path's first step, so it walks every origin's subtree.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "base/thread_pool.h"
#include "random_page.h"
#include "xml/dom.h"
#include "xml/serializer.h"
#include "xml/xml_parser.h"
#include "xquery/engine.h"

namespace xqib::xquery {
namespace {

using xdm::Item;
using xdm::Sequence;

// Origins as path prefixes: the document node, the document element, a
// mid-tree element, a nested element of the same name as the step, and
// a detached constructed element (walked on both arms).
const char* const kOrigins[] = {
    "",
    "/*",
    "(//sec)[2]",
    "(//item)[2]",
    "<w>{(//sec)[1]/node()}</w>",
};
const char* const kNames[] = {"item", "leaf"};
const char* const kPredicates[] = {
    // position-free: fused into one descendant step
    "[@v > 50]",
    "[leaf]",
    "[@v mod 2 = 0 or item]",
    // positional and last(): per-parent positions, never fused
    "[1]",
    "[2]",
    "[last()]",
    "[position() = last() - 1]",
};

struct Case {
  std::string query;
  std::string oracle;
};

// E//name[p], E/descendant-or-self::name[p], count(E//name) and a
// function-wrapped E//name (the compiled-plan index opcodes).
std::vector<Case> Cases() {
  std::vector<Case> cases;
  for (const char* origin : kOrigins) {
    const std::string o = origin;
    const std::string walk = o.empty() ? "/self::node()" : o + "/self::node()";
    for (const char* name : kNames) {
      const std::string n = name;
      for (const char* pred : kPredicates) {
        cases.push_back({o + "//" + n + pred, walk + "//" + n + pred});
        cases.push_back({o + "/descendant-or-self::" + n + pred,
                         walk + "/descendant-or-self::" + n + pred});
      }
      cases.push_back({"count(" + o + "//" + n + ")",
                       "count(" + walk + "//" + n + ")"});
      cases.push_back(
          {"declare function local:q() { " + o + "//" + n + " }; local:q()",
           walk + "//" + n});
      cases.push_back({"declare function local:q() { count(" + o + "//" + n +
                           ") }; local:q()",
                       "count(" + walk + "//" + n + ")"});
    }
  }
  return cases;
}

// One seeded random edit as an XQuery Update query. Targets exclude the
// document element, so the page keeps exactly one.
std::string EditQuery(uint32_t op, uint32_t target, uint32_t dest,
                      const char* name) {
  const std::string t = std::to_string(target);
  const std::string d = std::to_string(dest);
  const std::string n = name;
  const std::string pick = "let $all := /*//* let $t := $all[" + t +
                           " mod count($all) + 1] ";
  switch (op) {
    case 0:
      return "let $all := //* return insert node <" + n + " v=\"" + t +
             "\"><leaf/></" + n + "> into $all[" + t +
             " mod count($all) + 1]";
    case 1:
      return pick + "return insert node <" + n + " v=\"" + d +
             "\"/> before $t";
    case 2:
      return pick + "return delete node $t";
    case 3:
      return pick + "return rename node $t as \"" + n + "\"";
    case 4:
      return pick + "return replace node $t with <" + n + " v=\"" + d +
             "\"><item v=\"" + t + "\"/></" + n + ">";
    default:
      // Move: a copy lands under a destination outside the subtree and
      // the original goes.
      return pick + "let $d := (//*)[" + d + " mod count(//*) + 1] " +
             "return if ($d/ancestor-or-self::* intersect $t) then () " +
             "else (insert node $t as first into $d, delete node $t)";
  }
}

std::unique_ptr<CompiledQuery> Compile(Engine& engine, const std::string& q,
                                       bool collapse) {
  CompileOptions options;
  options.optimizer.path_collapsing = collapse;
  auto compiled = engine.Compile(q, options);
  EXPECT_TRUE(compiled.ok()) << q << ": " << compiled.status().ToString();
  return compiled.ok() ? std::move(compiled).value() : nullptr;
}

// Runs `q` with the document node as focus and renders the result:
// attached nodes by identity, constructed (detached) ones by their
// serialization — each run builds fresh copies, which die with the
// context — and atomics by value.
std::string RunOn(CompiledQuery& q, xml::Document* doc) {
  DynamicContext ctx;
  DynamicContext::Focus f;
  f.item = Item::Node(doc->root());
  f.position = 1;
  f.size = 1;
  f.has_item = true;
  ctx.set_focus(f);
  Status bound = q.BindGlobals(ctx);
  if (!bound.ok()) return "BIND-ERROR " + bound.ToString();
  Result<Sequence> r = q.Run(ctx);
  if (!r.ok()) return "ERROR " + r.status().ToString();
  std::string out;
  for (const Item& item : *r) {
    if (!item.is_node()) {
      out += item.StringValue() + " ";
    } else if (item.node()->Root() == doc->root()) {
      char buf[32];
      snprintf(buf, sizeof buf, "%p ", static_cast<void*>(item.node()));
      out += buf;
    } else {
      out += xml::Serialize(item.node()) + " ";
    }
  }
  return out;
}

TEST(IndexStepOracle, GeneratedPagesUnderEditsMatchTheTreeWalk) {
  const std::vector<Case> cases = Cases();
  Engine engine;
  // A third arm partitions every span of at least two nodes across a
  // small pool, so the parallel predicate path reads subtree spans too.
  base::ThreadPool pool(2);
  Evaluator::EvalOptions pooled_options;
  pooled_options.parallel_cutoff = 2;
  std::vector<std::unique_ptr<CompiledQuery>> fast, pooled, walk;
  for (const Case& c : cases) {
    fast.push_back(Compile(engine, c.query, /*collapse=*/true));
    pooled.push_back(Compile(engine, c.query, /*collapse=*/true));
    walk.push_back(Compile(engine, c.oracle, /*collapse=*/false));
    ASSERT_NE(fast.back(), nullptr);
    ASSERT_NE(pooled.back(), nullptr);
    ASSERT_NE(walk.back(), nullptr);
    pooled.back()->evaluator().set_options(pooled_options);
    pooled.back()->evaluator().set_thread_pool(&pool);
  }
  const char* const edit_names[] = {"item", "leaf", "note", "sec", "x"};
  uint64_t index_hits = 0;
  for (uint32_t seed : {3u, 11u, 42u, 1234u}) {
    auto doc = std::move(xml::ParseDocument(RandomPage(seed, 8))).value();
    // The page-document configuration: lookups splice recorded deltas.
    doc->set_fine_grained_versions(true);
    doc->set_delta_tracking(true);
    uint32_t state = seed;
    auto next = [&state](uint32_t bound) {
      state = state * 1664525u + 1013904223u;
      return ((state >> 16) & 0x7fff) % bound;
    };
    for (int batch = 0; batch < 10; ++batch) {
      if (batch > 0) {
        const uint32_t edits = 1 + next(4);
        for (uint32_t i = 0; i < edits; ++i) {
          const std::string q = EditQuery(next(6), next(1000), next(1000),
                                          edit_names[next(5)]);
          std::unique_ptr<CompiledQuery> edit = Compile(engine, q, true);
          ASSERT_NE(edit, nullptr);
          const std::string applied = RunOn(*edit, doc.get());
          ASSERT_EQ(applied.find("ERROR"), std::string::npos)
              << q << ": " << applied;
        }
      }
      for (size_t i = 0; i < cases.size(); ++i) {
        const uint64_t before = fast[i]->evaluator().stats().name_index_hits;
        const std::string got = RunOn(*fast[i], doc.get());
        index_hits += fast[i]->evaluator().stats().name_index_hits - before;
        const std::string want = RunOn(*walk[i], doc.get());
        EXPECT_EQ(got, want) << "seed " << seed << " batch " << batch
                             << "\n  query:  " << cases[i].query
                             << "\n  oracle: " << cases[i].oracle;
        EXPECT_EQ(RunOn(*pooled[i], doc.get()), want)
            << "pooled, seed " << seed << " batch " << batch
            << "\n  query: " << cases[i].query;
      }
    }
    // The checks read spliced buckets, not only fresh builds.
    EXPECT_GT(doc->index_splices(), 0u) << "seed " << seed;
  }
  EXPECT_GT(index_hits, 0u);
  uint64_t chunks = 0;
  for (const auto& p : pooled) {
    chunks += p->evaluator().stats().parallel_predicate_chunks;
  }
  EXPECT_GT(chunks, 0u);
  for (const auto& w : walk) {
    EXPECT_EQ(w->evaluator().stats().name_index_hits, 0u);
  }
}

}  // namespace
}  // namespace xqib::xquery
