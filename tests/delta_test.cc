// Tests for delta propagation (PERFORMANCE.md §8): the structured
// DomDelta emitted by PUL application, name-index bucket splicing in
// place of full rebuilds (checked against untracked rebuilds on
// generated edit batches), gap-based order keys that survive inserts
// without wholesale recomputation, and memo replay across disjoint
// writes in the plug-in's dispatch layer.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "plugin/plugin.h"
#include "xml/interning.h"
#include "xml/serializer.h"
#include "xml/xml_parser.h"
#include "xquery/engine.h"
#include "xquery/update.h"

namespace xqib {
namespace {

using browser::Browser;
using browser::Event;
using browser::Window;

const xml::InternedName* Tok(const char* local) {
  return xml::InternName("", local);
}

// Compiles and runs `query` against `doc` WITHOUT the engine's own
// update application, then applies the PUL through the delta-capturing
// overload so the test can inspect the structured write set.
Status RunUpdateCapturing(const std::string& query, xml::Document* doc,
                          xml::DomDelta* delta) {
  xquery::Engine engine;
  auto q = engine.Compile(query);
  if (!q.ok()) return q.status();
  xquery::DynamicContext ctx;
  xquery::DynamicContext::Focus f;
  f.item = xdm::Item::Node(doc->root());
  f.position = 1;
  f.size = 1;
  f.has_item = true;
  ctx.set_focus(f);
  XQ_RETURN_NOT_OK((*q)->BindGlobals(ctx));
  auto r = (*q)->Run(ctx, /*apply_updates=*/false);
  if (!r.ok()) return r.status();
  return ctx.pul().ApplyAll(delta);
}

// ------------------------------------------- PUL delta edge cases ---

TEST(PulDelta, ReplaceValueOfAttribute) {
  auto doc = std::move(xml::ParseDocument("<a><b v=\"1\"/></a>")).value();
  doc->set_fine_grained_versions(true);
  xml::DomDelta delta;
  Status st = RunUpdateCapturing("replace value of node /a/b/@v with \"9\"",
                                 doc.get(), &delta);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(xml::Serialize(doc->root()), "<a><b v=\"9\"/></a>");

  // Exactly the attribute name plus the ancestor element chain; a value
  // edit changes no bucket membership.
  EXPECT_FALSE(delta.whole_tree);
  EXPECT_EQ(delta.mutations, 1u);
  EXPECT_TRUE(delta.element_ops.empty());
  EXPECT_EQ(delta.touched.size(), 3u);
  EXPECT_EQ(delta.touched.count(Tok("v")), 1u);
  EXPECT_EQ(delta.touched.count(Tok("b")), 1u);
  EXPECT_EQ(delta.touched.count(Tok("a")), 1u);

  // The per-name counters moved for the same names and no others — they
  // are a derived view of the delta.
  EXPECT_EQ(doc->name_version(Tok("v")), 1u);
  EXPECT_EQ(doc->name_version(Tok("b")), 1u);
  EXPECT_EQ(doc->name_version(Tok("a")), 1u);
  EXPECT_EQ(doc->name_version(Tok("other")), 0u);
}

TEST(PulDelta, InsertBeforeAndAfterSiblingOrdering) {
  auto doc = std::move(
                 xml::ParseDocument("<a><b i=\"1\"/><b i=\"3\"/></a>"))
                 .value();
  doc->set_fine_grained_versions(true);
  xml::DomDelta delta;
  Status st = RunUpdateCapturing(
      "insert node <b i=\"0\"/> before /a/b[1],"
      "insert node <b i=\"2\"/> after /a/b[1]",
      doc.get(), &delta);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(xml::Serialize(doc->root()),
            "<a><b i=\"0\"/><b i=\"1\"/><b i=\"2\"/><b i=\"3\"/></a>");

  EXPECT_FALSE(delta.whole_tree);
  EXPECT_EQ(delta.mutations, 2u);
  // Both inserted <b> elements appear as membership insertions under
  // their name; the pre-existing siblings do not.
  ASSERT_EQ(delta.element_ops.count(Tok("b")), 1u);
  const auto& b_ops = delta.element_ops.at(Tok("b"));
  EXPECT_EQ(b_ops.size(), 2u);
  for (const auto& [node, inserted] : b_ops) {
    EXPECT_TRUE(inserted);
    EXPECT_EQ(node->name().token(), Tok("b"));
  }
  EXPECT_EQ(delta.touched.count(Tok("b")), 1u);
  EXPECT_EQ(delta.touched.count(Tok("a")), 1u);
  EXPECT_EQ(delta.touched.count(Tok("i")), 1u);  // attrs in the subtrees
}

TEST(PulDelta, DeleteOfAncestorOfPendingInsertTarget) {
  // XQUF applies inserts before deletes: <d/> lands inside /a/b/c, then
  // the delete detaches the whole <b> subtree including it. Last op
  // wins, so every element resolves to "removed".
  auto doc = std::move(xml::ParseDocument("<a><b><c/></b></a>")).value();
  doc->set_fine_grained_versions(true);
  xml::Node* b = doc->DocumentElement()->children()[0];
  xml::Node* c = b->children()[0];
  xml::DomDelta delta;
  Status st = RunUpdateCapturing(
      "insert node <d/> into /a/b/c, delete node /a/b", doc.get(), &delta);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(xml::Serialize(doc->root()), "<a/>");

  EXPECT_FALSE(delta.whole_tree);
  EXPECT_EQ(delta.mutations, 2u);  // one insert, one delete
  ASSERT_EQ(delta.element_ops.count(Tok("b")), 1u);
  ASSERT_EQ(delta.element_ops.count(Tok("c")), 1u);
  ASSERT_EQ(delta.element_ops.count(Tok("d")), 1u);
  EXPECT_FALSE(delta.element_ops.at(Tok("b")).at(b));
  EXPECT_FALSE(delta.element_ops.at(Tok("c")).at(c));
  const auto& d_ops = delta.element_ops.at(Tok("d"));
  ASSERT_EQ(d_ops.size(), 1u);
  EXPECT_FALSE(d_ops.begin()->second);  // inserted, then swept out
  EXPECT_EQ(delta.touched.count(Tok("a")), 1u);
  EXPECT_EQ(delta.touched.size(), 4u);

  // Counters: the insert bumped d/c/b/a, the delete bumped b/c/d (the
  // detached subtree) and a (the site chain).
  EXPECT_EQ(doc->name_version(Tok("a")), 2u);
  EXPECT_EQ(doc->name_version(Tok("b")), 2u);
  EXPECT_EQ(doc->name_version(Tok("c")), 2u);
  EXPECT_EQ(doc->name_version(Tok("d")), 2u);
}

// ------------------------------------------------ index splicing ---

TEST(IndexSplice, InsertSplicesInsteadOfRebuilding) {
  auto doc = std::move(
                 xml::ParseDocument("<a><b i=\"1\"/><x/><b i=\"2\"/></a>"))
                 .value();
  doc->set_delta_tracking(true);
  doc->root()->OrderKey();  // compute order once; inserts gap-assign after
  const uint64_t rebuilds = doc->order_rebuilds();

  const auto& bucket0 = doc->ElementsByName(xml::QName("b"));
  ASSERT_EQ(bucket0.size(), 2u);
  EXPECT_EQ(doc->name_index_builds(), 1u);

  // DOM-level insert between the two <b>s (inside <x/> stays disjoint).
  xml::Node* a = doc->DocumentElement();
  xml::Node* nb = doc->CreateElement(xml::QName("b"));
  nb->SetAttribute(xml::QName("i"), "1.5");
  a->InsertBefore(nb, a->children()[2]);

  const auto& bucket1 = doc->ElementsByName(xml::QName("b"));
  ASSERT_EQ(bucket1.size(), 3u);
  EXPECT_EQ(doc->name_index_builds(), 1u);  // spliced, not rebuilt
  EXPECT_GE(doc->bucket_rebuilds_avoided(), 1u);
  EXPECT_GE(doc->index_splices(), 1u);
  EXPECT_EQ(bucket1[0]->GetAttributeValue("i"), "1");
  EXPECT_EQ(bucket1[1]->GetAttributeValue("i"), "1.5");  // document order
  EXPECT_EQ(bucket1[2]->GetAttributeValue("i"), "2");

  // The insert was absorbed by gap keys: no wholesale order recompute.
  EXPECT_EQ(doc->order_rebuilds(), rebuilds);
}

TEST(IndexSplice, RemovalAndUntouchedBucketsSpliceToo) {
  auto doc = std::move(xml::ParseDocument(
                           "<a><b i=\"1\"/><c/><b i=\"2\"/><c/></a>"))
                 .value();
  doc->set_delta_tracking(true);
  doc->root()->OrderKey();
  ASSERT_EQ(doc->ElementsByName(xml::QName("b")).size(), 2u);
  ASSERT_EQ(doc->ElementsByName(xml::QName("c")).size(), 2u);
  EXPECT_EQ(doc->name_index_builds(), 1u);

  xml::Node* a = doc->DocumentElement();
  a->RemoveChild(a->children()[0]);  // drop <b i="1"/>

  const auto& b = doc->ElementsByName(xml::QName("b"));
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0]->GetAttributeValue("i"), "2");
  // The <c> bucket was untouched by the delta and survived verbatim.
  EXPECT_EQ(doc->ElementsByName(xml::QName("c")).size(), 2u);
  EXPECT_EQ(doc->name_index_builds(), 1u);
}

TEST(IndexSplice, RenameMovesNodeBetweenBuckets) {
  auto doc = std::move(xml::ParseDocument("<a><b/><b/></a>")).value();
  doc->set_delta_tracking(true);
  doc->root()->OrderKey();
  ASSERT_EQ(doc->ElementsByName(xml::QName("b")).size(), 2u);

  xml::Node* a = doc->DocumentElement();
  a->children()[0]->Rename(xml::QName("z"));

  EXPECT_EQ(doc->ElementsByName(xml::QName("b")).size(), 1u);
  EXPECT_EQ(doc->ElementsByName(xml::QName("z")).size(), 1u);
  EXPECT_EQ(doc->name_index_builds(), 1u);
}

TEST(IndexSplice, GapKeysKeepDocumentOrderWithoutRebuilds) {
  auto doc = std::move(xml::ParseDocument("<a><b/><b/></a>")).value();
  doc->root()->OrderKey();
  const uint64_t rebuilds = doc->order_rebuilds();
  xml::Node* a = doc->DocumentElement();
  xml::Node* first = a->children()[0];
  xml::Node* last = a->children()[1];

  // A run of inserts at both ends and the middle, all absorbed by the
  // neighbor-gap assignment.
  for (int i = 0; i < 8; ++i) {
    xml::Node* n = doc->CreateElement(xml::QName("m"));
    a->InsertBefore(n, a->children()[a->children().size() / 2]);
  }
  EXPECT_EQ(doc->order_rebuilds(), rebuilds);
  EXPECT_LT(first->CompareDocumentOrder(last), 0);
  const std::vector<xml::Node*>& kids = a->children();
  for (size_t i = 1; i < kids.size(); ++i) {
    EXPECT_LT(kids[i - 1]->CompareDocumentOrder(kids[i]), 0)
        << "children out of order at " << i;
  }
}

// ------------------------------------------ splice == rebuild oracle ---

// Element names the generated documents and edits draw from.
constexpr const char* kSpliceNames[] = {"a", "b", "c", "d", "e"};

struct Lcg {
  uint32_t state;
  uint32_t Next(uint32_t n) {
    state = state * 1664525u + 1013904223u;
    return ((state >> 16) & 0x7fff) % n;
  }
};

std::string RandomTree(Lcg& rng, int depth) {
  const std::string name = kSpliceNames[rng.Next(5)];
  std::string out = "<" + name + ">";
  const uint32_t kids = depth > 0 ? rng.Next(4) : 0;
  for (uint32_t i = 0; i < kids; ++i) out += RandomTree(rng, depth - 1);
  return out + "</" + name + ">";
}

// Attached elements in document order, the document element first.
std::vector<xml::Node*> Elements(xml::Document* doc) {
  std::vector<xml::Node*> out;
  std::vector<xml::Node*> stack{doc->DocumentElement()};
  while (!stack.empty()) {
    xml::Node* n = stack.back();
    stack.pop_back();
    out.push_back(n);
    const auto& kids = n->children();
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      if ((*it)->is_element()) stack.push_back(*it);
    }
  }
  return out;
}

// A bucket as document-order positions, so the buckets of two
// documents with the same structure compare directly.
std::vector<size_t> Positions(const std::vector<xml::Node*>& bucket,
                              const std::vector<xml::Node*>& order) {
  std::vector<size_t> out;
  for (const xml::Node* n : bucket) {
    size_t i = 0;
    while (i < order.size() && order[i] != n) ++i;
    out.push_back(i);  // order.size() = not attached: a stale entry
  }
  return out;
}

// One random edit, drawn once and applied at the same document-order
// positions of every copy.
struct Edit {
  uint32_t op = 0;  // insert, delete, rename, replace, move
  size_t target = 0;
  size_t dest = 0;
  size_t slot = 0;
  const char* name = "";
};

void ApplyEdit(const Edit& e, xml::Document* doc) {
  const std::vector<xml::Node*> els = Elements(doc);
  xml::Node* target = els[e.target % els.size()];
  const bool is_root = target == els[0];
  auto insert_at = [](xml::Node* parent, xml::Node* child, size_t slot) {
    const auto& kids = parent->children();
    parent->InsertBefore(child,
                         kids.empty() ? nullptr : kids[slot % kids.size()]);
  };
  switch (e.op) {
    case 0:
      insert_at(target, doc->CreateElement(xml::QName(e.name)), e.slot);
      break;
    case 1:
      if (!is_root) target->Detach();
      break;
    case 2:
      target->Rename(xml::QName(e.name));
      break;
    case 3:
      if (!is_root) {
        // A two-element subtree takes the target's place.
        xml::Node* n = doc->CreateElement(xml::QName(e.name));
        n->AppendChild(doc->CreateElement(xml::QName(kSpliceNames[e.slot % 5])));
        target->parent()->InsertBefore(n, target);
        target->Detach();
      }
      break;
    default: {
      xml::Node* dest = els[e.dest % els.size()];
      for (const xml::Node* a = dest; a != nullptr; a = a->parent()) {
        if (a == target) return;  // a subtree cannot move into itself
      }
      if (is_root) return;
      target->Detach();
      insert_at(dest, target, e.slot);
    }
  }
}

// Random insert/delete/rename/replace/move batches against a document
// that tracks deltas (the page configuration: every lookup after a
// batch splices) and an untracked copy that rebuilds the whole index on
// every lookup. After each checked batch, every name's bucket must be
// the same nodes in the same order. Some batches skip the check, so a
// splice also consumes several batches' ops at once.
TEST(IndexSplice, GeneratedEditsSpliceExactlyWhatARebuildFinds) {
  for (uint32_t seed : {1u, 7u, 42u, 1234u, 99991u}) {
    Lcg rng{seed};
    const std::string source = "<r>" + RandomTree(rng, 4) +
                               RandomTree(rng, 4) + RandomTree(rng, 3) +
                               "</r>";
    auto tracked = std::move(xml::ParseDocument(source)).value();
    auto rebuilt = std::move(xml::ParseDocument(source)).value();
    tracked->set_fine_grained_versions(true);
    tracked->set_delta_tracking(true);
    for (const char* name : kSpliceNames) {
      (void)tracked->ElementsByName(xml::QName(name));  // first full build
    }
    for (int batch = 0; batch < 40; ++batch) {
      const uint32_t edits = 1 + rng.Next(5);
      for (uint32_t i = 0; i < edits; ++i) {
        Edit e;
        e.op = rng.Next(5);
        e.target = rng.Next(1000);
        e.dest = rng.Next(1000);
        e.slot = rng.Next(8);
        e.name = kSpliceNames[rng.Next(5)];
        ApplyEdit(e, tracked.get());
        ApplyEdit(e, rebuilt.get());
      }
      if (rng.Next(3) == 0 && batch != 39) continue;
      const std::vector<xml::Node*> tracked_order = Elements(tracked.get());
      const std::vector<xml::Node*> rebuilt_order = Elements(rebuilt.get());
      ASSERT_EQ(tracked_order.size(), rebuilt_order.size());
      for (const char* name : kSpliceNames) {
        EXPECT_EQ(
            Positions(tracked->ElementsByName(xml::QName(name)),
                      tracked_order),
            Positions(rebuilt->ElementsByName(xml::QName(name)),
                      rebuilt_order))
            << "seed " << seed << " batch " << batch << " name " << name;
      }
    }
    EXPECT_EQ(xml::Serialize(tracked->root()), xml::Serialize(rebuilt->root()))
        << "seed " << seed;
    EXPECT_GT(tracked->bucket_rebuilds_avoided(), 0u) << "seed " << seed;
    EXPECT_LT(tracked->name_index_builds(), rebuilt->name_index_builds())
        << "seed " << seed;
  }
}

// ------------------------------------------ memo replay under churn ---

class DeltaDispatchTest : public ::testing::Test {
 protected:
  DeltaDispatchTest()
      : services_(&fabric_, &store_),
        plugin_(&browser_, &fabric_, &services_) {
    plugin_.Install();
  }

  Window* Load(const std::string& source) {
    Status st = browser_.top_window()->LoadSource(
        "http://app.example.com/index.xhtml", source);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(plugin_.last_script_error().ok())
        << plugin_.last_script_error().ToString();
    return browser_.top_window();
  }

  void Click(xml::Node* target) {
    Event e;
    e.type = "onclick";
    plugin_.FireEvent(target, e);
  }

  // A memoizable reader of //li and an updating writer of `mutation`.
  Window* LoadPeekAndMutate(const std::string& mutation) {
    return Load(R"(<html><body>
<input id="peek"/><input id="mut"/>
<ul><li>a</li><li>b</li></ul><aside/>
<script type="text/xqueryp"><![CDATA[
declare function local:peek($evt, $obj) { string(count(//li)) };
declare updating function local:mut($evt, $obj) { )" +
                mutation + R"( };
on event "onclick" at //input[@id="peek"] attach listener local:peek;
on event "onclick" at //input[@id="mut"] attach listener local:mut
]]></script></body></html>)");
  }

  net::HttpFabric fabric_;
  net::XmlStore store_;
  net::ServiceHost services_;
  Browser browser_;
  plugin::XqibPlugin plugin_;
};

TEST_F(DeltaDispatchTest, DisjointWriteReplaysThroughThePerNameProbe) {
  Window* w = LoadPeekAndMutate("insert node <note/> into //aside");
  xml::Node* peek = w->document()->GetElementById("peek");
  xml::Node* mut = w->document()->GetElementById("mut");
  ASSERT_NE(peek, nullptr);
  ASSERT_NE(mut, nullptr);

  Click(peek);  // miss: fills the memo entry with peek's read names
  EXPECT_EQ(plugin_.last_listener_result(), "2");
  Click(mut);  // writes note/aside — disjoint from peek's read set
  ASSERT_TRUE(plugin_.last_script_error().ok())
      << plugin_.last_script_error().ToString();
  EXPECT_EQ(plugin_.last_event_stats().delta_emitted, 1u);
  EXPECT_GE(plugin_.deltas_emitted(), 1u);

  Click(peek);  // per-name survival: replay with ZERO evaluation
  EXPECT_EQ(plugin_.last_listener_result(), "2");
  const auto& es = plugin_.last_event_stats();
  EXPECT_EQ(es.memo_hits, 1u);
  EXPECT_EQ(es.memo_fine_survivals, 1u);
  EXPECT_EQ(es.delta_listeners_skipped, 0u);
  EXPECT_EQ(es.items_pulled, 0u);
  EXPECT_EQ(es.plan_hits + es.plan_misses, 0u);
  EXPECT_EQ(plugin_.memo_stats().invalidations, 0u);
}

TEST_F(DeltaDispatchTest, SecondDisjointWriteSurvivesAfterReanchor) {
  // The survival re-anchors the entry at commit, so a second disjoint
  // write and click survive again rather than degrade to a miss.
  Window* w = LoadPeekAndMutate("insert node <note/> into //aside");
  xml::Node* peek = w->document()->GetElementById("peek");
  xml::Node* mut = w->document()->GetElementById("mut");
  Click(peek);
  Click(mut);
  Click(peek);
  Click(mut);
  Click(peek);
  EXPECT_EQ(plugin_.last_listener_result(), "2");
  EXPECT_EQ(plugin_.memo_stats().fine_grained_survivals, 2u);
  EXPECT_EQ(plugin_.memo_stats().hits, 2u);
  EXPECT_EQ(plugin_.memo_stats().misses, 1u);
  EXPECT_EQ(plugin_.memo_stats().invalidations, 0u);
}

}  // namespace
}  // namespace xqib
