// Unit tests for the XML substrate: parser, DOM mutation, document
// order, serialization round-trips.

#include <gtest/gtest.h>

#include <sstream>

#include "xml/dom.h"
#include "xml/serializer.h"
#include "xml/xml_parser.h"

namespace xqib::xml {
namespace {

std::unique_ptr<Document> Parse(const std::string& s) {
  auto r = ParseDocument(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(XmlParser, BasicStructure) {
  auto doc = Parse("<a><b x=\"1\"/><c>text</c></a>");
  Node* a = doc->DocumentElement();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->name().local(), "a");
  ASSERT_EQ(a->children().size(), 2u);
  EXPECT_EQ(a->children()[0]->GetAttributeValue("x"), "1");
  EXPECT_EQ(a->children()[1]->StringValue(), "text");
}

TEST(XmlParser, EntitiesDecoded) {
  auto doc = Parse("<a x=\"&lt;&amp;&quot;\">&lt;tag&gt; &#65;&#x42;</a>");
  Node* a = doc->DocumentElement();
  EXPECT_EQ(a->GetAttributeValue("x"), "<&\"");
  EXPECT_EQ(a->StringValue(), "<tag> AB");
}

TEST(XmlParser, CdataCommentsAndPis) {
  auto doc = Parse(
      "<a><![CDATA[<raw> & stuff]]><!--note--><?target data?></a>");
  Node* a = doc->DocumentElement();
  ASSERT_EQ(a->children().size(), 3u);
  EXPECT_EQ(a->children()[0]->kind(), NodeKind::kText);
  EXPECT_EQ(a->children()[0]->value(), "<raw> & stuff");
  EXPECT_EQ(a->children()[1]->kind(), NodeKind::kComment);
  EXPECT_EQ(a->children()[1]->value(), "note");
  EXPECT_EQ(a->children()[2]->kind(), NodeKind::kProcessingInstruction);
  EXPECT_EQ(a->children()[2]->name().local(), "target");
}

TEST(XmlParser, Namespaces) {
  auto doc = Parse(
      "<a xmlns=\"urn:d\" xmlns:p=\"urn:p\"><b/><p:c p:at=\"v\"/></a>");
  Node* a = doc->DocumentElement();
  EXPECT_EQ(a->name().ns(), "urn:d");
  EXPECT_EQ(a->children()[0]->name().ns(), "urn:d");
  EXPECT_EQ(a->children()[1]->name().ns(), "urn:p");
  // Unprefixed attributes stay in no namespace.
  EXPECT_EQ(a->children()[1]->FindAttribute("urn:p", "at")->value(), "v");
}

TEST(XmlParser, UndeclaredPrefixFails) {
  EXPECT_FALSE(ParseDocument("<p:a/>").ok());
}

TEST(XmlParser, MismatchedTagsFail) {
  EXPECT_FALSE(ParseDocument("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseDocument("<a>").ok());
  EXPECT_FALSE(ParseDocument("<a/><b/>").ok());
}

TEST(XmlParser, DoctypeAndXmlDeclSkipped) {
  auto doc = Parse(
      "<?xml version=\"1.0\"?><!DOCTYPE html PUBLIC \"x\" \"y\"><a/>");
  EXPECT_EQ(doc->DocumentElement()->name().local(), "a");
}

TEST(XmlParser, WhitespaceOnlyTextDroppedByDefault) {
  auto doc = Parse("<a>\n  <b/>\n  <c/>\n</a>");
  EXPECT_EQ(doc->DocumentElement()->children().size(), 2u);
  ParseOptions keep;
  keep.keep_whitespace_text = true;
  auto doc2 = ParseDocument("<a>\n  <b/>\n</a>", keep);
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ((*doc2)->DocumentElement()->children().size(), 3u);
}

TEST(XmlParser, ScriptContentIsRawText) {
  auto doc = Parse(
      "<html><script type=\"text/xquery\">if (1 &gt; 0) then <b/> else "
      "2</script></html>");
  Node* script = doc->DocumentElement()->children()[0];
  ASSERT_EQ(script->children().size(), 1u);
  EXPECT_EQ(script->children()[0]->kind(), NodeKind::kText);
  // Content is literal — the <b/> was NOT parsed as an element and
  // entities are NOT decoded inside scripts.
  EXPECT_TRUE(script->StringValue().find("<b/>") != std::string::npos);
}

TEST(XmlParser, ScriptCdataWrapperStripped) {
  auto doc = Parse("<html><script><![CDATA[1 < 2 && 3 > 2]]></script>"
                   "</html>");
  EXPECT_EQ(doc->DocumentElement()->children()[0]->StringValue(),
            "1 < 2 && 3 > 2");
}

TEST(XmlParser, IeTagFoldingUppercasesNames) {
  ParseOptions ie;
  ie.ie_tag_folding = true;
  auto doc = ParseDocument("<html><body><div id=\"d\"/></body></html>", ie);
  ASSERT_TRUE(doc.ok());
  Node* html = (*doc)->DocumentElement();
  EXPECT_EQ(html->name().local(), "HTML");
  EXPECT_EQ(html->children()[0]->name().local(), "BODY");
  // Attributes are not folded.
  EXPECT_EQ(html->children()[0]->children()[0]->GetAttributeValue("id"),
            "d");
}

TEST(XmlParser, NestingDepthIsBounded) {
  auto nested = [](int levels) {
    std::string open, close;
    for (int i = 0; i < levels; ++i) {
      open += "<a>";
      close += "</a>";
    }
    return "<r>" + open + close + "</r>";
  };
  EXPECT_TRUE(xml::ParseDocument(nested(xml::kMaxElementDepth)).ok());
  auto too_deep = xml::ParseDocument(nested(xml::kMaxElementDepth + 1));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.status().code(), "FODC0006");
  // Far past the bound: an error, not a stack overflow.
  EXPECT_EQ(xml::ParseDocument(nested(20000)).status().code(), "FODC0006");
}

TEST(XmlParser, FragmentParsing) {
  Document doc;
  Node* host = doc.CreateElement(QName("host"));
  doc.root()->AppendChild(host);
  Status st = ParseFragmentInto("<x/>text<y a=\"1\"/>", host,
                                ParseOptions());
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(host->children().size(), 3u);
  EXPECT_EQ(host->children()[1]->value(), "text");
}

// ---------------------------------------------------------------- DOM ---

TEST(Dom, MutationAndStringValue) {
  Document doc;
  Node* root = doc.CreateElement(QName("root"));
  doc.root()->AppendChild(root);
  Node* a = doc.CreateElement(QName("a"));
  root->AppendChild(a);
  a->AppendChild(doc.CreateText("hello"));
  Node* b = doc.CreateElement(QName("b"));
  root->InsertBefore(b, a);
  EXPECT_EQ(Serialize(root), "<root><b/><a>hello</a></root>");
  root->RemoveChild(b);
  EXPECT_EQ(Serialize(root), "<root><a>hello</a></root>");
  EXPECT_EQ(root->StringValue(), "hello");
}

TEST(Dom, SetValueOnElementReplacesContent) {
  auto doc = Parse("<a><b/><c/>tail</a>");
  Node* a = doc->DocumentElement();
  a->SetValue("fresh");
  EXPECT_EQ(Serialize(a), "<a>fresh</a>");
}

TEST(Dom, AttributeLifecycle) {
  auto doc = Parse("<a/>");
  Node* a = doc->DocumentElement();
  a->SetAttribute(QName("k"), "v1");
  EXPECT_EQ(a->GetAttributeValue("k"), "v1");
  a->SetAttribute(QName("k"), "v2");  // replace, not duplicate
  EXPECT_EQ(a->attributes().size(), 1u);
  EXPECT_EQ(a->GetAttributeValue("k"), "v2");
  a->RemoveAttribute("", "k");
  EXPECT_EQ(a->attributes().size(), 0u);
}

TEST(Dom, DocumentOrderAcrossMutations) {
  auto doc = Parse("<r><a/><b/><c/></r>");
  Node* r = doc->DocumentElement();
  Node* a = r->children()[0];
  Node* c = r->children()[2];
  EXPECT_LT(a->CompareDocumentOrder(c), 0);
  // Move c before a: order flips.
  r->RemoveChild(c);
  r->InsertBefore(c, a);
  EXPECT_GT(a->CompareDocumentOrder(c), 0);
}

TEST(Dom, AttributesOrderAfterOwnerBeforeChildren) {
  auto doc = Parse("<r x=\"1\"><a/></r>");
  Node* r = doc->DocumentElement();
  Node* x = r->FindAttribute("x");
  Node* a = r->children()[0];
  EXPECT_LT(r->CompareDocumentOrder(x), 0);
  EXPECT_LT(x->CompareDocumentOrder(a), 0);
}

TEST(Dom, ImportCopyIsDeepAndDetached) {
  auto doc1 = Parse("<a x=\"1\"><b><c>t</c></b></a>");
  Document doc2;
  Node* copy = doc2.ImportCopy(doc1->DocumentElement());
  EXPECT_EQ(copy->parent(), nullptr);
  EXPECT_EQ(Serialize(copy), "<a x=\"1\"><b><c>t</c></b></a>");
  // Mutating the copy leaves the original untouched.
  copy->SetAttribute(QName("x"), "2");
  EXPECT_EQ(doc1->DocumentElement()->GetAttributeValue("x"), "1");
}

TEST(Dom, GetElementById) {
  auto doc = Parse("<r><a id=\"one\"/><b><c id=\"two\"/></b></r>");
  EXPECT_EQ(doc->GetElementById("one")->name().local(), "a");
  EXPECT_EQ(doc->GetElementById("two")->name().local(), "c");
  EXPECT_EQ(doc->GetElementById("zzz"), nullptr);
  // Detached elements are not found.
  Node* a = doc->GetElementById("one");
  a->Detach();
  EXPECT_EQ(doc->GetElementById("one"), nullptr);
}

// ---------------------------------------------- element-name index ---

TEST(Dom, ElementsByNameFindsInDocumentOrder) {
  auto doc = Parse("<r><p/><q><p/><r/></q><p/></r>");
  const std::vector<Node*>& ps = doc->ElementsByName(QName("p"));
  ASSERT_EQ(ps.size(), 3u);
  // Strictly ascending document order.
  EXPECT_LT(ps[0]->CompareDocumentOrder(ps[1]), 0);
  EXPECT_LT(ps[1]->CompareDocumentOrder(ps[2]), 0);
  EXPECT_EQ(doc->ElementsByName(QName("zzz")).size(), 0u);
  // The index keys on expanded names, not local names.
  auto doc2 = Parse("<a xmlns:n=\"urn:n\"><n:p/><p/></a>");
  EXPECT_EQ(doc2->ElementsByName(QName("urn:n", "p")).size(), 1u);
  EXPECT_EQ(doc2->ElementsByName(QName("p")).size(), 1u);
}

TEST(Dom, ElementsByNameIsLazyAndCached) {
  auto doc = Parse("<r><a/><a/></r>");
  EXPECT_EQ(doc->name_index_builds(), 0u);
  EXPECT_EQ(doc->ElementsByName(QName("a")).size(), 2u);
  EXPECT_EQ(doc->name_index_builds(), 1u);
  // Repeated lookups (any name) reuse the build.
  doc->ElementsByName(QName("a"));
  doc->ElementsByName(QName("r"));
  EXPECT_EQ(doc->name_index_builds(), 1u);
}

TEST(Dom, ElementsByNameInvalidatedByMutation) {
  auto doc = Parse("<r><a/><b><a/></b></r>");
  Node* r = doc->DocumentElement();
  ASSERT_EQ(doc->ElementsByName(QName("a")).size(), 2u);

  // Insert: the new element must be visible.
  r->AppendChild(doc->CreateElement(QName("a")));
  EXPECT_EQ(doc->ElementsByName(QName("a")).size(), 3u);

  // Detach: removing a subtree removes its elements from the index.
  Node* b = r->children()[1];
  b->Detach();
  EXPECT_EQ(doc->ElementsByName(QName("a")).size(), 2u);

  // Rename: the element moves between buckets.
  r->children()[0]->Rename(QName("c"));
  EXPECT_EQ(doc->ElementsByName(QName("a")).size(), 1u);
  EXPECT_EQ(doc->ElementsByName(QName("c")).size(), 1u);

  // Each mutation forced exactly one rebuild on next lookup.
  EXPECT_EQ(doc->name_index_builds(), 4u);
}

TEST(Dom, ElementsByNameSeesImportCopyAttach) {
  auto doc1 = Parse("<x><a/><a/></x>");
  auto doc2 = Parse("<r><a/></r>");
  ASSERT_EQ(doc2->ElementsByName(QName("a")).size(), 1u);
  Node* copy = doc2->ImportCopy(doc1->DocumentElement());
  // A detached copy is not indexed until attached.
  EXPECT_EQ(doc2->ElementsByName(QName("a")).size(), 1u);
  doc2->DocumentElement()->AppendChild(copy);
  EXPECT_EQ(doc2->ElementsByName(QName("a")).size(), 3u);
}

TEST(Dom, AppendStringValueMatchesStringValue) {
  auto doc = Parse("<a>one<b>two<c/>three</b><!--x-->four</a>");
  Node* a = doc->DocumentElement();
  EXPECT_EQ(a->StringValue(), "onetwothreefour");
  std::string out = "pre:";
  a->AppendStringValue(&out);
  EXPECT_EQ(out, "pre:onetwothreefour");
  // Attribute and comment nodes append their value verbatim.
  a->SetAttribute(QName("k"), "v");
  std::string attr;
  a->FindAttribute("k")->AppendStringValue(&attr);
  EXPECT_EQ(attr, "v");
}

TEST(Dom, MutationHooksFire) {
  auto doc = Parse("<r/>");
  int calls = 0;
  doc->AddMutationHook([&](Node*) { ++calls; });
  Node* r = doc->DocumentElement();
  r->SetAttribute(QName("a"), "1");
  r->AppendChild(doc->CreateText("t"));
  r->SetValue("x");
  EXPECT_GE(calls, 3);
}

// ------------------------------------------------------- serialization ---

TEST(Serializer, Escaping) {
  EXPECT_EQ(EscapeText("a<b>&c"), "a&lt;b&gt;&amp;c");
  EXPECT_EQ(EscapeAttribute("say \"hi\" & <go>"),
            "say &quot;hi&quot; &amp; &lt;go>");
}

TEST(Serializer, NamespaceDeclarationsEmitted) {
  auto doc = Parse("<a xmlns=\"urn:x\"><b/></a>");
  EXPECT_EQ(Serialize(doc->DocumentElement()),
            "<a xmlns=\"urn:x\"><b/></a>");
  auto doc2 = Parse("<p:a xmlns:p=\"urn:y\"><p:b/></p:a>");
  EXPECT_EQ(Serialize(doc2->DocumentElement()),
            "<p:a xmlns:p=\"urn:y\"><p:b/></p:a>");
}

// Round-trip property: parse(serialize(parse(x))) == parse(x).
class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, SerializeParseStable) {
  auto doc1 = Parse(GetParam());
  std::string s1 = Serialize(doc1->root());
  auto doc2 = Parse(s1);
  std::string s2 = Serialize(doc2->root());
  EXPECT_EQ(s1, s2);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, RoundTripTest,
    ::testing::Values(
        "<a/>",
        "<a x=\"1\" y=\"2\"><b/>text<c><d/></c></a>",
        "<a>&lt;escaped&gt; &amp; more</a>",
        "<a><!--comment--><?pi data?>text</a>",
        "<a xmlns=\"urn:n\"><b at=\"&quot;q&quot;\"/></a>",
        "<r><book year=\"2008\"><title>The dog &amp; cat</title>"
        "</book></r>",
        "<table border=\"1\"><tr><td>1</td><td>2</td></tr></table>"));

// Synthetic-tree property: document order keys are strictly increasing
// along a DFS, stable under unrelated mutations.
TEST(DomProperty, OrderKeysFollowDfs) {
  std::ostringstream src;
  src << "<r>";
  for (int i = 0; i < 20; ++i) {
    src << "<n i=\"" << i << "\"><x/><y><z/></y></n>";
  }
  src << "</r>";
  auto doc = Parse(src.str());
  std::vector<const Node*> dfs;
  std::function<void(Node*)> visit = [&](Node* n) {
    dfs.push_back(n);
    for (Node* c : n->children()) visit(c);
  };
  visit(doc->root());
  for (size_t i = 1; i < dfs.size(); ++i) {
    EXPECT_LT(dfs[i - 1]->CompareDocumentOrder(dfs[i]), 0)
        << "order violated at " << i;
  }
}

}  // namespace
}  // namespace xqib::xml
