// End-to-end tests over the assembled stack (BrowserEnvironment): the
// example pages from examples/pages/, the Elsevier migration scenario,
// and the cross-implementation equivalence behind the T1 LoC claim.

#include <gtest/gtest.h>

#include "app/elsevier.h"
#include "app/environment.h"
#include "xml/serializer.h"

namespace xqib::app {
namespace {

TEST(Environment, LoadsHelloPage) {
  BrowserEnvironment env;
  auto page = ReadPageFile("hello.xhtml");
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  ASSERT_TRUE(env.LoadPage("http://demo.example.com/", *page).ok());
  ASSERT_EQ(env.plugin().alerts().size(), 1u);
  EXPECT_EQ(env.plugin().alerts()[0], "Hello, World!");
}

TEST(Environment, ClickIdReportsMissingElement) {
  BrowserEnvironment env;
  ASSERT_TRUE(
      env.LoadPage("http://demo.example.com/", "<html><body/></html>")
          .ok());
  EXPECT_EQ(env.ClickId("ghost").code(), "BRWS0006");
}

TEST(Environment, ScriptErrorsSurfaceOnLoad) {
  BrowserEnvironment env;
  Status st = env.LoadPage("http://demo.example.com/",
                           "<html><body><script type=\"text/xquery\">"
                           "1 idiv 0</script></body></html>");
  EXPECT_EQ(st.code(), "BRWS0005");
}

// ------------------------------------------- multiplication table (T1) ---

class TableEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(TableEquivalenceTest, JsAndXQueryProduceTheSameTable) {
  int size = GetParam();
  std::string outputs[2];
  const char* files[2] = {"multiplication_table_js.xhtml",
                          "multiplication_table_xquery.xhtml"};
  for (int v = 0; v < 2; ++v) {
    BrowserEnvironment env;
    auto page = ReadPageFile(files[v]);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    ASSERT_TRUE(env.LoadPage("http://demo.example.com/", *page).ok());
    env.ById("n")->SetAttribute(xml::QName("value"), std::to_string(size));
    ASSERT_TRUE(env.ClickId("go").ok()) << env.ScriptErrors();
    xml::Node* out = env.ById("out");
    ASSERT_NE(out, nullptr);
    ASSERT_FALSE(out->children().empty());
    outputs[v] = xml::Serialize(out->children()[0]);
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  // Sanity: the table really contains size*size products.
  EXPECT_NE(outputs[1].find("<td>" + std::to_string(size * size) + "</td>"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TableEquivalenceTest,
                         ::testing::Values(1, 2, 5, 9));

TEST(TableRegeneration, SecondClickReplacesTable) {
  BrowserEnvironment env;
  auto page = ReadPageFile("multiplication_table_xquery.xhtml");
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(env.LoadPage("http://demo.example.com/", *page).ok());
  ASSERT_TRUE(env.ClickId("go").ok());
  env.ById("n")->SetAttribute(xml::QName("value"), "2");
  ASSERT_TRUE(env.ClickId("go").ok());
  // Only one table, the 2x2 one.
  EXPECT_EQ(env.ById("out")->children().size(), 1u);
  EXPECT_EQ(env.ById("out")->StringValue().find("100"), std::string::npos);
}

// ------------------------------------------------------ shopping cart ---

TEST(ShoppingCart, XQueryOnlyVariantWorksFromPageFile) {
  BrowserEnvironment env;
  env.fabric().PutResource(
      "http://shop.example.com/products.xml",
      "<products><product><name>laptop</name><price>1200</price>"
      "</product><product><name>mouse</name><price>25</price>"
      "</product></products>");
  auto page = ReadPageFile("shopping_cart_xquery.xhtml");
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(env.LoadPage("http://shop.example.com/cart.xhtml", *page)
                  .ok());
  ASSERT_TRUE(env.ClickId("laptop").ok()) << env.ScriptErrors();
  EXPECT_EQ(xml::Serialize(env.ById("shoppingcart")),
            "<div id=\"shoppingcart\"><p>laptop</p></div>");
}

TEST(ShoppingCart, JsVariantProducesTheSameCart) {
  BrowserEnvironment env;
  auto page = ReadPageFile("shopping_cart_js.xhtml");
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(env.LoadPage("http://shop.example.com/cart.xhtml", *page)
                  .ok());
  ASSERT_TRUE(env.ClickId("laptop").ok()) << env.ScriptErrors();
  ASSERT_TRUE(env.ClickId("mouse").ok()) << env.ScriptErrors();
  EXPECT_EQ(xml::Serialize(env.ById("shoppingcart")),
            "<div id=\"shoppingcart\"><p>mouse</p><p>laptop</p></div>");
}

// ------------------------------------------------------------- mash-up ---

TEST(Mashup, BothEnginesReactToOneSearch) {
  BrowserEnvironment env;
  env.fabric().SetHandler(
      "http://weather.example.com/api",
      [](const net::HttpRequest&) -> Result<net::HttpResponse> {
        return net::HttpResponse{
            200, "<weather><summary>sunny</summary></weather>",
            "application/xml"};
      });
  env.fabric().SetHandler(
      "http://webcams.example.com/api",
      [](const net::HttpRequest&) -> Result<net::HttpResponse> {
        return net::HttpResponse{
            200, "<cams><cam url=\"u1\"/><cam url=\"u2\"/></cams>",
            "application/xml"};
      });
  auto page = ReadPageFile("mashup.xhtml");
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(env.LoadPage("http://mashup.example.com/", *page).ok())
      << env.ScriptErrors();
  ASSERT_TRUE(env.ClickId("searchbtn").ok()) << env.ScriptErrors();
  EXPECT_EQ(env.ById("map")->StringValue(), "Map of Zurich");
  EXPECT_EQ(env.ById("weather")->StringValue(), "sunny");
  EXPECT_EQ(env.ById("webcams")->children().size(), 1u);  // the <ul>
  EXPECT_EQ(env.fabric().stats().requests, 2u);
}

// ------------------------------------------------------------ Elsevier ---

class ElsevierTest : public ::testing::Test {
 protected:
  ElsevierTest() {
    corpus_.journals = 2;
    corpus_.volumes = 1;
    corpus_.issues = 1;
    corpus_.articles_per_issue = 3;
  }
  elsevier::CorpusOptions corpus_;
};

TEST_F(ElsevierTest, ServerAndClientRenderTheSameStatistics) {
  std::string titles[2], nrefs[2];
  for (int mode = 0; mode < 2; ++mode) {
    BrowserEnvironment env;
    ASSERT_TRUE(elsevier::BuildCorpus(&env.store(), corpus_).ok());
    ASSERT_TRUE(elsevier::DeployServer(&env.store(), &env.fabric()).ok());
    auto deployment = mode == 0 ? elsevier::Deployment::kServerSide
                                : elsevier::Deployment::kClientSide;
    auto report = elsevier::RunSession(&env, deployment, corpus_, 3);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    titles[mode] = report->last_title;
    nrefs[mode] = env.ById("nrefs")->StringValue();
  }
  EXPECT_EQ(titles[0], titles[1]);
  EXPECT_EQ(nrefs[0], nrefs[1]);
  EXPECT_FALSE(titles[0].empty());
}

TEST_F(ElsevierTest, ClientSideOffloadsTheServer) {
  // Figure 2's quantitative claim, as a hard invariant: server-side
  // requests grow with interactions; client-side requests do not.
  for (int interactions : {3, 9}) {
    BrowserEnvironment server_env, client_env;
    for (BrowserEnvironment* env : {&server_env, &client_env}) {
      ASSERT_TRUE(elsevier::BuildCorpus(&env->store(), corpus_).ok());
      ASSERT_TRUE(
          elsevier::DeployServer(&env->store(), &env->fabric()).ok());
    }
    auto server = elsevier::RunSession(
        &server_env, elsevier::Deployment::kServerSide, corpus_,
        interactions);
    auto client = elsevier::RunSession(
        &client_env, elsevier::Deployment::kClientSide, corpus_,
        interactions);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    EXPECT_EQ(server->requests, static_cast<uint64_t>(interactions));
    EXPECT_EQ(client->requests, 2u);  // page + corpus, then cache hits
  }
}

// Fig. 2's click re-runs the former server query over the cached corpus
// (local:cached()//article[@id=$aid], three times, after two
// //div[@id=...] lookups). Every one of those descendant steps reads the
// element-name index — from the document node or from the corpus
// element — so a click pulls a few hundred items, not the whole corpus.
TEST_F(ElsevierTest, ClientClickReadsTheNameIndex) {
  const elsevier::CorpusOptions corpus;  // 48 articles, 10 refs each
  BrowserEnvironment env;
  ASSERT_TRUE(elsevier::BuildCorpus(&env.store(), corpus).ok());
  ASSERT_TRUE(elsevier::DeployServer(&env.store(), &env.fabric()).ok());
  auto report =
      elsevier::RunSession(&env, elsevier::Deployment::kClientSide, corpus, 0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(env.ClickId("link-a-17").ok()) << env.ScriptErrors();
  ASSERT_NE(env.ById("title"), nullptr);
  const auto& stats = env.plugin().last_event_stats();
  // Before the index served predicated and subtree steps: 0 hits and
  // 6,526 items pulled on this click.
  EXPECT_EQ(stats.name_index_hits, 8u);
  EXPECT_LE(stats.items_pulled, 191u);
}

TEST_F(ElsevierTest, CorpusIsDeterministic) {
  net::XmlStore s1, s2;
  ASSERT_TRUE(elsevier::BuildCorpus(&s1, corpus_).ok());
  ASSERT_TRUE(elsevier::BuildCorpus(&s2, corpus_).ok());
  EXPECT_EQ(*s1.Serialize("/corpus.xml"), *s2.Serialize("/corpus.xml"));
}

TEST_F(ElsevierTest, ArticleIdsMatchCorpus) {
  auto ids = elsevier::ArticleIds(corpus_);
  EXPECT_EQ(ids.size(), 6u);
  net::XmlStore store;
  ASSERT_TRUE(elsevier::BuildCorpus(&store, corpus_).ok());
  std::string corpus = *store.Serialize("/corpus.xml");
  for (const std::string& id : ids) {
    EXPECT_NE(corpus.find("id=\"" + id + "\""), std::string::npos);
  }
}

}  // namespace
}  // namespace xqib::app
