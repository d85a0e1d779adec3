// Tests for MiniJS — the coexisting JavaScript engine (paper §2.1/§2.2)
// — and for JavaScript–XQuery coexistence on one page (§6.2).

#include <gtest/gtest.h>

#include "browser/css.h"
#include "minijs/dom_binding.h"
#include "minijs/js_parser.h"
#include "net/http.h"
#include "net/webservice.h"
#include "plugin/plugin.h"
#include "xml/serializer.h"

namespace xqib::minijs {
namespace {

using browser::Browser;
using browser::Event;
using browser::Window;

class MiniJsTest : public ::testing::Test {
 protected:
  MiniJsTest() : js_(&browser_) {
    browser_.policy().set_mode(browser::SecurityPolicy::Mode::kPermissive);
  }

  Window* LoadBlank() {
    Status st = browser_.top_window()->LoadSource(
        "http://app.example.com/", "<html><body/></html>");
    EXPECT_TRUE(st.ok());
    return browser_.top_window();
  }

  Window* Load(const std::string& body_xml) {
    Status st = browser_.top_window()->LoadSource(
        "http://app.example.com/",
        "<html><body>" + body_xml + "</body></html>");
    EXPECT_TRUE(st.ok()) << st.ToString();
    return browser_.top_window();
  }

  std::string Run(const std::string& js) {
    Window* w = browser_.top_window();
    Status st = js_.Execute(w, js);
    if (!st.ok()) return "ERROR: " + st.ToString();
    return js_.alerts().empty() ? "" : js_.alerts().back();
  }

  Browser browser_;
  DomBinding js_;
};

TEST_F(MiniJsTest, ArithmeticAndStrings) {
  LoadBlank();
  EXPECT_EQ(Run("alert(1 + 2 * 3);"), "7");
  EXPECT_EQ(Run("alert('a' + 1);"), "a1");
  EXPECT_EQ(Run("alert(10 % 3);"), "1");
  EXPECT_EQ(Run("alert((5 - 2) / 2);"), "1.5");
}

TEST_F(MiniJsTest, VariablesAndControlFlow) {
  LoadBlank();
  EXPECT_EQ(Run("var x = 0; for (var i = 1; i <= 10; i++) { x += i; } "
                "alert(x);"),
            "55");
  EXPECT_EQ(Run("var n = 5; var f = 1; while (n > 1) { f = f * n; n--; } "
                "alert(f);"),
            "120");
  EXPECT_EQ(Run("var a = 3; if (a > 2) { alert('big'); } "
                "else { alert('small'); }"),
            "big");
}

TEST_F(MiniJsTest, FunctionsAndClosures) {
  LoadBlank();
  EXPECT_EQ(Run("function add(a, b) { return a + b; } alert(add(2, 3));"),
            "5");
  EXPECT_EQ(Run("function counter() { var n = 0; "
                "return function() { n++; return n; }; } "
                "var c = counter(); c(); c(); alert(c());"),
            "3");
  EXPECT_EQ(Run("function fib(n) { if (n < 2) return n; "
                "return fib(n-1) + fib(n-2); } alert(fib(10));"),
            "55");
}

TEST_F(MiniJsTest, ObjectsAndArrays) {
  LoadBlank();
  EXPECT_EQ(Run("var o = {a: 1, b: 'x'}; alert(o.a + o.b);"), "1x");
  EXPECT_EQ(Run("var a = [10, 20, 30]; alert(a[1] + a.length);"), "23");
  EXPECT_EQ(Run("var a = []; a[2] = 9; alert(a.length);"), "3");
}

TEST_F(MiniJsTest, Equality) {
  LoadBlank();
  EXPECT_EQ(Run("alert(1 == '1');"), "true");
  EXPECT_EQ(Run("alert(1 === '1');"), "false");
  EXPECT_EQ(Run("alert(null == undefined);"), "true");
  EXPECT_EQ(Run("alert(typeof 'x');"), "string");
}

TEST_F(MiniJsTest, StringMethods) {
  LoadBlank();
  EXPECT_EQ(Run("alert('hello'.length);"), "5");
  EXPECT_EQ(Run("alert('hello'.indexOf('ll'));"), "2");
  EXPECT_EQ(Run("alert('hello'.indexOf('z'));"), "-1");
  EXPECT_EQ(Run("alert('hello'.charAt(1));"), "e");
  EXPECT_EQ(Run("alert('hello'.substring(1, 3));"), "el");
  EXPECT_EQ(Run("alert('hello'.substring(3));"), "lo");
  EXPECT_EQ(Run("alert('a,b,c'.split(',').length);"), "3");
  EXPECT_EQ(Run("alert('a,b,c'.split(',')[1]);"), "b");
  EXPECT_EQ(Run("alert('abc'.toUpperCase());"), "ABC");
  EXPECT_EQ(Run("alert('AbC'.toLowerCase());"), "abc");
}

TEST_F(MiniJsTest, StringMethodsOnVariables) {
  LoadBlank();
  EXPECT_EQ(Run("var s = 'xy' + 'z'; alert(s.length + s.indexOf('z'));"),
            "5");
}

TEST_F(MiniJsTest, DomGetElementByIdAndTextContent) {
  Load("<p id=\"msg\">old</p>");
  Run("document.getElementById('msg').textContent = 'new';");
  EXPECT_EQ(browser_.top_window()->document()->GetElementById("msg")
                ->StringValue(),
            "new");
}

TEST_F(MiniJsTest, DomCreateAndAppend) {
  Load("<div id=\"root\"/>");
  Run("var e = document.createElement('span');"
      "e.appendChild(document.createTextNode('hi'));"
      "e.setAttribute('class', 'x');"
      "document.getElementById('root').appendChild(e);");
  EXPECT_EQ(xml::Serialize(
                browser_.top_window()->document()->GetElementById("root")),
            "<div id=\"root\"><span class=\"x\">hi</span></div>");
}

TEST_F(MiniJsTest, DomNavigation) {
  Load("<ul id=\"l\"><li>a</li><li>b</li></ul>");
  EXPECT_EQ(Run("var l = document.getElementById('l');"
                "alert(l.firstChild.textContent + "
                "l.firstChild.nextSibling.textContent);"),
            "ab");
  EXPECT_EQ(Run("alert(document.getElementById('l').childNodes.length);"),
            "2");
}

TEST_F(MiniJsTest, StyleProperty) {
  Load("<div id=\"d\"/>");
  Run("document.getElementById('d').style.color = 'red';");
  EXPECT_EQ(browser::GetStyleProperty(
                browser_.top_window()->document()->GetElementById("d"),
                "color"),
            "red");
}

TEST_F(MiniJsTest, InnerHtmlParsesFragment) {
  Load("<div id=\"d\"/>");
  Run("document.getElementById('d').innerHTML = '<b>bold</b> text';");
  EXPECT_EQ(xml::Serialize(
                browser_.top_window()->document()->GetElementById("d")),
            "<div id=\"d\"><b>bold</b> text</div>");
}

TEST_F(MiniJsTest, DocumentEvaluateXPathSnapshot) {
  // The paper's §2.2 embedded-XPath example shape.
  Load("<div>I love XML</div><div>meh</div>");
  EXPECT_EQ(
      Run("var r = document.evaluate(\"//div[contains(., 'love')]\", "
          "document, null, XPathResult.UNORDERED_NODE_SNAPSHOT_TYPE, null);"
          "alert(r.snapshotLength);"),
      "1");
  Run("var r = document.evaluate(\"//div[contains(., 'love')]\", "
      "document, null, XPathResult.UNORDERED_NODE_SNAPSHOT_TYPE, null);"
      "if (r.snapshotLength > 0) {"
      "  var e = document.createElement('img');"
      "  e.src = 'http://x/heart.gif';"
      "  document.body.insertBefore(e, document.body.firstChild);"
      "}");
  xml::Node* body = nullptr;
  xml::VisitSubtree(browser_.top_window()->document()->root(),
                    [&](xml::Node* n) {
                      if (n->is_element() && n->name().local() == "body") {
                        body = n;
                      }
                    });
  ASSERT_NE(body, nullptr);
  ASSERT_FALSE(body->children().empty());
  EXPECT_EQ(body->children()[0]->name().local(), "img");
  EXPECT_EQ(body->children()[0]->GetAttributeValue("src"),
            "http://x/heart.gif");
}

TEST_F(MiniJsTest, AddEventListenerAndDispatch) {
  Load("<input id=\"b\"/><p id=\"out\">0</p>");
  Run("var count = 0;"
      "document.getElementById('b').addEventListener('onclick', "
      "function(e) { count++; "
      "document.getElementById('out').textContent = String(count); }, "
      "false);");
  Event e;
  e.type = "onclick";
  browser_.events().Dispatch(
      browser_.top_window()->document()->GetElementById("b"), e);
  browser_.events().Dispatch(
      browser_.top_window()->document()->GetElementById("b"), e);
  EXPECT_EQ(browser_.top_window()->document()->GetElementById("out")
                ->StringValue(),
            "2");
}

TEST_F(MiniJsTest, RemoveEventListener) {
  Load("<input id=\"b\"/><p id=\"out\">0</p>");
  Run("function bump(e) { "
      "  var o = document.getElementById('out');"
      "  o.textContent = String(Number(o.textContent) + 1); }"
      "var b = document.getElementById('b');"
      "b.addEventListener('onclick', bump, false);");
  Event e;
  e.type = "onclick";
  browser_.events().Dispatch(
      browser_.top_window()->document()->GetElementById("b"), e);
  Run("b.removeEventListener('onclick', bump, false);");
  browser_.events().Dispatch(
      browser_.top_window()->document()->GetElementById("b"), e);
  EXPECT_EQ(browser_.top_window()->document()->GetElementById("out")
                ->StringValue(),
            "1");
}

TEST_F(MiniJsTest, WindowObjectStatusAndNavigator) {
  LoadBlank();
  Run("self.status = 'Welcome';");
  EXPECT_EQ(browser_.top_window()->status(), "Welcome");
  browser_.navigator.app_name = "Mozilla";
  EXPECT_EQ(Run("alert(navigator.appName);"), "Mozilla");
}

TEST_F(MiniJsTest, SetTimeoutRunsOnLoop) {
  Load("<p id=\"out\">no</p>");
  Run("setTimeout(function() { "
      "document.getElementById('out').textContent = 'yes'; }, 100);");
  EXPECT_EQ(browser_.top_window()->document()->GetElementById("out")
                ->StringValue(),
            "no");
  browser_.loop().RunUntilIdle();
  EXPECT_EQ(browser_.top_window()->document()->GetElementById("out")
                ->StringValue(),
            "yes");
}

// ------------------------------------------------- coexistence (§6.2) ---

class CoexistenceTest : public ::testing::Test {
 protected:
  CoexistenceTest()
      : services_(&fabric_, nullptr),
        plugin_(&browser_, &fabric_, &services_),
        js_(&browser_) {
    plugin_.Install();
    plugin_.set_foreign_engine(&js_);
    browser_.policy().set_mode(browser::SecurityPolicy::Mode::kPermissive);
  }

  net::HttpFabric fabric_;
  net::ServiceHost services_;
  Browser browser_;
  plugin::XqibPlugin plugin_;
  DomBinding js_;
};

TEST_F(CoexistenceTest, BothEnginesHandleTheSameEvent) {
  // The Figure 3 mash-up property: JavaScript and XQuery code listen to
  // the same click; the browser serializes them in registration order.
  Status st = browser_.top_window()->LoadSource(
      "http://mashup.example.com/",
      R"(<html><body>
      <input id="search"/><div id="jslog"/><div id="xqlog"/>
      <script type="text/javascript">
        document.getElementById('search').addEventListener('onclick',
          function(e) {
            var d = document.createElement('js-hit');
            document.getElementById('jslog').appendChild(d);
          }, false);
      </script>
      <script type="text/xquery">
        declare updating function local:onSearch($evt, $obj) {
          insert node <xq-hit/> into //div[@id="xqlog"]
        };
        on event "onclick" at //input[@id="search"]
          attach listener local:onSearch
      </script></body></html>)");
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(plugin_.last_script_error().ok())
      << plugin_.last_script_error().ToString();
  ASSERT_TRUE(js_.last_error().ok()) << js_.last_error().ToString();

  xml::Node* button =
      browser_.top_window()->document()->GetElementById("search");
  Event e;
  e.type = "onclick";
  plugin_.FireEvent(button, e);

  xml::Document* doc = browser_.top_window()->document();
  EXPECT_EQ(doc->GetElementById("jslog")->children().size(), 1u);
  EXPECT_EQ(doc->GetElementById("xqlog")->children().size(), 1u);
}

TEST_F(CoexistenceTest, BothEnginesShareTheDomDatabase) {
  // §6.2: "the Web page serves like a database and both JavaScript and
  // XQuery code can access and update it".
  Status st = browser_.top_window()->LoadSource(
      "http://mashup.example.com/",
      R"(<html><body><div id="shared"/>
      <script type="text/javascript">
        var d = document.createElement('from-js');
        document.getElementById('shared').appendChild(d);
      </script>
      <script type="text/xquery">
        { insert node <from-xquery/> into //div[@id="shared"];
          browser:alert(string(count(//div[@id="shared"]/*))); }
      </script></body></html>)");
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(plugin_.last_script_error().ok())
      << plugin_.last_script_error().ToString();
  // XQuery (running after JS, §4.1) sees the JS-created element.
  ASSERT_EQ(plugin_.alerts().size(), 1u);
  EXPECT_EQ(plugin_.alerts()[0], "2");
  xml::Node* shared =
      browser_.top_window()->document()->GetElementById("shared");
  EXPECT_EQ(shared->children()[0]->name().local(), "from-js");
  EXPECT_EQ(shared->children()[1]->name().local(), "from-xquery");
}

TEST_F(CoexistenceTest, JavaScriptRunsBeforeXQuery) {
  // §4.1: "Currently, JavaScript is executed first, then XQuery" — even
  // if the XQuery script element comes first in the page.
  Status st = browser_.top_window()->LoadSource(
      "http://mashup.example.com/",
      R"(<html><body><div id="order"/>
      <script type="text/xquery">
        insert node <second/> into //div[@id="order"]
      </script>
      <script type="text/javascript">
        var d = document.createElement('first');
        document.getElementById('order').appendChild(d);
      </script></body></html>)");
  ASSERT_TRUE(st.ok());
  xml::Node* order =
      browser_.top_window()->document()->GetElementById("order");
  ASSERT_EQ(order->children().size(), 2u);
  EXPECT_EQ(order->children()[0]->name().local(), "first");
  EXPECT_EQ(order->children()[1]->name().local(), "second");
}

// ------------------------------------------------------- lifetime ---

// A function stored in the scope it closes over is a shared_ptr cycle
// (hoisted declarations, function expressions kept in variables).
// Destroying the interpreter must free those scopes — global, function
// body and block alike — or every closed page leaks its JS heap.
TEST(MiniJsLifetime, DestroyingThePageFreesClosureScopes) {
  std::weak_ptr<JsEnv> globals;
  std::vector<std::weak_ptr<JsObject>> functions;
  {
    Browser browser;
    DomBinding js(&browser);
    Window* w = browser.top_window();
    ASSERT_TRUE(w->LoadSource("http://app.example.com/",
                              "<html><body><p id=\"out\"/></body></html>")
                    .ok());
    Interpreter* interp = js.InterpreterFor(w);
    globals = interp->globals();
    interp->SetGlobal(
        "track", Interpreter::MakeNative(
                     [&functions](std::vector<Value>& args, Value,
                                  Interpreter&) -> Result<Value> {
                       functions.push_back(args.at(0).obj());
                       return Value::Undefined();
                     }));
    Status st = js.Execute(
        w,
        "function outer(n) {"
        "  function inner() { return n + 1; }"
        "  track(inner);"
        "  if (n > 0) { var twice = function() { return inner() * 2; };"
        "               track(twice); }"
        "  return inner();"
        "}"
        "{ function inBlock() { return outer(1); } track(inBlock); }"
        "var keep = function() { return outer(2); };"
        "track(outer); track(keep);"
        "document.getElementById('out').textContent = outer(3) + keep();");
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_NE(xml::Serialize(w->document()->root()).find(">7<"),
              std::string::npos);
    EXPECT_EQ(functions.size(), 7u);
  }
  EXPECT_TRUE(globals.expired());
  for (const std::weak_ptr<JsObject>& fn : functions) {
    EXPECT_TRUE(fn.expired());
  }
}

}  // namespace
}  // namespace xqib::minijs
