// P8 — delta propagation: structured DomDeltas from the update-apply
// pass splice the element-name index buckets in place of full rebuilds,
// and memoized listeners replay across disjoint writes through the
// per-name probe. Self-timed runner emitting BENCH_P8.json.
//
// Usage:
//   bench_p8_delta [--iters N] [--out FILE] [--check] [--baseline FILE]
//
// Scenarios:
//   index_churn    one (non-memoized) listener counting //item, one
//                  updating listener INSERTING an <item/> each op — the
//                  write name equals the read name, so the //item bucket
//                  is stale every op. The splice inserts the one new
//                  node in document order (gap keys make its position
//                  known without an order recompute) instead of
//                  rebuilding the bucket from a full-document DFS.
//   listener_skip  eight memoizable listeners each counting a distinct
//                  element name, one updating listener appending into a
//                  log none of them read. Every count event replays all
//                  eight entries through the per-name probe with zero
//                  evaluation.
//
// --check exits non-zero unless both scenarios return their exact
// expected result, index_churn spliced (splices > 0) with ZERO full
// name-index rebuilds in the timed window, and listener_skip saw zero
// memo misses, zero invalidations and exactly eight name-granular
// survivals per op. --baseline FILE compares the fresh delta_ns_per_op
// numbers against the checked-in BENCH_P8.json within +/-25% — the CI
// regression guard.

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "app/environment.h"
#include "bench_util.h"
#include "xml/dom.h"

namespace {

using xqib::app::BrowserEnvironment;
using xqib::bench::Args;

// Write name == read name: every op inserts an <item/> next to the
// 20000 the counter reads.
std::string MakeIndexChurnPage(int items) {
  std::ostringstream out;
  out << "<html><head><script type=\"text/xqueryp\"><![CDATA[\n"
      << "declare function local:n($evt, $obj) {\n"
      << "  concat(\"n=\", string(count(//item)))\n};\n"
      << "declare updating function local:mut($evt, $obj) {\n"
      << "  insert node <item v=\"0\"/> into //div[@id=\"data\"]\n};\n"
      << "{\n  on event \"onclick\" at //input[@id=\"btn\"] "
      << "attach listener local:n;\n"
      << "  on event \"onclick\" at //input[@id=\"mut\"] "
      << "attach listener local:mut;\n  ()\n}\n]]></script></head><body>"
      << "<input id=\"btn\"/><input id=\"mut\"/><div id=\"data\">";
  for (int i = 0; i < items; ++i) out << "<item v=\"1\"/>";
  out << "</div></body></html>";
  return out.str();
}

// Eight memoizable listeners over eight disjoint names; the mutator
// writes a ninth name none of them read.
std::string MakeSkipPage(int items_per_name, int listeners) {
  std::ostringstream out;
  out << "<html><head><script type=\"text/xqueryp\"><![CDATA[\n";
  for (int l = 0; l < listeners; ++l) {
    out << "declare function local:m" << l << "($evt, $obj) {\n"
        << "  concat(\"m" << l << "=\", string(count(//t" << l << ")))\n};\n";
  }
  out << "declare updating function local:mut($evt, $obj) {\n"
      << "  insert node <entry/> into /html/body/loga\n};\n{\n";
  for (int l = 0; l < listeners; ++l) {
    out << "  on event \"onclick\" at //input[@id=\"btn\"] "
        << "attach listener local:m" << l << ";\n";
  }
  out << "  on event \"onclick\" at //input[@id=\"mut\"] "
      << "attach listener local:mut;\n  ()\n}\n]]></script></head><body>"
      << "<input id=\"btn\"/><input id=\"mut\"/><loga/><div id=\"data\">";
  for (int l = 0; l < listeners; ++l) {
    for (int i = 0; i < items_per_name; ++i) out << "<t" << l << "/>";
  }
  out << "</div></body></html>";
  return out.str();
}

struct ChurnEnv {
  BrowserEnvironment env;
  xqib::xml::Node* btn = nullptr;
  xqib::xml::Node* mut = nullptr;

  bool Load(const std::string& page) {
    xqib::Status st = env.LoadPage("http://bench.example.com/", page);
    if (!st.ok() || !env.ScriptErrors().empty()) {
      std::fprintf(stderr, "page load failed: %s %s\n", st.ToString().c_str(),
                   env.ScriptErrors().c_str());
      return false;
    }
    btn = env.ById("btn");
    mut = env.ById("mut");
    return btn != nullptr && mut != nullptr;
  }

  void Click(xqib::xml::Node* target) {
    xqib::browser::Event e;
    e.type = "onclick";
    (void)env.plugin().FireEvent(target, e);
  }

  // One churn op: mutate, then count.
  void Op() {
    Click(mut);
    Click(btn);
  }
};

struct Counters {
  // Document index maintenance during the timed window.
  uint64_t index_builds = 0;
  uint64_t index_splices = 0;
  uint64_t rebuilds_avoided = 0;
  // Plugin delta/memo activity during the timed window.
  uint64_t emitted = 0;
  uint64_t memo_misses = 0;
  uint64_t memo_invalidations = 0;
  uint64_t fine_survivals = 0;
};

// Times the churn op, returning counter deltas over the timed window and
// the last listener result.
bool RunScenario(const std::string& page, bool memo, int iters,
                 double* ns_per_op, Counters* counters, std::string* result) {
  ChurnEnv d;
  d.env.plugin().set_memo_enabled(memo);
  if (!d.Load(page)) return false;
  // One op outside the window so memo entries are filled and the index
  // is warm: the timed window then measures steady-state churn.
  d.Op();
  const auto& memo_stats = d.env.plugin().memo_stats();
  const xqib::xml::Document* doc = d.env.browser().top_window()->document();
  const uint64_t builds0 = doc->name_index_builds();
  const uint64_t splices0 = doc->index_splices();
  const uint64_t avoided0 = doc->bucket_rebuilds_avoided();
  const uint64_t emitted0 = d.env.plugin().deltas_emitted();
  const uint64_t misses0 = memo_stats.misses;
  const uint64_t inval0 = memo_stats.invalidations;
  const uint64_t survivals0 = memo_stats.fine_grained_survivals;
  *ns_per_op = xqib::bench::NsPerOp([&] { d.Op(); }, iters);
  counters->index_builds = doc->name_index_builds() - builds0;
  counters->index_splices = doc->index_splices() - splices0;
  counters->rebuilds_avoided = doc->bucket_rebuilds_avoided() - avoided0;
  counters->emitted = d.env.plugin().deltas_emitted() - emitted0;
  counters->memo_misses = memo_stats.misses - misses0;
  counters->memo_invalidations = memo_stats.invalidations - inval0;
  counters->fine_survivals = memo_stats.fine_grained_survivals - survivals0;
  *result = d.env.plugin().last_listener_result();
  if (!d.env.ScriptErrors().empty()) {
    std::fprintf(stderr, "script errors during churn: %s\n",
                 d.env.ScriptErrors().c_str());
    return false;
  }
  return true;
}

struct Scenario {
  const char* name;
  double ns_per_op = 0;
  bool result_ok = false;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!xqib::bench::ParseArgs(argc, argv, &args)) return 2;
  const int iters = args.iters;
  bool ok = true;

  // --- index_churn: splice the //item bucket every op. ---
  Scenario churn{"index_churn"};
  Counters index;
  {
    constexpr int kItems = 20000;
    std::string result;
    ok &= RunScenario(MakeIndexChurnPage(kItems), false, iters,
                      &churn.ns_per_op, &index, &result);
    // The warmup op plus the window's ops each inserted one item.
    const std::string expected =
        "n=" + std::to_string(kItems + 1 + xqib::bench::WindowOps(iters));
    churn.result_ok = result == expected;
    if (!churn.result_ok) {
      std::fprintf(stderr, "index_churn: got %s, expected %s\n",
                   result.c_str(), expected.c_str());
    }
  }

  // --- listener_skip: eight per-name survivals per event. ---
  Scenario skip{"listener_skip"};
  Counters replay;
  {
    std::string result;
    ok &= RunScenario(MakeSkipPage(1000, 8), true, iters, &skip.ns_per_op,
                      &replay, &result);
    skip.result_ok = result == "m7=1000";
    if (!skip.result_ok) {
      std::fprintf(stderr, "listener_skip: got %s, expected m7=1000\n",
                   result.c_str());
    }
  }

  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\n  \"bench\": \"bench_p8_delta\",\n  \"iters\": %d,\n"
      "  \"scenarios\": [\n"
      "    {\"name\": \"%s\", \"delta_ns_per_op\": %.1f, "
      "\"results_match\": %s},\n"
      "    {\"name\": \"%s\", \"delta_ns_per_op\": %.1f, "
      "\"results_match\": %s}\n  ],\n"
      "  \"counters\": {\"index_builds\": %llu, \"index_splices\": %llu, "
      "\"bucket_rebuilds_avoided\": %llu, \"deltas_emitted\": %llu, "
      "\"fine_survivals\": %llu, \"skip_misses\": %llu, "
      "\"skip_invalidations\": %llu}\n}\n",
      iters, churn.name, churn.ns_per_op, churn.result_ok ? "true" : "false",
      skip.name, skip.ns_per_op, skip.result_ok ? "true" : "false",
      static_cast<unsigned long long>(index.index_builds),
      static_cast<unsigned long long>(index.index_splices),
      static_cast<unsigned long long>(index.rebuilds_avoided),
      static_cast<unsigned long long>(index.emitted + replay.emitted),
      static_cast<unsigned long long>(replay.fine_survivals),
      static_cast<unsigned long long>(replay.memo_misses),
      static_cast<unsigned long long>(replay.memo_invalidations));
  xqib::bench::EmitJson(buf, args.out_path);

  if (!ok) {
    std::fprintf(stderr, "FAIL: a scenario did not run\n");
    return 1;
  }
  if (args.check) {
    if (!churn.result_ok || !skip.result_ok) {
      std::fprintf(stderr, "FAIL: a scenario returned a wrong result\n");
      return 1;
    }
    // Every stale //item lookup in the window was answered by a splice:
    // not one full name-index rebuild.
    if (index.index_builds != 0 || index.index_splices == 0 ||
        index.rebuilds_avoided == 0) {
      std::fprintf(stderr,
                   "FAIL: index_churn rebuilt the name index %llu times "
                   "(%llu splices) in the timed window; expected 0 rebuilds "
                   "and > 0 splices\n",
                   static_cast<unsigned long long>(index.index_builds),
                   static_cast<unsigned long long>(index.index_splices));
      return 1;
    }
    // "Zero evaluation": past the warmup op, every count event replays
    // all eight entries through the per-name probe.
    const uint64_t expected_survivals = 8u * xqib::bench::WindowOps(iters);
    if (replay.memo_misses != 0 || replay.memo_invalidations != 0 ||
        replay.fine_survivals != expected_survivals) {
      std::fprintf(stderr,
                   "FAIL: listener_skip saw %llu misses, %llu "
                   "invalidations, %llu survivals in the timed window; "
                   "expected 0, 0, %llu\n",
                   static_cast<unsigned long long>(replay.memo_misses),
                   static_cast<unsigned long long>(replay.memo_invalidations),
                   static_cast<unsigned long long>(replay.fine_survivals),
                   static_cast<unsigned long long>(expected_survivals));
      return 1;
    }
    std::fputs("CHECK OK\n", stderr);
  }
  if (!args.baseline_path.empty() &&
      !xqib::bench::CheckBaseline(
          args.baseline_path,
          {{"index_churn", "delta_ns_per_op", churn.ns_per_op},
           {"listener_skip", "delta_ns_per_op", skip.ns_per_op}})) {
    return 1;
  }
  return 0;
}
