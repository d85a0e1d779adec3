// P6 — name-granular invalidation under churn: memo entries and
// name-index buckets that survive mutations provably disjoint from
// their recorded read sets. Self-timed runner emitting BENCH_P6.json.
//
// Usage:
//   bench_p6_invalidation [--iters N] [--out FILE] [--check]
//                         [--baseline FILE]
//
// Scenarios:
//   memo_churn   8 memoizable listeners counting //item thresholds on
//                one button, one updating listener appending into
//                /html/body/loga on another; op = mutate-click then
//                count-click. Every entry records ReadSet {item @v} at
//                fill time and survives the loga churn (8 hits/op).
//   index_churn  the same churn with the memo cache disabled, so the
//                listener re-runs every op and the win is the //item
//                name-index bucket served without a rebuild. Page
//                documents track deltas, so the touched buckets splice
//                (PERFORMANCE.md §8) rather than rebuild.
//
// --check exits non-zero unless both scenarios return their exact
// expected result, memo_churn saw zero global and zero name-granular
// invalidations and exactly eight survivals per op in the timed
// window, and index_churn's window did ZERO full name-index rebuilds
// while serving the stale bucket incrementally (per-name fine hits or
// splices).
// --baseline FILE compares the fresh memo_churn ns/op against the
// checked-in BENCH_P6.json within +/-25% — the CI regression guard.

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

// The churn page: `items` valued items, one count button fanning out to
// `listeners` memoizable listeners, one mutate button whose updating
// listener appends into a log no counter ever reads.
std::string MakeChurnPage(int items, int listeners) {
  std::ostringstream out;
  out << "<html><head><script type=\"text/xqueryp\"><![CDATA[\n";
  for (int l = 0; l < listeners; ++l) {
    out << "declare function local:m" << l << "($evt, $obj) {\n"
        << "  concat(\"m" << l << "=\", string(count(//item[@v > "
        << (l * 100 + 50) << "])))\n};\n";
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
  uint32_t state = 98765;
  for (int i = 0; i < items; ++i) {
    state = state * 1664525u + 1013904223u;
    out << "<item v=\"" << ((state >> 16) % 1000) << "\"/>";
  }
  out << "</div></body></html>";
  return out.str();
}

// The index-churn page: a single predicate-free counter, so the op
// cost is the //item bucket lookup itself.
std::string MakeIndexChurnPage(int items) {
  std::ostringstream out;
  out << "<html><head><script type=\"text/xqueryp\"><![CDATA[\n"
      << "declare function local:n($evt, $obj) {\n"
      << "  concat(\"n=\", string(count(//item)))\n};\n"
      << "declare updating function local:mut($evt, $obj) {\n"
      << "  insert node <entry/> into /html/body/loga\n};\n"
      << "{\n  on event \"onclick\" at //input[@id=\"btn\"] "
      << "attach listener local:n;\n"
      << "  on event \"onclick\" at //input[@id=\"mut\"] "
      << "attach listener local:mut;\n  ()\n}\n]]></script></head><body>"
      << "<input id=\"btn\"/><input id=\"mut\"/><loga/><div id=\"data\">";
  for (int i = 0; i < items; ++i) out << "<item/>";
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

  // One churn op: mutate (bumps the document version), then count.
  void Op() {
    Click(mut);
    Click(btn);
  }
};

struct Counters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t survivals = 0;
  uint64_t invalidations_global = 0;
  uint64_t invalidations_name = 0;
  uint64_t index_fine_hits = 0;
  uint64_t index_builds = 0;
  uint64_t index_rebuilds_avoided = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

// Times the churn op on a fresh environment (optionally with the memo
// disabled), returning the counter deltas over the timed window and the
// last listener result.
bool RunScenario(const std::string& page, bool memo, int iters,
                 double* ns_per_op, Counters* counters, std::string* result) {
  ChurnEnv d;
  d.env.plugin().set_memo_enabled(memo);
  if (!d.Load(page)) return false;
  // One op outside the window fills the memo entries and warms the
  // index: the window then measures steady-state churn.
  d.Op();
  const auto& stats = d.env.plugin().memo_stats();
  const xqib::xml::Document* doc = d.env.browser().top_window()->document();
  const uint64_t hits0 = stats.hits;
  const uint64_t misses0 = stats.misses;
  const uint64_t survivals0 = stats.fine_grained_survivals;
  const uint64_t global0 = stats.invalidations_global;
  const uint64_t name0 = stats.invalidations_name;
  const uint64_t index0 = doc->name_index_fine_hits();
  const uint64_t builds0 = doc->name_index_builds();
  const uint64_t avoided0 = doc->bucket_rebuilds_avoided();
  *ns_per_op = xqib::bench::NsPerOp([&] { d.Op(); }, iters);
  counters->hits = stats.hits - hits0;
  counters->misses = stats.misses - misses0;
  counters->survivals = stats.fine_grained_survivals - survivals0;
  counters->invalidations_global = stats.invalidations_global - global0;
  counters->invalidations_name = stats.invalidations_name - name0;
  counters->index_fine_hits = doc->name_index_fine_hits() - index0;
  counters->index_builds = doc->name_index_builds() - builds0;
  counters->index_rebuilds_avoided =
      doc->bucket_rebuilds_avoided() - avoided0;
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
  const char* expected;
  double ns_per_op = 0;
  bool result_ok = false;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!xqib::bench::ParseArgs(argc, argv, &args)) return 2;
  const int iters = args.iters;
  const std::string page = MakeChurnPage(2500, 8);

  bool ok = true;

  // --- memo_churn: every entry survives every op. ---
  // The last listener is local:m7, counting the items with v > 750.
  Scenario churn{"memo_churn", "m7=624"};
  Counters memo;
  {
    std::string result;
    ok &= RunScenario(page, true, iters, &churn.ns_per_op, &memo, &result);
    churn.result_ok = result == churn.expected;
    if (!churn.result_ok) {
      std::fprintf(stderr, "memo_churn: got %s, expected %s\n",
                   result.c_str(), churn.expected);
    }
  }

  // --- index_churn: memo off, the //item bucket survives the churn. ---
  Scenario index_churn{"index_churn", "n=20000"};
  Counters index;
  {
    std::string result;
    ok &= RunScenario(MakeIndexChurnPage(20000), false, iters,
                      &index_churn.ns_per_op, &index, &result);
    index_churn.result_ok = result == index_churn.expected;
    if (!index_churn.result_ok) {
      std::fprintf(stderr, "index_churn: got %s, expected %s\n",
                   result.c_str(), index_churn.expected);
    }
  }

  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\n  \"bench\": \"bench_p6_invalidation\",\n  \"iters\": %d,\n"
      "  \"scenarios\": [\n"
      "    {\"name\": \"%s\", \"fine_ns_per_op\": %.1f, "
      "\"results_match\": %s},\n"
      "    {\"name\": \"%s\", \"fine_ns_per_op\": %.1f, "
      "\"results_match\": %s}\n  ],\n"
      "  \"hit_rate\": {\"fine\": %.4f},\n"
      "  \"counters\": {\"fine_survivals\": %llu, "
      "\"fine_invalidations_global\": %llu, "
      "\"fine_invalidations_name\": %llu, "
      "\"index_fine_hits\": %llu, \"index_builds\": %llu}\n}\n",
      iters, churn.name, churn.ns_per_op, churn.result_ok ? "true" : "false",
      index_churn.name, index_churn.ns_per_op,
      index_churn.result_ok ? "true" : "false", memo.HitRate(),
      static_cast<unsigned long long>(memo.survivals),
      static_cast<unsigned long long>(memo.invalidations_global),
      static_cast<unsigned long long>(memo.invalidations_name),
      static_cast<unsigned long long>(index.index_fine_hits),
      static_cast<unsigned long long>(index.index_builds));
  xqib::bench::EmitJson(buf, args.out_path);

  if (!ok) {
    std::fprintf(stderr, "FAIL: a scenario did not run\n");
    return 1;
  }
  if (args.check) {
    if (!churn.result_ok || !index_churn.result_ok) {
      std::fprintf(stderr, "FAIL: a scenario returned a wrong result\n");
      return 1;
    }
    // Past the fill op, every count event answers all eight listeners
    // through the per-name probe: nothing is ever invalidated.
    const uint64_t expected_survivals = 8u * xqib::bench::WindowOps(iters);
    if (memo.invalidations_global != 0 || memo.invalidations_name != 0 ||
        memo.survivals != expected_survivals) {
      std::fprintf(stderr,
                   "FAIL: memo_churn saw %llu global and %llu name "
                   "invalidations, %llu survivals in the timed window; "
                   "expected 0, 0, %llu\n",
                   static_cast<unsigned long long>(memo.invalidations_global),
                   static_cast<unsigned long long>(memo.invalidations_name),
                   static_cast<unsigned long long>(memo.survivals),
                   static_cast<unsigned long long>(expected_survivals));
      return 1;
    }
    if (index.index_builds != 0 ||
        index.index_fine_hits + index.index_rebuilds_avoided == 0) {
      std::fprintf(stderr,
                   "FAIL: index_churn rebuilt the name index %llu times in "
                   "the timed window (%llu fine hits, %llu rebuilds "
                   "avoided); expected 0 rebuilds\n",
                   static_cast<unsigned long long>(index.index_builds),
                   static_cast<unsigned long long>(index.index_fine_hits),
                   static_cast<unsigned long long>(
                       index.index_rebuilds_avoided));
      return 1;
    }
    std::fputs("CHECK OK\n", stderr);
  }
  if (!args.baseline_path.empty() &&
      !xqib::bench::CheckBaseline(
          args.baseline_path,
          {{"memo_churn", "fine_ns_per_op", churn.ns_per_op}})) {
    return 1;
  }
  return 0;
}
