// P6 — name-granular invalidation under churn: memo entries and
// name-index buckets that survive mutations provably disjoint from
// their recorded read sets. Self-timed runner emitting BENCH_P6.json,
// same schema as P2-P5.
//
// Usage:
//   bench_p6_invalidation [--iters N] [--out FILE] [--check]
//                         [--baseline FILE]
//
// Scenarios (arms = fine-grained invalidation on vs the
// set_fine_grained_invalidation(false) ablation, which restores the
// pre-P6 whole-document-version behavior exactly):
//   memo_churn   8 memoizable listeners counting //item thresholds on
//                one button, one updating listener appending into
//                /html/body/loga on another; op = mutate-click then
//                count-click. Fine-grained: every entry records
//                ReadSet {item @v} at fill time and survives the loga
//                churn (8 hits/op). Coarse: the global version bump
//                evicts all 8 every op.
//   index_churn  the same churn with the memo cache disabled, so the
//                listener re-runs every op and the win is the //item
//                name-index bucket served without a rebuild. Page
//                documents track deltas, so both arms splice the touched
//                buckets (PERFORMANCE.md §8) rather than rebuild.
//
// --check exits non-zero unless both ablations agree, the fine arm's
// survivals actually fired, the fine arm's index_churn window did ZERO
// full name-index rebuilds while serving the stale bucket incrementally
// (per-name fine hits or splices), and the memo hit rate improves >= 5x
// over the coarse arm (the P6 acceptance floor).
// --baseline FILE compares the fresh memo_churn fine-arm ns/op against
// the checked-in BENCH_P6.json within +/-25% — the CI regression
// guard.

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "app/environment.h"
#include "bench_util.h"
#include "xml/dom.h"

namespace {

using xqib::app::BrowserEnvironment;
using xqib::bench::Args;
using xqib::bench::ScenarioResult;

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

struct ArmCounters {
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

// Times the churn op on a fresh environment with fine-grained
// invalidation `fine` (and optionally the memo disabled), returning
// the arm's counter deltas and the last listener result.
bool RunArm(const std::string& page, bool fine, bool memo, int iters,
            double* ns_per_op, ArmCounters* counters, std::string* result) {
  ChurnEnv d;
  d.env.plugin().set_fine_grained_invalidation(fine);
  d.env.plugin().set_memo_enabled(memo);
  if (!d.Load(page)) return false;
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

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!xqib::bench::ParseArgs(argc, argv, &args)) return 2;
  const int iters = args.iters;
  const std::string page = MakeChurnPage(2500, 8);

  std::vector<ScenarioResult> results;
  bool ok = true;

  // --- memo_churn: entries survive vs are evicted every op. ---
  ArmCounters memo_fine, memo_coarse;
  {
    ScenarioResult sr;
    sr.name = "memo_churn";
    std::string fine_result, coarse_result;
    ok &= RunArm(page, true, true, iters, &sr.on_ns, &memo_fine,
                 &fine_result);
    ok &= RunArm(page, false, true, iters, &sr.off_ns, &memo_coarse,
                 &coarse_result);
    sr.results_match = fine_result == coarse_result && !fine_result.empty();
    if (!sr.results_match) {
      std::fprintf(stderr, "memo_churn: fine %s != coarse %s\n",
                   fine_result.c_str(), coarse_result.c_str());
    }
    results.push_back(sr);
  }

  // --- index_churn: memo off, the //item bucket survives the rebuild. ---
  ArmCounters index_fine, index_coarse;
  {
    const std::string index_page = MakeIndexChurnPage(20000);
    ScenarioResult sr;
    sr.name = "index_churn";
    std::string fine_result, coarse_result;
    ok &= RunArm(index_page, true, false, iters, &sr.on_ns, &index_fine,
                 &fine_result);
    ok &= RunArm(index_page, false, false, iters, &sr.off_ns, &index_coarse,
                 &coarse_result);
    sr.results_match = fine_result == coarse_result && !fine_result.empty();
    if (!sr.results_match) {
      std::fprintf(stderr, "index_churn: fine %s != coarse %s\n",
                   fine_result.c_str(), coarse_result.c_str());
    }
    results.push_back(sr);
  }

  const double rate_fine = memo_fine.HitRate();
  const double rate_coarse = memo_coarse.HitRate();

  std::ostringstream json;
  json << "{\n  \"bench\": \"bench_p6_invalidation\",\n  \"iters\": "
       << iters << ",\n"
       << xqib::bench::ScenariosJson(results, "fine", "coarse") << ",\n";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  \"hit_rate\": {\"fine\": %.4f, \"coarse\": %.4f},\n"
      "  \"counters\": {\"fine_survivals\": %llu, "
      "\"coarse_invalidations_global\": %llu, "
      "\"fine_invalidations_name\": %llu, "
      "\"index_fine_hits\": %llu}\n}\n",
      rate_fine, rate_coarse,
      static_cast<unsigned long long>(memo_fine.survivals),
      static_cast<unsigned long long>(memo_coarse.invalidations_global),
      static_cast<unsigned long long>(memo_fine.invalidations_name),
      static_cast<unsigned long long>(index_fine.index_fine_hits));
  json << buf;
  xqib::bench::EmitJson(json.str(), args.out_path);

  if (!ok) {
    std::fprintf(stderr, "FAIL: a scenario did not run\n");
    return 1;
  }
  if (args.check) {
    if (!xqib::bench::AllResultsMatch(results)) return 1;
    if (memo_fine.survivals == 0) {
      std::fprintf(stderr, "FAIL: no memo entry ever survived a churn op\n");
      return 1;
    }
    if (index_fine.index_builds != 0 ||
        index_fine.index_fine_hits + index_fine.index_rebuilds_avoided == 0) {
      std::fprintf(stderr,
                   "FAIL: index_churn rebuilt the name index %llu times in "
                   "the timed window (%llu fine hits, %llu rebuilds "
                   "avoided); expected 0 rebuilds\n",
                   static_cast<unsigned long long>(index_fine.index_builds),
                   static_cast<unsigned long long>(index_fine.index_fine_hits),
                   static_cast<unsigned long long>(
                       index_fine.index_rebuilds_avoided));
      return 1;
    }
    // The acceptance floor: the churn hit rate improves >= 5x. The
    // coarse arm's rate is typically 0 (every op evicts everything), so
    // also require the fine arm to be genuinely hitting.
    if (rate_fine < 0.5 || rate_fine < 5.0 * rate_coarse) {
      std::fprintf(stderr,
                   "FAIL: memo churn hit rate %.4f (coarse %.4f) below "
                   "the 5x floor\n",
                   rate_fine, rate_coarse);
      return 1;
    }
    std::fputs("CHECK OK\n", stderr);
  }
  if (!args.baseline_path.empty() &&
      !xqib::bench::CheckBaseline(
          args.baseline_path,
          {{"memo_churn", "fine_ns_per_op",
            results.empty() ? 0 : results[0].on_ns}})) {
    return 1;
  }
  return 0;
}
