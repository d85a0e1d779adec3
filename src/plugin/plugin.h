// The XQIB plug-in (paper Section 5, Figure 1): the glue between the
// browser and the XQuery engine.
//
// Pipeline per page load:
//   1. the browser parses the XHTML document and renders (headless here),
//   2. the plug-in extracts <script> elements and inline on* handlers,
//   3. foreign-language scripts (JavaScript) run first — "this is the way
//      browsers do it because JavaScript is supported natively" (§4.1),
//   4. each XQuery script's prolog is compiled, globals are bound, and
//      the main body runs (registering event listeners),
//   5. the plug-in then loops: browser events are dispatched to the
//      registered XQuery listeners (and to JavaScript listeners on the
//      same targets, serialized in registration order, §6.2).
//
// The plug-in implements the BrowserBinding interface (the grammar
// extensions "on event …", "set style …") and provides the browser:
// function namespace of §4.2 (alert, top, self, screen, navigator,
// document, window/history functions, write).

#ifndef XQIB_PLUGIN_PLUGIN_H_
#define XQIB_PLUGIN_PLUGIN_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/counters.h"
#include "base/thread_pool.h"
#include "browser/bom.h"
#include "browser/events.h"
#include "browser/page.h"
#include "xml/interning.h"
#include "net/http.h"
#include "net/prefetch.h"
#include "net/webservice.h"
#include "xquery/analysis/analyzer.h"
#include "xquery/evaluator.h"
#include "xquery/federation.h"
#include "xquery/parser.h"

namespace xqib::plugin {

// Interface for a coexisting script engine (MiniJS implements this).
class ForeignScriptEngine {
 public:
  virtual ~ForeignScriptEngine() = default;
  virtual bool Handles(browser::ScriptLanguage language) const = 0;
  virtual Status RunScript(browser::Window* window,
                           const browser::Script& script) = 0;
  virtual Status RegisterInlineHandler(
      browser::Window* window, const browser::InlineHandler& handler) = 0;
};

class XqibPlugin : public xquery::BrowserBinding {
 public:
  // `fabric` and `services` are optional (REST / web-service support).
  XqibPlugin(browser::Browser* browser, net::HttpFabric* fabric,
             net::ServiceHost* services);
  ~XqibPlugin() override;

  // Wires this plug-in into browser->on_page_loaded.
  void Install();

  // Coexisting engine for text/javascript scripts (may be null).
  void set_foreign_engine(ForeignScriptEngine* engine) {
    foreign_engine_ = engine;
  }

  // Figure 1 steps 2-4 for a freshly loaded window.
  Status InitializePage(browser::Window* window);

  // Queues a user-interaction event on the loop and pumps it.
  Status FireEvent(xml::Node* target, browser::Event event);
  // Runs queued tasks (event dispatches, async completions) to idle.
  size_t PumpEvents();

  // --- user-visible channels ---
  const std::vector<std::string>& alerts() const { return alerts_; }
  void ClearAlerts() { alerts_.clear(); }
  // prompt()/confirm() responders (tests script them).
  std::function<std::string(const std::string&)> prompt_responder;
  std::function<bool(const std::string&)> confirm_responder;

  // Diagnostics for benchmarks: per-page-load phase timings.
  struct InitTiming {
    double extract_us = 0;
    double foreign_us = 0;
    double compile_us = 0;
    double bind_globals_us = 0;
    double run_main_us = 0;
    size_t xquery_scripts = 0;
    size_t listeners_registered = 0;
  };
  const InitTiming& last_init_timing() const { return last_init_timing_; }

  // Status of the last script error (pages must not crash the browser).
  const Status& last_script_error() const { return last_script_error_; }
  // Resets the sticky error channel; the page server clears it before
  // every dispatch so one bad event cannot poison later ones' reports.
  void ClearScriptError() { last_script_error_ = Status(); }

  // Static-analysis diagnostics from the last page load (all scripts,
  // warnings included). A page whose scripts carry error-severity
  // diagnostics is rejected at load time: InitializePage fails with the
  // first error, rendered exactly as xq_lint renders it.
  const std::vector<xquery::analysis::Diagnostic>& last_diagnostics() const {
    return last_diagnostics_;
  }

  // Number of listener invocations whose post-run apply/re-render pass
  // was skipped because the analyzer proved the listener DOM-pure.
  size_t pure_listener_skips() const { return pure_listener_skips_; }

  // Memo cache over pure listeners: dispatches answered from cache
  // without re-running the listener body, cache misses (first sight of a
  // (listener, payload) pair), and stale entries discarded because the
  // document mutated since they were recorded.
  struct MemoStats {
    base::RelaxedCounter hits;
    base::RelaxedCounter misses;
    base::RelaxedCounter invalidations;  // total: global + name causes
    // Cause split: entries killed by the whole-document version moving
    // with no per-name record to consult, vs entries whose recorded
    // read names were actually touched by a mutation.
    base::RelaxedCounter invalidations_global;
    base::RelaxedCounter invalidations_name;
    // Globally-stale entries rescued (and counted as hits) because none
    // of the name counters they recorded at fill time moved.
    base::RelaxedCounter fine_grained_survivals;
  };
  const MemoStats& memo_stats() const { return memo_stats_; }

  // Ablation switch for benchmarks: with the memo disabled every
  // dispatch re-runs the listener even when the analyzer proved it
  // memoizable.
  void set_memo_enabled(bool enabled) { memo_enabled_ = enabled; }
  bool memo_enabled() const { return memo_enabled_; }

  // Structured PUL deltas emitted by apply passes, across all pages
  // (PERFORMANCE.md §8). The page documents splice their element-name
  // index buckets from the same deltas.
  uint64_t deltas_emitted() const { return deltas_emitted_; }

  // Ablation switch for name-granular invalidation (PERFORMANCE.md §6).
  // Off restores the pre-effect-analysis behavior exactly: the memo
  // cache and the element-name index validate against the whole-document
  // version only, and updating listeners never take the staged path.
  // Applies to live pages and pages loaded later.
  void set_fine_grained_invalidation(bool on);
  bool fine_grained_invalidation() const {
    return fine_grained_invalidation_;
  }

  // Serialized value of the most recent listener invocation (whether
  // evaluated or replayed from the memo cache). Tests compare replayed
  // dispatches against fresh ones through this channel.
  const std::string& last_listener_result() const {
    return last_listener_result_;
  }

  // Path fast-path work done by the most recent listener invocation
  // (delta of the page evaluator's counters across the call). Benchmarks
  // assert the per-event dispatch actually hit the fast paths.
  struct EventStats {
    base::RelaxedCounter sorts_elided;
    base::RelaxedCounter sorts_performed;
    base::RelaxedCounter name_index_hits;
    base::RelaxedCounter early_exits;
    base::RelaxedCounter count_index_hits;
    // Streaming-pipeline deltas for the dispatch.
    base::RelaxedCounter items_pulled;
    base::RelaxedCounter items_materialized;
    base::RelaxedCounter buffers_avoided;
    // Memory-layer deltas for the dispatch: arena bytes/resets from the
    // evaluator that ran the listener, intern-pool hits across the call,
    // and memo cache traffic. Staged listeners evaluate on private
    // worker-slot evaluators, so these deltas stay exact per listener
    // under the pool too (intern hits aside: the pool is process-wide,
    // so concurrent listeners' hits land in whichever dispatch window is
    // open — totals remain accurate).
    base::RelaxedCounter arena_bytes_used;
    base::RelaxedCounter arena_resets;
    base::RelaxedCounter intern_hits;
    base::RelaxedCounter memo_hits;
    base::RelaxedCounter memo_misses;
    base::RelaxedCounter memo_invalidations;
    // Cause split of memo_invalidations (see MemoStats), plus hits that
    // were only possible through per-name counters.
    base::RelaxedCounter memo_invalidations_global;
    base::RelaxedCounter memo_invalidations_name;
    base::RelaxedCounter memo_fine_survivals;
    // Compiled-plan deltas for the dispatch: calls executed through a
    // register plan, compiled_plans-on calls that tree-walked instead,
    // and compilation work (zero on every warm dispatch — a memo hit
    // never even consults the plan layer).
    base::RelaxedCounter plan_hits;
    base::RelaxedCounter plan_misses;
    base::RelaxedCounter plan_compiles;
    base::RelaxedCounter plan_invalidations;
    // Delta-propagation work for the dispatch: structured PUL deltas
    // emitted by the apply pass, and index splices / avoided rebuilds the
    // listener's own lookups triggered (staged listeners report 0 here,
    // like intern_hits: the Document counters are process-shared).
    // delta_listeners_skipped is always 0; memo validity has one check,
    // the per-name probe, whose replays count as memo_fine_survivals.
    base::RelaxedCounter delta_emitted;
    base::RelaxedCounter delta_index_splices;
    base::RelaxedCounter delta_bucket_rebuilds_avoided;
    base::RelaxedCounter delta_listeners_skipped;
    // Async-federation deltas for the dispatch: fabric round trips the
    // listener issued, response-cache traffic, scatter-gather prefetches
    // (issued before the body ran / consumed by http:get inside it), and
    // the virtual-time cost split — makespan (wall-clock charged) vs
    // latency overlapped away by in-flight concurrency.
    base::RelaxedCounter http_requests;
    base::RelaxedCounter http_cache_hits;
    base::RelaxedCounter http_cache_misses;
    base::RelaxedCounter http_prefetch_issued;
    base::RelaxedCounter http_prefetch_hits;
    base::RelaxedDouble http_makespan_ms;
    base::RelaxedDouble http_overlapped_ms;
  };
  const EventStats& last_event_stats() const { return last_event_stats_; }

  // --- parallel dispatch runtime (PERFORMANCE.md §5) ---
  // Creates a worker pool of `workers` threads and wires it into the
  // event loop (off-thread `behind` completions), the event system
  // (staged parallel listeners) and every page evaluator (parallel
  // stream operators). workers == 0 tears the pool down: the serial
  // baseline, observably identical by construction.
  void EnableParallelDispatch(size_t workers);
  // Wires an externally owned pool instead (the multi-tenant page
  // server's one-pool-N-sessions substrate, PERFORMANCE.md §9): same
  // wiring as EnableParallelDispatch, but the pool is shared across
  // plug-ins and never torn down here. nullptr restores the serial
  // baseline. Any previously owned pool is destroyed.
  void UseSharedThreadPool(base::ThreadPool* pool);
  base::ThreadPool* thread_pool() { return active_pool_; }
  size_t parallel_dispatch_workers() const {
    return active_pool_ != nullptr ? active_pool_->size() : 0;
  }
  // Listener stagings that fell back to serial re-execution (worker-side
  // error or a PUL that slipped past the analyzer's proof).
  size_t parallel_fallbacks() const { return parallel_fallbacks_; }

  // Applies `options` to every live page evaluator and to evaluators of
  // pages loaded later (benchmark ablations flip the fast paths off).
  void set_eval_options(const xquery::Evaluator::EvalOptions& options);
  const xquery::Evaluator::EvalOptions& eval_options() const {
    return eval_options_;
  }
  // Cumulative counters of the evaluator serving `window`'s page, staged
  // runs included (merged at commit). Null when no page is loaded there.
  const xquery::Evaluator::EvalStats* page_eval_stats(
      const browser::Window* window) const;

  // --- BrowserBinding (grammar extensions §4.3-4.5) ---
  Status AttachListener(const std::string& event_name,
                        const xdm::Sequence& targets,
                        const xml::QName& listener,
                        xquery::DynamicContext& ctx) override;
  Status DetachListener(const std::string& event_name,
                        const xdm::Sequence& targets,
                        const xml::QName& listener,
                        xquery::DynamicContext& ctx) override;
  Status TriggerEvent(const std::string& event_name,
                      const xdm::Sequence& targets,
                      xquery::DynamicContext& ctx) override;
  Status AttachBehind(const std::string& event_name,
                      const xquery::Expr& call_expr,
                      const xml::QName& listener,
                      xquery::DynamicContext& ctx) override;
  Status SetStyle(const std::string& property, const xdm::Sequence& targets,
                  const std::string& value,
                  xquery::DynamicContext& ctx) override;
  Result<std::string> GetStyle(const std::string& property,
                               const xdm::Sequence& target,
                               xquery::DynamicContext& ctx) override;

  browser::Browser* browser() { return browser_; }

 private:
  // Everything the plug-in keeps per loaded page.
  struct PageContext {
    browser::Window* window = nullptr;
    std::vector<std::unique_ptr<xquery::Module>> modules;  // page scripts
    std::vector<std::unique_ptr<xquery::Module>> handler_modules;
    std::unique_ptr<xquery::StaticContext> sctx;
    std::unique_ptr<xquery::Evaluator> evaluator;
    std::unique_ptr<xquery::DynamicContext> ctx;
    std::vector<browser::Browser::BomTree> bom_trees;
    // Declared functions keyed on the interned name + arity, so the
    // per-dispatch eligibility checks allocate nothing (no Clark-string
    // rebuild).
    struct ListenerKey {
      const xml::InternedName* name = nullptr;
      size_t arity = 0;
      bool operator==(const ListenerKey& o) const {
        return name == o.name && arity == o.arity;
      }
    };
    struct ListenerKeyHash {
      size_t operator()(const ListenerKey& k) const {
        return std::hash<const void*>()(k.name) * 1315423911u + k.arity;
      }
    };
    // Functions the analyzer proved DOM-pure; listener calls resolving
    // to one of these skip the apply pass.
    std::unordered_set<ListenerKey, ListenerKeyHash> pure_functions;
    // The memoizable subset: pure AND free of observable host calls
    // (alert/prompt/confirm, fn:trace). Only these may be replayed from
    // the memo cache instead of re-evaluated.
    std::unordered_set<ListenerKey, ListenerKeyHash> memoizable_functions;
    // The parallel-safe superset: pure AND free of *interactive* host
    // calls (prompt/confirm block on the user; alert and fn:trace only
    // emit, so their output can be buffered worker-side and replayed in
    // registration order at commit). Only these listeners are staged on
    // the worker pool.
    std::unordered_set<ListenerKey, ListenerKeyHash> parallel_safe_functions;
    // Updating listeners with fully analyzed effect sets: not pure, but
    // safe to evaluate on a worker against the DOM snapshot (the PUL
    // transfers to the page context and applies at commit) whenever the
    // dispatcher's interference check admits them into a staged run.
    std::unordered_set<ListenerKey, ListenerKeyHash>
        stageable_updating_functions;
    // Static effect summaries (from AnalysisFacts::function_effects),
    // attached to registered listeners for staged-run admission.
    std::unordered_map<ListenerKey,
                       std::shared_ptr<const browser::ListenerEffects>,
                       ListenerKeyHash>
        listener_effects;
    // For memoizable listeners whose read set the analyzer fully named:
    // the names whose counters a memo entry records at fill time.
    std::unordered_map<ListenerKey, std::vector<const xml::InternedName*>,
                       ListenerKeyHash>
        listener_read_names;
    // Analyzer facts merged across all page scripts, shared with the
    // page evaluator and every worker-slot evaluator so compiled-plan
    // specialization sees one facts object (cardinality entries key on
    // AST nodes owned by `modules`).
    std::shared_ptr<const xquery::analysis::AnalysisFacts> facts;

    // Scatter-gather federation (PERFORMANCE.md §10): the page-level
    // prefetcher http:get consults (serial dispatch and the main body),
    // and per-listener static fetch plans cached by declaration. Plans
    // are computed lazily under fetch_plans_mu — staged listeners probe
    // from pool workers.
    std::unique_ptr<net::HttpPrefetcher> prefetcher;
    std::unordered_map<const void*,
                       std::shared_ptr<const xquery::federation::
                                           StaticFetchPlan>>
        listener_fetch_plans;
    std::mutex fetch_plans_mu;

    // Mutation-versioned memo cache for pure listeners. Keyed on the
    // interned listener name (pointer identity), arity, and a hash of
    // the full event payload (including target node identities). An
    // entry is valid while the page document's mutation version matches,
    // or, once the version moved, while the per-name counters of every
    // name the listener reads still match (ProbeMemo). A stale entry is
    // discarded (counted as invalidation) at the commit of its next call.
    struct MemoKey {
      const xml::InternedName* name = nullptr;
      size_t arity = 0;
      uint64_t payload_hash = 0;
      bool operator==(const MemoKey& o) const {
        return name == o.name && arity == o.arity &&
               payload_hash == o.payload_hash;
      }
    };
    struct MemoKeyHash {
      size_t operator()(const MemoKey& k) const {
        size_t h = std::hash<const void*>()(k.name);
        h = h * 1315423911u + k.arity;
        h = h * 1315423911u + static_cast<size_t>(k.payload_hash);
        return h;
      }
    };
    struct MemoEntry {
      uint64_t doc_version = 0;
      std::string serialized;  // SequenceToString of the listener result
      // Name-granular validity (PERFORMANCE.md §6): the per-name
      // mutation counter of every name the listener reads, captured at
      // fill time on the loop thread. A globally-stale entry whose
      // counters all still match is provably exact — served as a hit
      // (a fine_grained_survival) instead of being discarded.
      bool fine_grained = false;
      std::vector<std::pair<const xml::InternedName*, uint64_t>>
          read_versions;
    };
    // Guarded by memo_mu: staged listeners probe concurrently from pool
    // workers (shared lock); inserts and invalidations run exclusively
    // on the loop thread's commit slot.
    std::unordered_map<MemoKey, MemoEntry, MemoKeyHash> memo_cache;
    mutable std::shared_mutex memo_mu;

    // One worker slot per concurrently staged listener: a private
    // DynamicContext + Evaluator (own arena, own stats, own scratch
    // documents) that evaluates against the shared read-only DOM
    // snapshot. Slots are pooled so steady-state dispatch allocates
    // nothing; the environment is re-copied from the page context per
    // staging (globals may rebind between events).
    struct WorkerSlot {
      std::unique_ptr<xquery::DynamicContext> ctx;
      std::unique_ptr<xquery::Evaluator> evaluator;
      // Slot-private prefetcher: staged listeners scatter and drain
      // without racing prefetches issued by concurrently staged peers.
      std::unique_ptr<net::HttpPrefetcher> prefetcher;
      std::vector<std::string> alerts;  // buffered browser:alert output
      std::vector<std::string> traces;  // buffered fn:trace output
      std::string result;  // serialized result, handed over at commit
    };
    // shared_ptr because the staged commit closure (a copyable
    // std::function) carries the slot from the worker to the loop thread.
    std::vector<std::shared_ptr<WorkerSlot>> free_slots;
    std::mutex slots_mu;
  };

  std::shared_ptr<PageContext> FindPageShared(const browser::Window* window);
  PageContext* FindPage(const browser::Window* window) const;
  PageContext* FindPageByContext(const xquery::DynamicContext& ctx);

  void RegisterBrowserFunctions(PageContext* page);
  // Installs an already-parsed (and analyzed) script module: optimizes
  // it (using the analyzer's `facts` when given), adds its declarations
  // to the static context, binds globals, runs the body.
  Status RunXQueryModule(PageContext* page,
                         std::unique_ptr<xquery::Module> module,
                         const xquery::analysis::AnalysisFacts* facts);
  Status RegisterXQueryInlineHandler(PageContext* page,
                                     const browser::InlineHandler& handler);

  // --- The listener pipeline ---------------------------------------
  // Every listener call (§4.3.1, `($evt, $obj)`) takes the same four
  // steps: resolve the arity, probe the memo, run the body, commit. The
  // serial executor (InvokeListener) runs all four inline on the loop
  // thread against the page evaluator. The staged executor
  // (StageOnWorker) runs the first three on a pool worker against a
  // worker slot and returns the commit as a closure that the dispatcher
  // calls on the loop thread in registration order.

  // What the memo probe found for one call.
  enum class MemoProbe : uint8_t {
    kNone,         // not memoizable: never probed
    kMiss,         // no entry
    kHit,          // entry recorded at the current document version
    kFineHit,      // version moved, but no recorded read name did
    kStaleGlobal,  // version moved and the entry names no reads
    kStaleName,    // a recorded read name moved
  };
  // One listener call between its run and its commit.
  struct ListenerCall {
    // Listener name and resolved arity; the payload hash is filled for
    // memoizable listeners only.
    PageContext::MemoKey key;
    // Staged updating listener: its PUL transfers to the page at commit.
    bool updating = false;
    MemoProbe memo = MemoProbe::kNone;
    uint64_t doc_version = 0;  // the version the probe validated against
    Status status;             // the body's error, if any
    // Counters the run moved: the evaluator's own, plus the delta/http
    // blocks the host diffs (prefetches; cache traffic and index splices
    // on the serial executor only).
    xquery::Evaluator::EvalStats stats;
    // Process-shared counters. Concurrently staged peers would land in
    // a staged run's window, so only the serial executor diffs them.
    uint64_t intern_hits = 0;
    uint64_t http_requests = 0;
    double http_makespan_ms = 0;
    double http_overlapped_ms = 0;
  };

  // The serial executor. Reports BRWS0004 when no arity resolves.
  void InvokeListener(PageContext* page, const xml::QName& function,
                      const browser::Event& event);
  // The staged executor: evaluates on a pool worker against the DOM
  // snapshot (the loop thread is parked inside the dispatch batch, so
  // the snapshot cannot move). A listener that is not stageable under
  // today's arity resolution, or a worker-side surprise (error,
  // non-empty PUL from a pure listener, interactive call), yields a
  // commit that re-runs it through InvokeListener.
  std::function<void()> StageOnWorker(std::shared_ptr<PageContext> page,
                                      const xml::QName& function,
                                      const browser::Event& event);
  // Steps 2-3: probe the memo and, on a miss, run the body on `slot`'s
  // evaluator (staged) or the page evaluator (slot == nullptr). The
  // result goes to slot->result or straight to last_listener_result_.
  void RunListener(PageContext* page, PageContext::WorkerSlot* slot,
                   const xml::QName& function, const browser::Event& event,
                   ListenerCall* call);
  // Read-only memo validity check, safe from pool workers. On a hit the
  // cached result is copied to `*cached`.
  MemoProbe ProbeMemo(const PageContext& page,
                      const PageContext::MemoKey& key, uint64_t doc_version,
                      std::string* cached) const;
  // Step 4, on the loop thread: hand the staged output over, then do the
  // stats fill, the PUL apply and the memo fill or erase.
  void CommitListener(PageContext* page, PageContext::WorkerSlot* slot,
                      ListenerCall& call);
  // Builds a memo entry for a clean run of `function`, recording the
  // per-name mutation counters of its read set when fine-grained
  // invalidation is on and the analyzer fully named the reads. Runs on
  // the loop thread (the name-version map is loop-thread-only).
  PageContext::MemoEntry MakeMemoEntry(PageContext* page,
                                       const PageContext::ListenerKey& key,
                                       uint64_t doc_version,
                                       std::string serialized) const;
  Status ApplyAfterRun(PageContext* page);

  // Moves a worker slot's output into the page where a serial run would
  // have put it: buffered host output in registration order and, when
  // `updates`, the PUL plus the scratch documents that own its content
  // trees. Loop thread.
  void HandOverSlotOutput(PageContext* page, PageContext::WorkerSlot* slot,
                          bool updates);
  // Worker-slot pool management (PageContext::free_slots). Acquire may
  // run on a pool worker (slot creation is self-contained); Release runs
  // wherever the commit or the discarded staging ends.
  std::shared_ptr<PageContext::WorkerSlot> AcquireWorkerSlot(
      PageContext* page);
  void ReleaseWorkerSlot(PageContext* page,
                         std::shared_ptr<PageContext::WorkerSlot> slot);

  // Scatter-gather prefetch (PERFORMANCE.md §10): resolves `function`'s
  // static fetch plan (cached per declaration) and, when the listener
  // body is provably fabric-read-only, issues every statically known GET
  // through `prefetcher` before the body runs — the fetches overlap in
  // the fabric's virtual-time window instead of serializing. Safe from
  // pool workers (plan cache is mutex-guarded, fabric/prefetcher are
  // thread-safe).
  void ScatterListenerPrefetch(PageContext* page,
                               net::HttpPrefetcher* prefetcher,
                               const xml::QName& function, size_t arity);

  // Builds the <event> element passed as $evt (paper §4.3.2) in `ctx`'s
  // scratch document — the page context serially, a worker slot's
  // context when staged.
  xml::Node* MaterializeEvent(xquery::DynamicContext* ctx,
                              const browser::Event& event);

  // Points the event loop, event system, and every page evaluator at
  // `pool` (null = serial) and records it as the active pool.
  void WireThreadPool(base::ThreadPool* pool);

  static std::string ListenerId(const xml::QName& fn) {
    return "xquery:" + fn.Clark();
  }

  browser::Browser* browser_;
  net::HttpFabric* fabric_;
  net::ServiceHost* services_;
  ForeignScriptEngine* foreign_engine_ = nullptr;
  std::unordered_map<const browser::Window*, std::shared_ptr<PageContext>>
      pages_;
  std::vector<std::string> alerts_;
  InitTiming last_init_timing_;
  Status last_script_error_;
  std::vector<xquery::analysis::Diagnostic> last_diagnostics_;
  size_t pure_listener_skips_ = 0;
  bool memo_enabled_ = true;
  bool fine_grained_invalidation_ = true;
  MemoStats memo_stats_;
  uint64_t deltas_emitted_ = 0;
  std::string last_listener_result_;
  EventStats last_event_stats_;
  xquery::Evaluator::EvalOptions eval_options_;
  // Owned pool (EnableParallelDispatch mode). In shared mode
  // (UseSharedThreadPool) this stays null and active_pool_ points at
  // the caller's pool; all wiring goes through active_pool_.
  std::unique_ptr<base::ThreadPool> pool_;
  base::ThreadPool* active_pool_ = nullptr;
  size_t parallel_fallbacks_ = 0;
};

}  // namespace xqib::plugin

#endif  // XQIB_PLUGIN_PLUGIN_H_
