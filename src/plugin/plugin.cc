#include "plugin/plugin.h"

#include <chrono>

#include "base/strings.h"
#include "browser/css.h"
#include "net/rest.h"
#include "xquery/analysis/effects.h"
#include "xquery/optimizer.h"
#include "xquery/update.h"

namespace xqib::plugin {

using browser::Browser;
using browser::Event;
using browser::InlineHandler;
using browser::LooksLikeXQueryHandler;
using browser::RewriteInlineHandler;
using browser::Script;
using browser::ScriptLanguage;
using browser::Window;
using xdm::Item;
using xdm::Sequence;
using xquery::DynamicContext;
using xquery::Expr;

namespace {

double NowMicros() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1000.0;
}

xml::QName BrowserQName(const char* local) {
  return xml::QName(std::string(xml::kBrowserNamespace), "browser", local);
}

Result<xml::Node*> SingleNodeArg(const Sequence& seq, const char* what) {
  if (seq.size() != 1 || !seq[0].is_node()) {
    return Status::TypeError(std::string(what) +
                             " expects exactly one node argument");
  }
  return seq[0].node();
}

// Inverts AnalysisFacts::FunctionKey ("{ns}local#arity" or
// "local#arity") back into the interned name + arity, so listener
// eligibility checks compare tokens instead of rebuilding strings.
const xml::InternedName* ParseFunctionKeyToken(const std::string& key,
                                               size_t* arity) {
  size_t hash = key.rfind('#');
  if (hash == std::string::npos) return nullptr;
  *arity = static_cast<size_t>(std::atoi(key.c_str() + hash + 1));
  std::string_view clark(key.data(), hash);
  std::string_view ns, local;
  if (!clark.empty() && clark.front() == '{') {
    size_t close = clark.find('}');
    if (close == std::string_view::npos) return nullptr;
    ns = clark.substr(1, close - 1);
    local = clark.substr(close + 1);
  } else {
    local = clark;
  }
  return xml::InternName(ns, local);
}

// Listener signature per §4.3.1: ($evt, $obj), or a prefix of it. The
// widest declared arity wins; false when none of 0-2 is declared.
bool ResolveListenerArity(const xquery::StaticContext& sctx,
                          const xml::QName& function, size_t* arity) {
  for (size_t a : {2, 1, 0}) {
    if (sctx.FindFunction(function, a) != nullptr) {
      *arity = a;
      return true;
    }
  }
  return false;
}

// The per-dispatch view (EventStats) of one listener call's counters.
void FillEventStats(const xquery::Evaluator::EvalStats& d,
                    XqibPlugin::EventStats* es) {
  es->sorts_elided = d.sorts_elided;
  es->sorts_performed = d.sorts_performed;
  es->name_index_hits = d.name_index_hits;
  es->early_exits = d.early_exits;
  es->count_index_hits = d.count_index_hits;
  es->items_pulled = d.streams.items_pulled;
  es->items_materialized = d.streams.items_materialized;
  es->buffers_avoided = d.streams.buffers_avoided;
  es->arena_bytes_used = d.arena_bytes_used;
  es->arena_resets = d.arena_resets;
  es->plan_hits = d.plan_hits;
  es->plan_misses = d.plan_misses;
  es->plan_compiles = d.plan_compiles;
  es->plan_invalidations = d.plan_invalidations;
  es->delta_emitted = d.delta.emitted;
  es->delta_index_splices = d.delta.index_splices;
  es->delta_bucket_rebuilds_avoided = d.delta.bucket_rebuilds_avoided;
  es->http_cache_hits = d.http.cache_hits;
  es->http_cache_misses = d.http.cache_misses;
  es->http_prefetch_issued = d.http.prefetch_issued;
  es->http_prefetch_hits = d.http.prefetch_hits;
}

// FNV-1a over the complete event payload a listener can observe through
// $evt/$obj: every field MaterializeEvent serializes plus the identities
// of the target and current-target nodes. Two events with equal hashes
// and an unchanged document version are indistinguishable to a
// memoizable listener.
uint64_t HashEventPayload(const Event& event) {
  uint64_t h = 1469598103934665603ull;
  auto mix_bytes = [&h](const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  auto mix_str = [&](const std::string& s) {
    mix_bytes(s.data(), s.size());
    h ^= 0xff;  // length/field separator
    h *= 1099511628211ull;
  };
  mix_str(event.type);
  unsigned char flags = (event.alt_key ? 1 : 0) | (event.ctrl_key ? 2 : 0) |
                        (event.shift_key ? 4 : 0);
  mix_bytes(&flags, 1);
  int button = event.button;
  mix_bytes(&button, sizeof(button));
  mix_str(event.value);
  int phase = static_cast<int>(event.phase);
  mix_bytes(&phase, sizeof(phase));
  const xml::Node* target = event.target;
  mix_bytes(&target, sizeof(target));
  const xml::Node* current = event.current_target;
  mix_bytes(&current, sizeof(current));
  return h;
}

}  // namespace

XqibPlugin::XqibPlugin(Browser* browser, net::HttpFabric* fabric,
                       net::ServiceHost* services)
    : browser_(browser), fabric_(fabric), services_(services) {
  confirm_responder = [](const std::string&) { return true; };
  prompt_responder = [](const std::string&) { return std::string(); };
}

XqibPlugin::~XqibPlugin() = default;

void XqibPlugin::Install() {
  browser_->on_page_loaded = [this](Window* window) {
    Status st = InitializePage(window);
    if (!st.ok()) last_script_error_ = st;
  };
  // Dropping the shared PageContext here makes queued async tasks
  // (behind-completions, triggers) no-ops via their weak_ptr.
  browser_->on_window_closed = [this](Window* window) {
    pages_.erase(window);
  };
}

XqibPlugin::PageContext* XqibPlugin::FindPage(const Window* window) const {
  auto it = pages_.find(window);
  return it == pages_.end() ? nullptr : it->second.get();
}

std::shared_ptr<XqibPlugin::PageContext> XqibPlugin::FindPageShared(
    const Window* window) {
  auto it = pages_.find(window);
  return it == pages_.end() ? nullptr : it->second;
}

XqibPlugin::PageContext* XqibPlugin::FindPageByContext(
    const DynamicContext& ctx) {
  for (auto& [window, page] : pages_) {
    if (page->ctx.get() == &ctx) return page.get();
  }
  return nullptr;
}

Status XqibPlugin::InitializePage(Window* window) {
  last_init_timing_ = InitTiming();
  auto page = std::make_shared<PageContext>();
  page->window = window;
  page->sctx = std::make_unique<xquery::StaticContext>();
  page->ctx = std::make_unique<DynamicContext>();
  page->ctx->browser_profile = true;  // fn:doc blocked (§4.2.1)
  page->ctx->browser_binding = this;
  DynamicContext::Focus focus;
  focus.item = Item::Node(window->document()->root());
  focus.position = 1;
  focus.size = 1;
  focus.has_item = true;
  page->ctx->set_focus(focus);
  RegisterBrowserFunctions(page.get());
  if (fabric_ != nullptr) {
    page->prefetcher = std::make_unique<net::HttpPrefetcher>(fabric_);
    page->ctx->prefetcher = page->prefetcher.get();
    net::RegisterRestFunctions(page->ctx.get(), fabric_,
                               page->prefetcher.get());
  }
  pages_[window] = page;
  window->document()->set_fine_grained_versions(true);
  // Page documents always track deltas: PUL applies splice the
  // element-name index instead of rebuilding it.
  window->document()->set_delta_tracking(true);

  // Step 2: extract scripts and inline handlers.
  double t0 = NowMicros();
  std::vector<Script> scripts = browser::ExtractScripts(window->document());
  std::vector<InlineHandler> handlers =
      browser::ExtractInlineHandlers(window->document());
  last_init_timing_.extract_us = NowMicros() - t0;

  // Step 3: foreign (JavaScript) scripts first, per §4.1.
  t0 = NowMicros();
  for (const Script& script : scripts) {
    if (script.language == ScriptLanguage::kXQuery ||
        script.language == ScriptLanguage::kXQueryP) {
      continue;
    }
    if (foreign_engine_ != nullptr &&
        foreign_engine_->Handles(script.language)) {
      XQ_RETURN_NOT_OK(foreign_engine_->RunScript(window, script));
    }
  }
  last_init_timing_.foreign_us = NowMicros() - t0;

  // Step 4a: parse ALL XQuery scripts before running any — the page's
  // scripts share one static context (a listener registered by script 1
  // may call a function declared by script 3), so analysis needs every
  // prolog up front.
  t0 = NowMicros();
  std::vector<std::unique_ptr<xquery::Module>> parsed;
  for (const Script& script : scripts) {
    if (script.language != ScriptLanguage::kXQuery &&
        script.language != ScriptLanguage::kXQueryP) {
      continue;
    }
    ++last_init_timing_.xquery_scripts;
    XQ_ASSIGN_OR_RETURN(std::unique_ptr<xquery::Module> module,
                        xquery::ParseModule(script.code));
    parsed.push_back(std::move(module));
  }

  // Step 4b: joint static analysis. A script with error-severity
  // diagnostics rejects the whole page at load time — a broken listener
  // should fail here, not at event-dispatch time in front of the user.
  last_diagnostics_.clear();
  Status analysis_failure;
  // Per-module facts are kept for the optimizer: its ordering/elision
  // and inferred rewrites key off analyzer cardinalities, and the
  // listener loop re-runs these ASTs on every event.
  std::vector<xquery::analysis::AnalysisFacts> module_facts(parsed.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    xquery::analysis::Analyzer analyzer;
    for (size_t j = 0; j < parsed.size(); ++j) {
      if (j != i) analyzer.AddContextModule(*parsed[j]);
    }
    xquery::analysis::AnalysisResult result = analyzer.Analyze(*parsed[i]);
    if (analysis_failure.ok() && result.has_errors()) {
      analysis_failure = result.ToStatus();
    }
    auto add_keys = [](const auto& keys, auto* set) {
      for (const std::string& key : keys) {
        size_t arity = 0;
        const xml::InternedName* token = ParseFunctionKeyToken(key, &arity);
        if (token != nullptr) set->insert({token, arity});
      }
    };
    add_keys(result.facts.pure_functions, &page->pure_functions);
    add_keys(result.facts.memoizable_functions, &page->memoizable_functions);
    add_keys(result.facts.parallel_safe_functions,
             &page->parallel_safe_functions);
    add_keys(result.facts.stageable_updating_functions,
             &page->stageable_updating_functions);
    // Effect summaries feed two consumers: the dispatcher's staged-run
    // interference check (every listener) and the memo cache's per-name
    // validity records (memoizable listeners with fully named reads).
    for (const auto& [key, eff] : result.facts.function_effects) {
      size_t arity = 0;
      const xml::InternedName* token = ParseFunctionKeyToken(key, &arity);
      if (token == nullptr) continue;
      PageContext::ListenerKey lkey{token, arity};
      auto fx = std::make_shared<browser::ListenerEffects>();
      fx->updating = eff.has_update;
      fx->reads_top = eff.reads_top();
      fx->writes_top = eff.writes.top;
      fx->scope_top = eff.write_scope.top;
      fx->child_reads = eff.child_reads.names;
      fx->value_reads = eff.value_reads.names;
      fx->writes = eff.writes.names;
      fx->write_scope = eff.write_scope.names;
      page->listener_effects[lkey] = std::move(fx);
      if (!eff.reads_top()) {
        page->listener_read_names[lkey] = eff.ReadNames();
      }
    }
    for (auto& d : result.diagnostics) {
      last_diagnostics_.push_back(std::move(d));
    }
    module_facts[i] = std::move(result.facts);
  }
  // Merge the per-module facts into one shared object for the plan
  // compiler: a page's scripts share a static context, so one plan set
  // (and one cardinality/purity view) covers them all.
  {
    auto merged = std::make_shared<xquery::analysis::AnalysisFacts>();
    for (const xquery::analysis::AnalysisFacts& mf : module_facts) {
      merged->cardinality.insert(mf.cardinality.begin(), mf.cardinality.end());
      merged->pure_functions.insert(mf.pure_functions.begin(),
                                    mf.pure_functions.end());
      merged->memoizable_functions.insert(mf.memoizable_functions.begin(),
                                          mf.memoizable_functions.end());
      merged->parallel_safe_functions.insert(
          mf.parallel_safe_functions.begin(), mf.parallel_safe_functions.end());
      merged->stageable_updating_functions.insert(
          mf.stageable_updating_functions.begin(),
          mf.stageable_updating_functions.end());
      merged->function_effects.insert(mf.function_effects.begin(),
                                      mf.function_effects.end());
    }
    page->facts = std::move(merged);
  }
  last_init_timing_.compile_us += NowMicros() - t0;
  XQ_RETURN_NOT_OK(analysis_failure);

  // Step 4c: install each script (prolog, globals, main body) in order.
  for (size_t i = 0; i < parsed.size(); ++i) {
    XQ_RETURN_NOT_OK(RunXQueryModule(page.get(), std::move(parsed[i]),
                                     &module_facts[i]));
  }

  // The Zorba-based plug-in puts on-load code in local:main() (§5.1).
  xml::QName main_fn("http://www.w3.org/2005/xquery-local-functions",
                     "local", "main");
  if (page->sctx->FindFunction(main_fn, 0) != nullptr) {
    XQ_ASSIGN_OR_RETURN(Sequence ignored,
                        page->evaluator->CallFunction(main_fn, {}, *page->ctx));
    (void)ignored;
    if (page->evaluator->exited()) page->evaluator->TakeExitValue();
    XQ_RETURN_NOT_OK(ApplyAfterRun(page.get()));
  }

  // Inline on* handlers route to whichever engine owns them.
  for (const InlineHandler& handler : handlers) {
    if (!page->modules.empty() && LooksLikeXQueryHandler(handler.code)) {
      XQ_RETURN_NOT_OK(RegisterXQueryInlineHandler(page.get(), handler));
    } else if (foreign_engine_ != nullptr) {
      XQ_RETURN_NOT_OK(
          foreign_engine_->RegisterInlineHandler(window, handler));
    }
  }
  last_init_timing_.listeners_registered = browser_->events().listener_count();
  // Settle any speculative GET the page load scattered but never
  // consumed (a FLWOR `where` can filter prefetched items out) — stale
  // responses must not leak into the first event dispatch.
  if (page->prefetcher != nullptr) page->prefetcher->Drain();
  return Status();
}

Status XqibPlugin::RunXQueryModule(PageContext* page,
                                   std::unique_ptr<xquery::Module> module,
                                   const xquery::analysis::AnalysisFacts* facts) {
  // Optimize before installing: page scripts are compiled once but their
  // listener bodies run on every event, so the rewrite passes (path
  // collapsing, ordering elision, constant folding) pay off at dispatch
  // time.
  xquery::OptimizeModule(module.get(), xquery::OptimizerOptions(), facts);
  page->sctx->AddModule(*module);
  // (Re)build the evaluator: the static context gained declarations.
  page->evaluator = std::make_unique<xquery::Evaluator>(*page->sctx);
  page->evaluator->set_options(eval_options_);
  page->evaluator->set_thread_pool(active_pool_);
  page->evaluator->set_analysis_facts(page->facts);
  if (services_ != nullptr) {
    services_->RegisterStubsForImports(*module, page->ctx.get());
  }

  // Bind this module's globals.
  double t0 = NowMicros();
  for (const xquery::VarDecl& decl : module->variables) {
    if (decl.init == nullptr) {
      if (!decl.external) page->ctx->env().Bind(decl.name, Sequence{});
      continue;
    }
    XQ_ASSIGN_OR_RETURN(Sequence value,
                        page->evaluator->Eval(*decl.init, *page->ctx));
    page->ctx->env().Bind(decl.name, std::move(value));
  }
  last_init_timing_.bind_globals_us += NowMicros() - t0;

  // Run the main body (registers listeners, builds the initial page).
  t0 = NowMicros();
  if (module->body != nullptr) {
    const Expr& body = *module->body;
    page->modules.push_back(std::move(module));
    XQ_ASSIGN_OR_RETURN(Sequence ignored,
                        page->evaluator->Eval(body, *page->ctx));
    (void)ignored;
    if (page->evaluator->exited()) page->evaluator->TakeExitValue();
    XQ_RETURN_NOT_OK(ApplyAfterRun(page));
  } else {
    page->modules.push_back(std::move(module));
  }
  last_init_timing_.run_main_us += NowMicros() - t0;
  return Status();
}

Status XqibPlugin::RegisterXQueryInlineHandler(PageContext* page,
                                               const InlineHandler& handler) {
  std::string rewritten = RewriteInlineHandler(handler.code);
  XQ_ASSIGN_OR_RETURN(std::unique_ptr<xquery::Module> module,
                      xquery::ParseModule(rewritten));
  // Inline handlers get the same load-time checking as script blocks:
  // an onclick calling an undeclared function is rejected here.
  xquery::analysis::Analyzer analyzer;
  for (const auto& m : page->modules) analyzer.AddContextModule(*m);
  xquery::analysis::AnalysisResult analyzed = analyzer.Analyze(*module);
  for (auto& d : analyzed.diagnostics) {
    last_diagnostics_.push_back(std::move(d));
  }
  XQ_RETURN_NOT_OK(analyzed.ToStatus());
  xquery::OptimizeModule(module.get(), xquery::OptimizerOptions(),
                         &analyzed.facts);
  const Expr* body = module->body.get();
  if (body == nullptr) return Status();
  page->handler_modules.push_back(std::move(module));

  std::weak_ptr<PageContext> weak = FindPageShared(page->window);
  std::string type = handler.event;
  browser::Listener listener;
  listener.id = "xquery-inline:" + type + ":" + handler.code;
  listener.callback = [this, weak, body](Event& event) {
    std::shared_ptr<PageContext> page = weak.lock();
    if (page == nullptr) return;
    page->ctx->env().PushScope();
    // The JS-flavoured identifiers are visible as browser: variables.
    std::string value = event.value;
    if (value.empty() && event.target != nullptr) {
      value = event.target->GetAttributeValue("value");
    }
    page->ctx->env().Bind(BrowserQName("value"),
                          Sequence{Item::String(value)});
    page->ctx->env().Bind(
        BrowserQName("event"),
        Sequence{Item::Node(MaterializeEvent(page->ctx.get(), event))});
    page->ctx->env().Bind(
        BrowserQName("target"),
        event.target != nullptr ? Sequence{Item::Node(event.target)}
                                : Sequence{});
    Result<Sequence> result = page->evaluator->Eval(*body, *page->ctx);
    if (page->evaluator->exited()) page->evaluator->TakeExitValue();
    page->ctx->env().PopScope();
    if (!result.ok()) {
      last_script_error_ = result.status();
      page->evaluator->ResetDispatchArena(*page->ctx);
      return;
    }
    Status st = ApplyAfterRun(page.get());
    if (!st.ok()) last_script_error_ = st;
    page->evaluator->ResetDispatchArena(*page->ctx);
  };
  browser_->events().AddListener(handler.element, type, std::move(listener));
  return Status();
}

Status XqibPlugin::ApplyAfterRun(PageContext* page) {
  const bool updated = !page->ctx->pul().empty();
  xml::DomDelta delta;
  XQ_RETURN_NOT_OK(page->ctx->pul().ApplyAll(updated ? &delta : nullptr));
  if (updated && !delta.Empty()) ++deltas_emitted_;
  for (const Browser::BomTree& tree : page->bom_trees) {
    XQ_RETURN_NOT_OK(browser_->SyncFromBomTree(tree, page->window->url()));
  }
  return Status();
}

xml::Node* XqibPlugin::MaterializeEvent(DynamicContext* ctx,
                                        const Event& event) {
  xml::Document* doc = ctx->scratch_document();
  xml::Node* elem = doc->CreateElement(xml::QName("event"));
  auto add = [&](const char* name, const std::string& value) {
    xml::Node* child = doc->CreateElement(xml::QName(name));
    if (!value.empty()) child->AppendChild(doc->CreateText(value));
    elem->AppendChild(child);
  };
  add("type", event.type);
  add("altKey", event.alt_key ? "true" : "false");
  add("ctrlKey", event.ctrl_key ? "true" : "false");
  add("shiftKey", event.shift_key ? "true" : "false");
  add("button", std::to_string(event.button));
  add("value", event.value);
  add("phase", event.phase == Event::Phase::kCapture  ? "capture"
               : event.phase == Event::Phase::kTarget ? "target"
                                                      : "bubble");
  return elem;
}

void XqibPlugin::ScatterListenerPrefetch(PageContext* page,
                                         net::HttpPrefetcher* prefetcher,
                                         const xml::QName& function,
                                         size_t arity) {
  if (!eval_options_.async_federation) return;
  const xquery::FunctionDecl* decl =
      page->sctx->FindFunction(function, arity);
  if (decl == nullptr) return;
  std::shared_ptr<const xquery::federation::StaticFetchPlan> plan;
  {
    std::lock_guard<std::mutex> lk(page->fetch_plans_mu);
    auto it = page->listener_fetch_plans.find(decl);
    if (it != page->listener_fetch_plans.end()) plan = it->second;
  }
  if (plan == nullptr) {
    // Analyze outside the lock (the reachability walk can be deep); a
    // racing loser finds an identical plan already inserted.
    auto computed =
        std::make_shared<const xquery::federation::StaticFetchPlan>(
            xquery::federation::CollectListenerFetchUrls(*decl, *page->sctx));
    std::lock_guard<std::mutex> lk(page->fetch_plans_mu);
    plan = page->listener_fetch_plans.emplace(decl, std::move(computed))
               .first->second;
  }
  // `safe` means nothing reachable from the body writes the fabric (or
  // runs code we cannot see), so fetching early observes the same bytes
  // as fetching in evaluation order.
  if (!plan->safe) return;
  for (const std::string& url : plan->urls) prefetcher->Prefetch(url);
}

void XqibPlugin::InvokeListener(PageContext* page, const xml::QName& function,
                                const Event& event) {
  ListenerCall call;
  if (!ResolveListenerArity(*page->sctx, function, &call.key.arity)) {
    last_script_error_ = Status::Error(
        "BRWS0004", "no listener function " + function.Lexical() +
                        " with arity 0, 1 or 2");
    return;
  }
  RunListener(page, nullptr, function, event, &call);
  CommitListener(page, nullptr, call);
}

std::function<void()> XqibPlugin::StageOnWorker(
    std::shared_ptr<PageContext> page, const xml::QName& function,
    const Event& event) {
  // The attach-time eligibility check used the arity resolution of that
  // moment; re-verify against today's — a later script may have added an
  // overload that resolves first and was NOT proved stageable.
  ListenerCall call;
  const bool resolved =
      ResolveListenerArity(*page->sctx, function, &call.key.arity);
  const PageContext::ListenerKey key{function.token(), call.key.arity};
  const bool pure_safe =
      resolved && page->parallel_safe_functions.count(key) > 0;
  call.updating = resolved && !pure_safe &&
                  page->stageable_updating_functions.count(key) > 0;
  if (pure_safe || call.updating) {
    std::shared_ptr<PageContext::WorkerSlot> slot =
        AcquireWorkerSlot(page.get());
    RunListener(page.get(), slot.get(), function, event, &call);
    // A pure listener must come back with an empty PUL (anything else
    // means the analyzer's proof was wrong); an updating listener's PUL
    // is the point, and transfers at commit.
    if (call.status.ok() && (call.updating || slot->ctx->pul().empty())) {
      return [this, page, slot, call]() mutable {
        CommitListener(page.get(), slot.get(), call);
        ReleaseWorkerSlot(page.get(), std::move(slot));
      };
    }
    ReleaseWorkerSlot(page.get(), std::move(slot));
  }
  return [this, page, function, event]() {
    ++parallel_fallbacks_;
    InvokeListener(page.get(), function, event);
  };
}

XqibPlugin::MemoProbe XqibPlugin::ProbeMemo(const PageContext& page,
                                            const PageContext::MemoKey& key,
                                            uint64_t doc_version,
                                            std::string* cached) const {
  // Shared lock: staged listeners probe concurrently from pool workers
  // while the loop thread is parked inside the dispatch batch, so neither
  // the cache nor the name-version map can move underneath. Erasure,
  // insertion and re-anchoring happen exclusively at commit.
  std::shared_lock<std::shared_mutex> lk(page.memo_mu);
  auto it = page.memo_cache.find(key);
  if (it == page.memo_cache.end()) return MemoProbe::kMiss;
  const PageContext::MemoEntry& entry = it->second;
  MemoProbe found = MemoProbe::kHit;
  if (entry.doc_version != doc_version) {
    // Globally stale, but if none of the names the listener reads were
    // touched since fill time, the recorded result is still exact
    // (PERFORMANCE.md §6).
    if (!entry.fine_grained) {
      return MemoProbe::kStaleGlobal;
    }
    const xml::Document* doc = page.window->document();
    for (const auto& [token, version] : entry.read_versions) {
      if (doc->name_version(token) != version) return MemoProbe::kStaleName;
    }
    found = MemoProbe::kFineHit;
  }
  *cached = entry.serialized;
  return found;
}

void XqibPlugin::RunListener(PageContext* page, PageContext::WorkerSlot* slot,
                             const xml::QName& function, const Event& event,
                             ListenerCall* call) {
  call->key.name = function.token();
  DynamicContext* ctx = page->ctx.get();
  xquery::Evaluator* evaluator = page->evaluator.get();
  net::HttpPrefetcher* prefetcher = page->prefetcher.get();
  std::string* result = &last_listener_result_;
  if (slot != nullptr) {
    ctx = slot->ctx.get();
    evaluator = slot->evaluator.get();
    prefetcher = slot->prefetcher.get();
    result = &slot->result;
  }

  // Memo cache: a listener the analyzer proved memoizable (DOM-pure AND
  // free of observable host calls) can only read the event payload and
  // the document snapshot, so a valid entry for the payload is its
  // result — replay it instead of re-evaluating.
  if (memo_enabled_ && page->memoizable_functions.count(
                           {call->key.name, call->key.arity}) > 0) {
    call->key.payload_hash = HashEventPayload(event);
    call->doc_version = page->window->document()->mutation_version();
    call->memo = ProbeMemo(*page, call->key, call->doc_version, result);
    if (call->memo == MemoProbe::kHit || call->memo == MemoProbe::kFineHit) {
      return;
    }
  }

  if (slot != nullptr) {
    // Fresh environment/focus per staging: globals may rebind between
    // events. The page context is read-only for the whole staged run, so
    // the copy races with nothing.
    ctx->env() = page->ctx->env();
    ctx->set_focus(page->ctx->focus());
  }
  std::vector<Sequence> args;
  if (call->key.arity >= 1) {
    args.push_back(Sequence{Item::Node(MaterializeEvent(ctx, event))});
  }
  if (call->key.arity == 2) {
    // $obj is the node the listener is attached to (DOM `this`, i.e. the
    // current target while capturing/bubbling), not the original target.
    xml::Node* obj = event.current_target != nullptr ? event.current_target
                                                     : event.target;
    args.push_back(obj != nullptr ? Sequence{Item::Node(obj)} : Sequence{});
  }

  // Counters accumulate across the evaluator's whole lifetime, so
  // per-event numbers are before/after deltas. The prefetcher is
  // snapshotted BEFORE the scatter so the issuance is charged to this
  // call. Fabric, intern-pool and document counters are process-shared:
  // concurrently staged peers would land in a staged run's window, so
  // only the serial executor diffs them.
  const bool serial = slot == nullptr;
  net::HttpFabric::Stats http_before;
  if (serial && fabric_ != nullptr) http_before = fabric_->stats();
  net::HttpPrefetcher::Stats prefetch_before;
  if (prefetcher != nullptr) {
    prefetch_before = prefetcher->stats();
    // Scatter-gather federation (PERFORMANCE.md §10): issue every
    // statically known GET in the listener body up front, so the
    // fabric's virtual-time window overlaps their latencies.
    ScatterListenerPrefetch(page, prefetcher, function, call->key.arity);
  }
  const xquery::Evaluator::EvalStats before = evaluator->stats();
  const xml::Document* doc = page->window->document();
  xml::InternPoolStats intern_before;
  uint64_t splices_before = 0;
  uint64_t avoided_before = 0;
  if (serial) {
    intern_before = xml::GetInternStats();
    splices_before = doc->index_splices();
    avoided_before = doc->bucket_rebuilds_avoided();
  }
  Result<Sequence> value =
      evaluator->CallFunction(function, std::move(args), *ctx);
  // Await any prefetch the body never consumed: a leftover future must
  // not survive into a later dispatch (the resource may change), and its
  // latency still settles into the fabric's virtual clock as overlapped.
  if (prefetcher != nullptr) prefetcher->Drain();

  call->stats = evaluator->stats();
  call->stats -= before;
  if (prefetcher != nullptr) {
    const net::HttpPrefetcher::Stats& pf = prefetcher->stats();
    call->stats.http.prefetch_issued = pf.issued - prefetch_before.issued;
    call->stats.http.prefetch_hits = pf.hits - prefetch_before.hits;
  }
  if (serial) {
    call->intern_hits = xml::GetInternStats().hits - intern_before.hits;
    call->stats.delta.index_splices = doc->index_splices() - splices_before;
    call->stats.delta.bucket_rebuilds_avoided =
        doc->bucket_rebuilds_avoided() - avoided_before;
  }
  if (serial && fabric_ != nullptr) {
    const net::HttpFabric::Stats& hf = fabric_->stats();
    call->http_requests = hf.requests - http_before.requests;
    call->stats.http.cache_hits = hf.cache_hits - http_before.cache_hits;
    call->stats.http.cache_misses = hf.cache_misses - http_before.cache_misses;
    call->http_makespan_ms = hf.makespan_ms - http_before.makespan_ms;
    call->http_overlapped_ms = hf.overlapped_ms - http_before.overlapped_ms;
  }

  if (evaluator->exited()) evaluator->TakeExitValue();
  if (value.ok()) {
    *result = xdm::SequenceToString(*value);
  } else {
    call->status = value.status();
  }
  // The result is serialized and the PUL owns its content: reclaim every
  // stream operator this call allocated in one wholesale reset.
  evaluator->ResetDispatchArena(*ctx);
  call->stats.arena_resets = 1;
}

void XqibPlugin::CommitListener(PageContext* page,
                                PageContext::WorkerSlot* slot,
                                ListenerCall& call) {
  if (slot != nullptr) {
    last_listener_result_.swap(slot->result);
    HandOverSlotOutput(page, slot, call.updating);
  }

  last_event_stats_ = EventStats{};
  if (call.memo == MemoProbe::kHit || call.memo == MemoProbe::kFineHit) {
    ++memo_stats_.hits;
    last_event_stats_.memo_hits = 1;
    if (call.memo == MemoProbe::kFineHit) {
      ++memo_stats_.fine_grained_survivals;
      last_event_stats_.memo_fine_survivals = 1;
      // Re-anchor to the version the survival was proved at, so the next
      // probe takes the one-compare path. An entry refilled since the
      // probe carries a version at least as new; leave it.
      std::unique_lock<std::shared_mutex> lk(page->memo_mu);
      auto it = page->memo_cache.find(call.key);
      if (it != page->memo_cache.end() &&
          it->second.doc_version < call.doc_version) {
        it->second.doc_version = call.doc_version;
      }
    }
    // Memoizable implies pure: nothing to apply, nothing to render.
    ++pure_listener_skips_;
    return;
  }

  const PageContext::ListenerKey key{call.key.name, call.key.arity};
  bool filled = false;
  if (!call.status.ok()) {
    last_script_error_ = call.status;
  } else if (page->pure_functions.count(key) > 0 &&
             page->ctx->pul().empty()) {
    // A listener the analyzer proved DOM-pure cannot have produced update
    // primitives or touched BOM trees: skip the apply/re-render pass. The
    // PUL-empty check stays as a belt-and-braces runtime guard.
    ++pure_listener_skips_;
    // Record the result only for memoizable listeners and only on a
    // clean run — errors are never cached.
    if (call.memo != MemoProbe::kNone) {
      PageContext::MemoEntry entry =
          MakeMemoEntry(page, key, call.doc_version, last_listener_result_);
      std::unique_lock<std::shared_mutex> lk(page->memo_mu);
      page->memo_cache[call.key] = std::move(entry);
      filled = true;
    }
  } else {
    const uint64_t emitted_before = deltas_emitted_;
    Status st = ApplyAfterRun(page);
    if (!st.ok()) last_script_error_ = st;
    call.stats.delta.emitted = deltas_emitted_ - emitted_before;
  }

  if (call.memo == MemoProbe::kMiss) {
    ++memo_stats_.misses;
    last_event_stats_.memo_misses = 1;
  } else if (call.memo == MemoProbe::kStaleGlobal ||
             call.memo == MemoProbe::kStaleName) {
    if (!filled) {
      std::unique_lock<std::shared_mutex> lk(page->memo_mu);
      page->memo_cache.erase(call.key);
    }
    ++memo_stats_.invalidations;
    last_event_stats_.memo_invalidations = 1;
    if (call.memo == MemoProbe::kStaleName) {
      ++memo_stats_.invalidations_name;
      last_event_stats_.memo_invalidations_name = 1;
    } else {
      ++memo_stats_.invalidations_global;
      last_event_stats_.memo_invalidations_global = 1;
    }
  }

  // Cumulative counters: a staged run counted on its slot evaluator, so
  // all of it merges into the page evaluator; a serial run counted on the
  // page evaluator itself, which only lacks the blocks the host diffed.
  const xquery::Evaluator::EvalStats& s = call.stats;
  if (slot != nullptr) {
    page->evaluator->AddStats(s);
  } else {
    xquery::Evaluator::EvalStats::DeltaStats& ds =
        page->evaluator->mutable_delta_stats();
    ds.emitted += s.delta.emitted;
    ds.index_splices += s.delta.index_splices;
    ds.bucket_rebuilds_avoided += s.delta.bucket_rebuilds_avoided;
    xquery::Evaluator::EvalStats::HttpStats& hs =
        page->evaluator->mutable_http_stats();
    hs.cache_hits += s.http.cache_hits;
    hs.cache_misses += s.http.cache_misses;
    hs.prefetch_issued += s.http.prefetch_issued;
    hs.prefetch_hits += s.http.prefetch_hits;
  }
  FillEventStats(s, &last_event_stats_);
  last_event_stats_.intern_hits = call.intern_hits;
  last_event_stats_.http_requests = call.http_requests;
  last_event_stats_.http_makespan_ms = call.http_makespan_ms;
  last_event_stats_.http_overlapped_ms = call.http_overlapped_ms;
}

XqibPlugin::PageContext::MemoEntry XqibPlugin::MakeMemoEntry(
    PageContext* page, const PageContext::ListenerKey& key,
    uint64_t doc_version, std::string serialized) const {
  PageContext::MemoEntry entry;
  entry.doc_version = doc_version;
  entry.serialized = std::move(serialized);
  // Page documents always keep per-name versions (InitializePage), so an
  // entry whose read set the effect analysis knows records them.
  const xml::Document* doc = page->window->document();
  auto names = page->listener_read_names.find(key);
  if (names != page->listener_read_names.end()) {
    entry.fine_grained = true;
    entry.read_versions.reserve(names->second.size());
    for (const xml::InternedName* token : names->second) {
      entry.read_versions.emplace_back(token, doc->name_version(token));
    }
  }
  return entry;
}

std::shared_ptr<XqibPlugin::PageContext::WorkerSlot>
XqibPlugin::AcquireWorkerSlot(PageContext* page) {
  // Effective options for slot evaluators: no nested parallelism — the
  // slot already runs on a worker, and its evaluator has no pool.
  xquery::Evaluator::EvalOptions opts = eval_options_;
  opts.parallel_streams = false;
  {
    std::lock_guard<std::mutex> lk(page->slots_mu);
    if (!page->free_slots.empty()) {
      std::shared_ptr<PageContext::WorkerSlot> slot =
          std::move(page->free_slots.back());
      page->free_slots.pop_back();
      // Options may have changed since the slot was built.
      slot->evaluator->set_options(opts);
      slot->evaluator->set_analysis_facts(page->facts);
      return slot;
    }
  }
  auto slot = std::make_shared<PageContext::WorkerSlot>();
  slot->ctx = std::make_unique<DynamicContext>();
  slot->ctx->browser_profile = true;
  // The slot context is not registered in pages_, so binding calls that
  // reach it (impossible for parallel-safe listeners — belt and braces)
  // fail with BRWS0001 and trigger the serial fallback.
  slot->ctx->browser_binding = this;
  slot->ctx->clock = page->ctx->clock;
  PageContext::WorkerSlot* raw = slot.get();
  slot->ctx->trace_sink = [raw](const std::string& s) {
    raw->traces.push_back(s);
  };
  // browser:alert buffers worker-side and replays at commit; the
  // blocking dialogs error out (the analyzer keeps interactive listeners
  // off the pool, so hitting one here means the proof was wrong — fall
  // back to serial, where the real responder runs).
  slot->ctx->RegisterExternal(
      BrowserQName("alert"), 1,
      [raw](std::vector<Sequence>& args,
            DynamicContext&) -> Result<Sequence> {
        raw->alerts.push_back(
            args.empty() ? std::string() : xdm::SequenceToString(args[0]));
        return Sequence{};
      });
  auto interactive_error = [](std::vector<Sequence>&,
                              DynamicContext&) -> Result<Sequence> {
    return Status::Error("BRWS0005",
                         "interactive dialog on a pool worker");
  };
  slot->ctx->RegisterExternal(BrowserQName("prompt"), 1, interactive_error);
  slot->ctx->RegisterExternal(BrowserQName("confirm"), 1, interactive_error);
  // Same REST surface as the page context, but consuming a slot-private
  // prefetcher: a staged listener's scatter must not be drained by (or
  // hand stale responses to) a concurrently staged peer.
  if (fabric_ != nullptr) {
    slot->prefetcher = std::make_unique<net::HttpPrefetcher>(fabric_);
    slot->ctx->prefetcher = slot->prefetcher.get();
    net::RegisterRestFunctions(slot->ctx.get(), fabric_,
                               slot->prefetcher.get());
  }
  slot->evaluator = std::make_unique<xquery::Evaluator>(*page->sctx);
  slot->evaluator->set_options(opts);
  slot->evaluator->set_analysis_facts(page->facts);
  return slot;
}

void XqibPlugin::HandOverSlotOutput(PageContext* page,
                                    PageContext::WorkerSlot* slot,
                                    bool updates) {
  for (std::string& a : slot->alerts) alerts_.push_back(std::move(a));
  if (page->ctx->trace_sink != nullptr) {
    for (const std::string& t : slot->traces) page->ctx->trace_sink(t);
  }
  if (!updates) return;
  for (std::unique_ptr<xml::Document>& doc :
       slot->ctx->TakeScratchDocuments()) {
    page->ctx->AdoptDocument(std::move(doc));
  }
  for (auto& p : slot->ctx->pul().Take()) page->ctx->pul().Add(std::move(p));
}

void XqibPlugin::ReleaseWorkerSlot(
    PageContext* page, std::shared_ptr<PageContext::WorkerSlot> slot) {
  // Whatever a run left behind (a discarded staging's output) must not
  // reach the slot's next user.
  slot->alerts.clear();
  slot->traces.clear();
  slot->ctx->pul().Clear();
  std::lock_guard<std::mutex> lk(page->slots_mu);
  page->free_slots.push_back(std::move(slot));
}

void XqibPlugin::EnableParallelDispatch(size_t workers) {
  // Unwire first: the loop/event system must never point at a dead pool.
  WireThreadPool(nullptr);
  pool_.reset();
  if (workers == 0) return;  // the serial baseline
  pool_ = std::make_unique<base::ThreadPool>(workers);
  WireThreadPool(pool_.get());
}

void XqibPlugin::UseSharedThreadPool(base::ThreadPool* pool) {
  WireThreadPool(nullptr);
  pool_.reset();  // any owned pool is superseded by the shared one
  if (pool == nullptr || pool->size() == 0) return;
  WireThreadPool(pool);
}

void XqibPlugin::WireThreadPool(base::ThreadPool* pool) {
  active_pool_ = pool;
  browser_->loop().set_thread_pool(pool);
  browser_->events().set_thread_pool(pool);
  for (auto& [window, page] : pages_) {
    if (page->evaluator != nullptr) page->evaluator->set_thread_pool(pool);
  }
}

void XqibPlugin::set_eval_options(
    const xquery::Evaluator::EvalOptions& options) {
  eval_options_ = options;
  for (auto& [window, page] : pages_) {
    if (page->evaluator != nullptr) page->evaluator->set_options(options);
  }
}

const xquery::Evaluator::EvalStats* XqibPlugin::page_eval_stats(
    const Window* window) const {
  const PageContext* page = FindPage(window);
  if (page == nullptr || page->evaluator == nullptr) return nullptr;
  return &page->evaluator->stats();
}

Status XqibPlugin::FireEvent(xml::Node* target, Event event) {
  browser_->loop().Post([this, target, event]() mutable {
    browser_->events().Dispatch(target, std::move(event));
  });
  PumpEvents();
  return Status();
}

size_t XqibPlugin::PumpEvents() { return browser_->loop().RunUntilIdle(); }

// ------------------------------------------------- BrowserBinding impl ---

Status XqibPlugin::AttachListener(const std::string& event_name,
                                  const Sequence& targets,
                                  const xml::QName& listener,
                                  DynamicContext& ctx) {
  PageContext* page = FindPageByContext(ctx);
  if (page == nullptr) {
    return Status::Error("BRWS0001", "no page for this context");
  }
  std::weak_ptr<PageContext> weak = FindPageShared(page->window);
  for (const Item& item : targets) {
    if (!item.is_node()) {
      return Status::TypeError("event target must be a node");
    }
    browser::Listener l;
    l.id = ListenerId(listener);
    l.callback = [this, weak, listener](Event& event) {
      std::shared_ptr<PageContext> page = weak.lock();
      if (page == nullptr) return;
      InvokeListener(page.get(), listener, event);
    };
    // Listeners the analyzer proved parallel-safe (pure, no interactive
    // host calls) or effect-stageable updating (fully analyzed
    // read/write sets) get the staged path: the dispatcher may evaluate
    // them on a pool worker and commit on the loop thread, admitting
    // them into concurrent runs by the interference check over the
    // attached effect summaries. StageOnWorker re-verifies eligibility
    // at dispatch time.
    size_t arity = 0;
    ResolveListenerArity(*page->sctx, listener, &arity);
    const PageContext::ListenerKey lkey{listener.token(), arity};
    auto fx = page->listener_effects.find(lkey);
    if (fx != page->listener_effects.end()) l.effects = fx->second;
    if (page->parallel_safe_functions.count(lkey) > 0 ||
        page->stageable_updating_functions.count(lkey) > 0) {
      l.stage = [this, weak, listener](const Event& event)
          -> std::function<void()> {
        std::shared_ptr<PageContext> page = weak.lock();
        if (page == nullptr) return nullptr;
        return StageOnWorker(std::move(page), listener, event);
      };
    }
    browser_->events().AddListener(item.node(), event_name, std::move(l));
  }
  return Status();
}

Status XqibPlugin::DetachListener(const std::string& event_name,
                                  const Sequence& targets,
                                  const xml::QName& listener,
                                  DynamicContext& ctx) {
  (void)ctx;
  for (const Item& item : targets) {
    if (!item.is_node()) {
      return Status::TypeError("event target must be a node");
    }
    browser_->events().RemoveListener(item.node(), event_name,
                                      ListenerId(listener));
  }
  return Status();
}

Status XqibPlugin::TriggerEvent(const std::string& event_name,
                                const Sequence& targets,
                                DynamicContext& ctx) {
  (void)ctx;
  for (const Item& item : targets) {
    if (!item.is_node()) {
      return Status::TypeError("event target must be a node");
    }
    xml::Node* target = item.node();
    Event event;
    event.type = event_name;
    browser_->loop().Post([this, target, event]() mutable {
      browser_->events().Dispatch(target, std::move(event));
    });
  }
  return Status();
}

Status XqibPlugin::AttachBehind(const std::string& event_name,
                                const Expr& call_expr,
                                const xml::QName& listener,
                                DynamicContext& ctx) {
  PageContext* page = FindPageByContext(ctx);
  if (page == nullptr) {
    return Status::Error("BRWS0001", "no page for this context");
  }
  std::weak_ptr<PageContext> weak = FindPageShared(page->window);
  const Expr* call = &call_expr;
  double latency =
      fabric_ != nullptr ? fabric_->latency.base_ms : 1.0;
  (void)event_name;  // informational ("stateChanged") in this model

  auto invoke_state = [this, weak, listener](int64_t state,
                                             Sequence result) {
    std::shared_ptr<PageContext> page = weak.lock();
    if (page == nullptr) return;
    std::vector<Sequence> args;
    args.push_back(Sequence{Item::Integer(state)});
    args.push_back(std::move(result));
    Result<Sequence> r =
        page->evaluator->CallFunction(listener, std::move(args), *page->ctx);
    if (page->evaluator->exited()) page->evaluator->TakeExitValue();
    if (!r.ok()) {
      last_script_error_ = r.status();
      return;
    }
    Status st = ApplyAfterRun(page.get());
    if (!st.ok()) last_script_error_ = st;
  };

  // The call's arguments are evaluated NOW (they reference variables of
  // the attaching scope, e.g. a function parameter $str); only the call
  // itself is deferred — that is the remote round trip.
  std::vector<Sequence> eager_args;
  bool is_call = call->kind == xquery::ExprKind::kFunctionCall;
  Sequence eager_result;
  if (is_call) {
    for (const xquery::ExprPtr& kid : call->kids) {
      XQ_ASSIGN_OR_RETURN(Sequence arg, page->evaluator->Eval(*kid, ctx));
      eager_args.push_back(std::move(arg));
    }
  } else {
    XQ_ASSIGN_OR_RETURN(eager_result, page->evaluator->Eval(*call, ctx));
  }

  // readyState 1: request dispatched (immediately, asynchronously).
  browser_->loop().Post(
      [invoke_state]() { invoke_state(1, Sequence{}); }, 0.0);

  // readyState 4: the call completes and its result is delivered after
  // the simulated round-trip latency. The call is non-blocking for the
  // main flow (§4.4: "the user keeps control").
  //
  // When the callee is a declared function the analyzer proved
  // parallel-safe, the completion is an off-thread unit: a pool worker
  // evaluates the call against the DOM snapshot and the loop thread
  // commits (adopts result documents, replays buffered output, delivers
  // to the listener). Off-thread eligibility is a static property of the
  // callee, so the same path runs at every pool size — with no pool the
  // work simply executes serially at the same queue position.
  const bool off_thread =
      is_call && page->parallel_safe_functions.count(PageContext::ListenerKey{
                     call->qname.token(), call->kids.size()}) > 0;
  if (off_thread) {
    browser_->loop().PostOffThread(
        [this, weak, call, invoke_state,
         eager_args = std::move(eager_args)]() mutable
        -> browser::EventLoop::Task {
          std::shared_ptr<PageContext> page = weak.lock();
          if (page == nullptr) return nullptr;
          PageContext* raw = page.get();
          std::shared_ptr<PageContext::WorkerSlot> slot =
              AcquireWorkerSlot(raw);
          slot->ctx->env() = raw->ctx->env();
          slot->ctx->set_focus(raw->ctx->focus());
          Result<Sequence> result = slot->evaluator->CallFunction(
              call->qname, std::move(eager_args), *slot->ctx);
          if (slot->evaluator->exited()) slot->evaluator->TakeExitValue();
          slot->evaluator->ResetDispatchArena(*slot->ctx);
          return [this, page, invoke_state, result, slot]() {
            // Result nodes live in the slot's scratch documents, which
            // the page context adopts and keeps alive for the listener
            // (anything it splices into the DOM is copied by the update
            // primitives anyway). Update primitives a not-quite-pure
            // callee produced land in the page PUL — exactly where they
            // would have accumulated had the call run serially.
            HandOverSlotOutput(page.get(), slot.get(), /*updates=*/true);
            ReleaseWorkerSlot(page.get(), slot);
            if (!result.ok()) {
              last_script_error_ = result.status();
              invoke_state(4, Sequence{});
              return;
            }
            invoke_state(4, result.value());
          };
        },
        latency);
    return Status();
  }

  browser_->loop().Post(
      [this, weak, call, invoke_state, is_call,
       eager_args = std::move(eager_args),
       eager_result = std::move(eager_result)]() mutable {
        std::shared_ptr<PageContext> page = weak.lock();
        if (page == nullptr) return;
        if (!is_call) {
          invoke_state(4, std::move(eager_result));
          return;
        }
        Result<Sequence> result = page->evaluator->CallFunction(
            call->qname, std::move(eager_args), *page->ctx);
        if (page->evaluator->exited()) page->evaluator->TakeExitValue();
        if (!result.ok()) {
          last_script_error_ = result.status();
          invoke_state(4, Sequence{});
          return;
        }
        invoke_state(4, std::move(result).value());
      },
      latency);
  return Status();
}

Status XqibPlugin::SetStyle(const std::string& property,
                            const Sequence& targets, const std::string& value,
                            DynamicContext& ctx) {
  (void)ctx;
  for (const Item& item : targets) {
    if (!item.is_node() || !item.node()->is_element()) {
      return Status::TypeError("set style target must be an element");
    }
    browser::SetStyleProperty(item.node(), property, value);
  }
  return Status();
}

Result<std::string> XqibPlugin::GetStyle(const std::string& property,
                                         const Sequence& target,
                                         DynamicContext& ctx) {
  (void)ctx;
  XQ_ASSIGN_OR_RETURN(xml::Node* node, SingleNodeArg(target, "get style"));
  if (!node->is_element()) {
    return Status::TypeError("get style target must be an element");
  }
  return browser::GetStyleProperty(node, property);
}

// ------------------------------------------- browser: function library ---

void XqibPlugin::RegisterBrowserFunctions(PageContext* page) {
  DynamicContext* ctx = page->ctx.get();
  Window* window = page->window;
  Browser* browser = browser_;
  PageContext* raw_page = page;

  auto str_arg = [](std::vector<Sequence>& args) {
    return args.empty() ? std::string() : xdm::SequenceToString(args[0]);
  };

  ctx->RegisterExternal(
      BrowserQName("alert"), 1,
      [this, str_arg](std::vector<Sequence>& args,
                      DynamicContext&) -> Result<Sequence> {
        alerts_.push_back(str_arg(args));
        return Sequence{};
      });
  ctx->RegisterExternal(
      BrowserQName("prompt"), 1,
      [this, str_arg](std::vector<Sequence>& args,
                      DynamicContext&) -> Result<Sequence> {
        return Sequence{Item::String(prompt_responder(str_arg(args)))};
      });
  ctx->RegisterExternal(
      BrowserQName("confirm"), 1,
      [this, str_arg](std::vector<Sequence>& args,
                      DynamicContext&) -> Result<Sequence> {
        return Sequence{Item::Boolean(confirm_responder(str_arg(args)))};
      });

  // browser:top() — the whole window tree, security-filtered (§4.2.1).
  // Marked non-deterministic in the paper: each call re-materializes.
  ctx->RegisterExternal(
      BrowserQName("top"), 0,
      [browser, raw_page, window](std::vector<Sequence>&,
                                  DynamicContext& c) -> Result<Sequence> {
        Browser::BomTree tree =
            browser->MaterializeWindowTree(c.scratch_document(),
                                           window->url());
        raw_page->bom_trees.push_back(tree);
        if (tree.root == nullptr) return Sequence{};
        return Sequence{Item::Node(tree.root)};
      });

  // browser:self() — this window's node within a fresh top tree.
  ctx->RegisterExternal(
      BrowserQName("self"), 0,
      [browser, raw_page, window](std::vector<Sequence>&,
                                  DynamicContext& c) -> Result<Sequence> {
        Browser::BomTree tree =
            browser->MaterializeWindowTree(c.scratch_document(),
                                           window->url());
        raw_page->bom_trees.push_back(tree);
        for (const auto& [node, win] : tree.node_to_window) {
          if (win == window) {
            return Sequence{Item::Node(const_cast<xml::Node*>(node))};
          }
        }
        return Sequence{};
      });

  ctx->RegisterExternal(
      BrowserQName("screen"), 0,
      [browser](std::vector<Sequence>&,
                DynamicContext& c) -> Result<Sequence> {
        return Sequence{
            Item::Node(browser->MaterializeScreen(c.scratch_document()))};
      });
  ctx->RegisterExternal(
      BrowserQName("navigator"), 0,
      [browser](std::vector<Sequence>&,
                DynamicContext& c) -> Result<Sequence> {
        return Sequence{
            Item::Node(browser->MaterializeNavigator(c.scratch_document()))};
      });

  // browser:document($w) — the document behind a window node, with the
  // same-origin check; empty sequence on denial (§4.2.3).
  ctx->RegisterExternal(
      BrowserQName("document"), 1,
      [browser, raw_page, window](std::vector<Sequence>& args,
                                  DynamicContext&) -> Result<Sequence> {
        if (args[0].empty()) return Sequence{};
        if (!args[0][0].is_node()) {
          return Status::TypeError("browser:document expects a window node");
        }
        const xml::Node* node = args[0][0].node();
        for (const Browser::BomTree& tree : raw_page->bom_trees) {
          Window* target =
              browser->ResolveWindowNode(tree, node, window->url());
          if (target != nullptr) {
            return Sequence{Item::Node(target->document()->root())};
          }
        }
        return Sequence{};
      });

  // Window management (§4.2.4).
  ctx->RegisterExternal(
      BrowserQName("windowOpen"), 1,
      [browser, str_arg](std::vector<Sequence>& args,
                         DynamicContext&) -> Result<Sequence> {
        browser->top_window()->CreateFrame(str_arg(args));
        return Sequence{};
      });
  ctx->RegisterExternal(
      BrowserQName("windowClose"), 1,
      [browser, raw_page, window](std::vector<Sequence>& args,
                                  DynamicContext&) -> Result<Sequence> {
        XQ_ASSIGN_OR_RETURN(xml::Node* node,
                            SingleNodeArg(args[0], "browser:windowClose"));
        for (const Browser::BomTree& tree : raw_page->bom_trees) {
          Window* target =
              browser->ResolveWindowNode(tree, node, window->url());
          if (target != nullptr && target->parent() != nullptr) {
            target->parent()->CloseFrame(target);
            return Sequence{};
          }
        }
        return Sequence{};
      });
  auto move_fn = [browser, raw_page, window](bool relative) {
    return [browser, raw_page, window, relative](
               std::vector<Sequence>& args,
               DynamicContext&) -> Result<Sequence> {
      XQ_ASSIGN_OR_RETURN(xml::Node* node,
                          SingleNodeArg(args[0], "browser:windowMove"));
      XQ_ASSIGN_OR_RETURN(int64_t x, args[1].empty()
                                         ? Result<int64_t>(int64_t{0})
                                         : args[1][0].Atomize().ToInteger());
      XQ_ASSIGN_OR_RETURN(int64_t y, args[2].empty()
                                         ? Result<int64_t>(int64_t{0})
                                         : args[2][0].Atomize().ToInteger());
      for (const Browser::BomTree& tree : raw_page->bom_trees) {
        Window* target = browser->ResolveWindowNode(tree, node, window->url());
        if (target != nullptr) {
          if (relative) {
            target->MoveBy(static_cast<int>(x), static_cast<int>(y));
          } else {
            target->MoveTo(static_cast<int>(x), static_cast<int>(y));
          }
          return Sequence{};
        }
      }
      return Sequence{};
    };
  };
  ctx->RegisterExternal(BrowserQName("windowMoveBy"), 3, move_fn(true));
  ctx->RegisterExternal(BrowserQName("windowMoveTo"), 3, move_fn(false));

  // History (§4.2.4).
  ctx->RegisterExternal(
      BrowserQName("historyBack"), 0,
      [window](std::vector<Sequence>&, DynamicContext&) -> Result<Sequence> {
        XQ_RETURN_NOT_OK(window->HistoryBack());
        return Sequence{};
      });
  ctx->RegisterExternal(
      BrowserQName("historyForward"), 0,
      [window](std::vector<Sequence>&, DynamicContext&) -> Result<Sequence> {
        XQ_RETURN_NOT_OK(window->HistoryForward());
        return Sequence{};
      });
  ctx->RegisterExternal(
      BrowserQName("historyGo"), 1,
      [window](std::vector<Sequence>& args,
               DynamicContext&) -> Result<Sequence> {
        if (args[0].empty()) return Sequence{};
        XQ_ASSIGN_OR_RETURN(int64_t delta, args[0][0].Atomize().ToInteger());
        XQ_RETURN_NOT_OK(window->HistoryGo(static_cast<int>(delta)));
        return Sequence{};
      });

  // Document write (§4.2.4; "with XQuery, best practice would be to
  // modify the XDM" — provided for parity anyway).
  ctx->RegisterExternal(
      BrowserQName("write"), 1,
      [window, str_arg](std::vector<Sequence>& args,
                        DynamicContext&) -> Result<Sequence> {
        window->Write(str_arg(args));
        return Sequence{};
      });
  ctx->RegisterExternal(
      BrowserQName("writeln"), 1,
      [window, str_arg](std::vector<Sequence>& args,
                        DynamicContext&) -> Result<Sequence> {
        window->Write(str_arg(args) + "\n");
        return Sequence{};
      });
}

}  // namespace xqib::plugin
