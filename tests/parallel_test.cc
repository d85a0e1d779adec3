// Parallel dispatch runtime tests (PERFORMANCE.md §5): thread-pool
// basics, the event loop's off-thread batching, the parallel predicate
// operator's agreement with the serial path, the memo cache under
// concurrent staged probes, off-thread `behind` completions, and the
// dispatch-determinism oracle — randomized pages dispatched at pool
// sizes {0, 1, 4, 8} must produce identical DOMs and identical
// observable output in identical order.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/thread_pool.h"
#include "browser/bom.h"
#include "browser/event_loop.h"
#include "net/http.h"
#include "net/webservice.h"
#include "net/xml_store.h"
#include "plugin/plugin.h"
#include "xml/serializer.h"
#include "xml/xml_parser.h"
#include "xquery/engine.h"

namespace xqib {
namespace {

using base::ThreadPool;
using browser::EventLoop;

// ------------------------------------------------------- thread pool ---

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  for (int spin = 0; spin < 5000 && count.load() < 64; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count.load(), 64);
  EXPECT_EQ(pool.stats().submitted, 64u);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  int count = 0;
  pool.Submit([&count] { ++count; });
  // No threads: the task already ran when Submit returned.
  EXPECT_EQ(count, 1);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndicesAtEveryPoolSize) {
  for (size_t workers : {0u, 1u, 4u}) {
    ThreadPool pool(workers);
    const size_t n = 1000;
    std::vector<std::atomic<int>> marks(n);
    for (auto& m : marks) m.store(0);
    pool.ParallelFor(n, [&](size_t i) {
      marks[i].fetch_add(1, std::memory_order_relaxed);
    });
    size_t sum = 0;
    for (auto& m : marks) sum += static_cast<size_t>(m.load());
    EXPECT_EQ(sum, n) << "workers=" << workers;  // each index exactly once
    EXPECT_EQ(pool.stats().parallel_fors, 1u);
  }
}

TEST(ThreadPoolTest, ParallelForBalancesUnevenWork) {
  // A few expensive indices among many cheap ones: dynamic claiming must
  // still complete everything (a static partition would, too — this
  // guards against lost indices under contention).
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  pool.ParallelFor(256, [&](size_t i) {
    uint64_t acc = 0;
    uint64_t reps = (i % 64 == 0) ? 20000 : 50;
    for (uint64_t k = 0; k < reps; ++k) acc += k * k + i;
    total.fetch_add(acc == 0 ? 1 : 1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 256u);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

TEST(ThreadPoolTest, IdleWorkersParkWhileATaskRuns) {
  // One task sleeps 200 ms on a 4-worker pool. Workers that spun while
  // any task ran would burn ~3 x 200 ms of CPU in that window; parked
  // ones burn next to none. The bound is a sixth of the spinning cost.
  std::promise<void> started, finished;  // outlive the pool's workers
  ThreadPool pool(4);
  pool.Submit([&started, &finished] {
    started.set_value();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    finished.set_value();
  });
  started.get_future().wait();
  const double cpu0 = ProcessCpuSeconds();
  finished.get_future().wait();
  const double cpu_ms = (ProcessCpuSeconds() - cpu0) * 1e3;
  EXPECT_LT(cpu_ms, 100.0) << "idle workers burned CPU while a task ran";
}

TEST(ThreadPoolTest, SubmitOntoAnIdlePoolNeverLosesTheWakeUp) {
  // Each task is submitted from a non-pool thread after the previous
  // one finished, so workers are racing back to sleep: a wake-up lost
  // between a worker's predicate check and its sleep would strand the
  // task until the next Submit, which never comes.
  ThreadPool pool(4);
  for (int i = 0; i < 10000; ++i) {
    auto ran = std::make_shared<std::promise<void>>();
    std::future<void> seen = ran->get_future();
    pool.Submit([ran] { ran->set_value(); });
    ASSERT_EQ(seen.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "task " << i << " was never picked up";
  }
  EXPECT_EQ(pool.stats().submitted, 10000u);
}

// ------------------------------------------- event loop, off-thread ---

TEST(EventLoopOffThread, EqualDueEntriesFormOneBatch) {
  EventLoop loop;
  ThreadPool pool(4);
  loop.set_thread_pool(&pool);
  int committed = 0;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    loop.PostOffThread(
        [&committed, &order, i]() -> EventLoop::Task {
          int seen = committed;  // batch-start state: commits not yet run
          return [&committed, &order, i, seen] {
            order.push_back(i * 100 + seen);
            ++committed;
          };
        },
        0.0);
  }
  loop.RunUntilIdle();
  EXPECT_EQ(loop.offthread_tasks(), 8u);
  EXPECT_EQ(loop.offthread_batches(), 1u);
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    // Posting order preserved, and every work saw committed == 0.
    EXPECT_EQ(order[static_cast<size_t>(i)], i * 100);
  }
}

TEST(EventLoopOffThread, PlainTaskSplitsTheBatch) {
  EventLoop loop;
  ThreadPool pool(2);
  loop.set_thread_pool(&pool);
  std::vector<std::string> order;
  auto off = [&loop, &order](const std::string& tag) {
    loop.PostOffThread(
        [&order, tag]() -> EventLoop::Task {
          return [&order, tag] { order.push_back(tag); };
        },
        0.0);
  };
  off("A");
  off("B");
  loop.Post([&order] { order.push_back("C"); }, 0.0);
  off("D");
  off("E");
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"A", "B", "C", "D", "E"}));
  // The plain task is a barrier: {A,B} and {D,E} are separate batches.
  EXPECT_EQ(loop.offthread_batches(), 2u);
  EXPECT_EQ(loop.offthread_tasks(), 4u);
}

TEST(EventLoopOffThread, LaterDueTimesNeverJoinTheBatch) {
  EventLoop loop;
  ThreadPool pool(2);
  loop.set_thread_pool(&pool);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    loop.PostOffThread(
        [&order, i]() -> EventLoop::Task {
          return [&order, i] { order.push_back(i); };
        },
        i < 2 ? 0.0 : 5.0);
  }
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(loop.offthread_batches(), 2u);
}

TEST(EventLoopOffThread, SerialBaselineBehavesIdentically) {
  // No pool attached: works still run before their batch's commits, so
  // the observable interleaving is the same as with 8 workers.
  EventLoop loop;
  int committed = 0;
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    loop.PostOffThread(
        [&committed, &order, i]() -> EventLoop::Task {
          int seen = committed;
          return [&committed, &order, i, seen] {
            order.push_back(i * 100 + seen);
            ++committed;
          };
        },
        0.0);
  }
  loop.RunUntilIdle();
  ASSERT_EQ(order.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i * 100);
  }
}

TEST(EventLoopOffThread, PostIsThreadSafe) {
  EventLoop loop;
  std::atomic<int> ran{0};
  std::vector<std::thread> posters;
  for (int t = 0; t < 4; ++t) {
    posters.emplace_back([&loop, &ran] {
      for (int i = 0; i < 50; ++i) {
        loop.Post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : posters) t.join();
  loop.RunUntilIdle();
  EXPECT_EQ(ran.load(), 200);
}

// ------------------------------------- parallel predicate evaluation ---

std::string BigItems(size_t n) {
  uint32_t state = 12345;
  std::string xml = "<page>";
  for (size_t i = 0; i < n; ++i) {
    state = state * 1664525u + 1013904223u;
    xml += "<item v=\"" + std::to_string((state >> 16) % 1000) + "\"/>";
  }
  xml += "</page>";
  return xml;
}

std::string EvalWithPool(const std::string& query, const std::string& xml,
                         const xquery::Evaluator::EvalOptions& options,
                         ThreadPool* pool,
                         xquery::Evaluator::EvalStats* stats = nullptr) {
  xquery::Engine engine;
  auto compiled = engine.Compile(query);
  if (!compiled.ok()) return "PARSE-ERROR: " + compiled.status().ToString();
  (*compiled)->evaluator().set_options(options);
  (*compiled)->evaluator().set_thread_pool(pool);
  xquery::DynamicContext ctx;
  auto parsed = xml::ParseDocument(xml);
  if (!parsed.ok()) return "XML-ERROR: " + parsed.status().ToString();
  std::unique_ptr<xml::Document> doc = std::move(parsed).value();
  xquery::DynamicContext::Focus f;
  f.item = xdm::Item::Node(doc->root());
  f.position = 1;
  f.size = 1;
  f.has_item = true;
  ctx.set_focus(f);
  Status bound = (*compiled)->BindGlobals(ctx);
  if (!bound.ok()) return "BIND-ERROR: " + bound.ToString();
  auto result = (*compiled)->Run(ctx);
  if (stats != nullptr) *stats = (*compiled)->evaluator().stats();
  if (!result.ok()) return "ERROR: " + result.status().code();
  return xdm::SequenceToString(*result);
}

TEST(ParallelPredicates, AgreeWithSerialAcrossQueryShapes) {
  // Value predicates partition across workers; `//item[pred]` is the
  // uncollapsed descendant-or-self::node()/child::item form, and the
  // explicit /descendant::item form is the single-origin collapsed one.
  const char* partitioned[] = {
      "string-join(//item[@v > 500]/@v, \",\")",
      "count(//item[@v > 500])",
      "string-join(//item[@v > 300][@v < 600]/@v, \",\")",  // chained
      "sum(//item[@v < 100]/@v)",
      "count(/descendant::item[@v > 500])",
      // Single-origin form: bucket positions ARE the spec positions, so
      // a numeric predicate partitions and selects by global index.
      "string-join(/descendant::item[17]/@v, \",\")",
  };
  // Positional predicates over the uncollapsed form must NOT partition:
  // positions are per-parent there, and fn:position/fn:last are
  // excluded statically everywhere. They still have to agree with
  // serial via the sequential fallback.
  const char* positional[] = {
      "string-join(//item[17]/@v, \",\")",     // numeric → runtime abandon
      "string-join(//item[position() = 1234]/@v, \",\")",
      "string-join(//item[last()]/@v, \",\")",  // needs the real size
  };
  ThreadPool pool(4);
  const std::string page = BigItems(3000);
  auto run = [&](const char* q, xquery::Evaluator::EvalStats* stats) {
    xquery::Evaluator::EvalOptions par;
    par.parallel_cutoff = 64;
    return EvalWithPool(q, page, par, &pool, stats);
  };
  auto run_serial = [&](const char* q) {
    xquery::Evaluator::EvalOptions serial;
    serial.parallel_streams = false;
    return EvalWithPool(q, page, serial, nullptr);
  };
  for (const char* q : partitioned) {
    xquery::Evaluator::EvalStats stats;
    std::string got = run(q, &stats);
    EXPECT_EQ(got.rfind("ERROR", 0), std::string::npos) << q;
    EXPECT_EQ(got, run_serial(q)) << q;
    EXPECT_GT(stats.parallel_predicate_chunks, 0u) << q;
  }
  for (const char* q : positional) {
    xquery::Evaluator::EvalStats stats;
    std::string got = run(q, &stats);
    EXPECT_EQ(got.rfind("ERROR", 0), std::string::npos) << q;
    EXPECT_EQ(got, run_serial(q)) << q;
    EXPECT_EQ(stats.parallel_predicate_chunks, 0u) << q;
  }
}

TEST(ParallelPredicates, CutoffKeepsSmallBucketsSequential) {
  ThreadPool pool(4);
  xquery::Evaluator::EvalOptions par;
  par.parallel_cutoff = 1u << 20;  // far above the bucket size
  xquery::Evaluator::EvalStats stats;
  std::string got = EvalWithPool("count(//item[@v > 500])", BigItems(500),
                                 par, &pool, &stats);
  EXPECT_EQ(stats.parallel_predicate_chunks, 0u);

  xquery::Evaluator::EvalOptions serial;
  serial.parallel_streams = false;
  EXPECT_EQ(got, EvalWithPool("count(//item[@v > 500])", BigItems(500),
                              serial, nullptr));
}

TEST(ParallelPredicates, ErrorsSurfaceLikeSerial) {
  ThreadPool pool(4);
  xquery::Evaluator::EvalOptions par;
  par.parallel_cutoff = 64;
  std::string parallel =
      EvalWithPool("//item[@v idiv 0 = 1]", BigItems(1000), par, &pool);
  xquery::Evaluator::EvalOptions serial;
  serial.parallel_streams = false;
  std::string reference =
      EvalWithPool("//item[@v idiv 0 = 1]", BigItems(1000), serial, nullptr);
  EXPECT_EQ(parallel, reference);
  EXPECT_EQ(parallel, "ERROR: FOAR0001");
}

// -------------------------------------------- plugin dispatch oracle ---

// Deterministic pseudo-random page: a data div with LCG-sized content,
// eight parallel-safe listeners (pure, alerting — alerts are buffered
// worker-side and replayed at commit) and one updating listener at an
// LCG-chosen registration slot, so staged runs split around a serial
// barrier differently per seed.
std::string RandomDispatchPage(uint32_t seed) {
  uint32_t state = seed;
  auto next = [&state]() {
    state = state * 1664525u + 1013904223u;
    return (state >> 16) & 0x7fff;
  };
  std::string items;
  int n = 10 + static_cast<int>(next() % 20);
  for (int i = 0; i < n; ++i) {
    items += "<item v=\"" + std::to_string(next() % 100) + "\"/>";
  }
  std::string script;
  for (int l = 0; l < 8; ++l) {
    int threshold = static_cast<int>(next() % 100);
    script += "declare function local:p" + std::to_string(l) +
              "($evt, $obj) { browser:alert(concat(\"p" + std::to_string(l) +
              "=\", string(count(//item[@v > " + std::to_string(threshold) +
              "])))) };\n";
  }
  script +=
      "declare updating function local:mut($evt, $obj) {\n"
      "  insert node <item v=\"" + std::to_string(next() % 100) +
      "\"/> into //div[@id=\"data\"]\n"
      "};\n{ ";
  // Attach the 8 pure listeners with the mutator spliced in at a
  // seed-dependent slot (a serialization barrier inside the run).
  int mut_slot = static_cast<int>(next() % 9);
  int attached = 0;
  for (int slot = 0; slot < 9; ++slot) {
    std::string fn = slot == mut_slot
                         ? "local:mut"
                         : "local:p" + std::to_string(attached++);
    script += "on event \"onclick\" at //input[@id=\"btn\"] "
              "attach listener " + fn + ";\n";
  }
  script += "() }";
  return "<html><head><script type=\"text/xqueryp\"><![CDATA[\n" + script +
         "\n]]></script></head><body>"
         "<input type=\"button\" id=\"btn\" value=\"Go\"/>"
         "<div id=\"data\">" + items + "</div>"
         "</body></html>";
}

// Eight memoizable readers (pure, silent) over LCG thresholds on #btn,
// and an updating listener on #mut that writes a name the readers read
// (even seeds: entries are invalidated by name) or one they do not (odd
// seeds: entries survive through the per-name probe).
std::string MemoChurnPage(uint32_t seed) {
  uint32_t state = seed;
  auto next = [&state]() {
    state = state * 1664525u + 1013904223u;
    return (state >> 16) & 0x7fff;
  };
  std::string items;
  int n = 10 + static_cast<int>(next() % 20);
  for (int i = 0; i < n; ++i) {
    items += "<item v=\"" + std::to_string(next() % 100) + "\"/>";
  }
  std::string script;
  std::string attach;
  for (int l = 0; l < 8; ++l) {
    const std::string fn = "local:m" + std::to_string(l);
    script += "declare function " + fn + "($evt, $obj) { concat(\"m" +
              std::to_string(l) + "=\", string(count(//item[@v > " +
              std::to_string(next() % 100) + "]))) };\n";
    attach += "on event \"onclick\" at //input[@id=\"btn\"] "
              "attach listener " + fn + ";\n";
  }
  script += seed % 2 == 0
                ? "declare updating function local:mut($evt, $obj) {\n"
                  "  insert node <item v=\"50\"/> into //div[@id=\"data\"]\n"
                  "};\n"
                : "declare updating function local:mut($evt, $obj) {\n"
                  "  insert node <entry/> into /html/body/log\n"
                  "};\n";
  attach += "on event \"onclick\" at //input[@id=\"mut\"] "
            "attach listener local:mut;\n";
  return "<html><head><script type=\"text/xqueryp\"><![CDATA[\n" + script +
         "{ " + attach + "() }\n]]></script></head><body>"
         "<input id=\"btn\"/><input id=\"mut\"/><log/>"
         "<div id=\"data\">" + items + "</div></body></html>";
}

struct DispatchOutcome {
  std::vector<std::string> alerts;
  std::string dom;
  size_t fallbacks = 0;
  uint64_t staged = 0;
  // Cumulative counters no scheduling choice may change: the page
  // evaluator's sorts, index hits, early exits and items pulled /
  // materialized, then memo hits, misses, invalidations and per-name
  // survivals.
  std::vector<uint64_t> counters;
};

// Loads `page` and clicks the element with each id in `clicks`, in order.
DispatchOutcome RunDispatch(size_t workers, const std::string& page,
                            const std::vector<const char*>& clicks,
                            bool compiled_plans = true) {
  net::HttpFabric fabric;
  net::XmlStore store;
  net::ServiceHost services(&fabric, &store);
  browser::Browser browser;
  plugin::XqibPlugin plugin(&browser, &fabric, &services);
  plugin.Install();
  plugin.EnableParallelDispatch(workers);
  if (!compiled_plans) {
    xquery::Evaluator::EvalOptions options;
    options.compiled_plans = false;
    plugin.set_eval_options(options);
  }
  browser::Window* window = browser.top_window();
  Status st = window->LoadSource("http://app.example.com/index.xhtml", page);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(plugin.last_script_error().ok())
      << plugin.last_script_error().ToString();
  for (const char* id : clicks) {
    xml::Node* target = window->document()->GetElementById(id);
    EXPECT_NE(target, nullptr) << id;
    browser::Event e;
    e.type = "onclick";
    plugin.FireEvent(target, e);
  }
  EXPECT_TRUE(plugin.last_script_error().ok())
      << plugin.last_script_error().ToString();
  DispatchOutcome out;
  out.alerts = plugin.alerts();
  out.dom = xml::Serialize(window->document()->root());
  out.fallbacks = plugin.parallel_fallbacks();
  out.staged = browser.events().staged_invocations();
  const xquery::Evaluator::EvalStats* s = plugin.page_eval_stats(window);
  EXPECT_NE(s, nullptr);
  const plugin::XqibPlugin::MemoStats& m = plugin.memo_stats();
  if (s != nullptr) {
    out.counters = {s->sorts_performed,
                    s->sorts_elided,
                    s->name_index_hits,
                    s->count_index_hits,
                    s->early_exits,
                    s->streams.items_pulled,
                    s->streams.items_materialized,
                    m.hits,
                    m.misses,
                    m.invalidations,
                    m.fine_grained_survivals};
  }
  return out;
}

DispatchOutcome RunDispatchScenario(size_t workers, uint32_t seed,
                                    int clicks, bool compiled_plans = true) {
  return RunDispatch(workers, RandomDispatchPage(seed),
                     std::vector<const char*>(clicks, "btn"), compiled_plans);
}

TEST(DispatchDeterminism, PoolSizeIsUnobservable) {
  for (uint32_t seed : {1u, 7u, 42u}) {
    DispatchOutcome reference = RunDispatchScenario(0, seed, 3);
    EXPECT_EQ(reference.staged, 0u);  // no pool, no staging
    ASSERT_EQ(reference.alerts.size(), 24u) << "seed " << seed;
    for (size_t workers : {1u, 4u, 8u}) {
      DispatchOutcome got = RunDispatchScenario(workers, seed, 3);
      EXPECT_EQ(got.alerts, reference.alerts)
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(got.dom, reference.dom)
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(got.fallbacks, 0u)
          << "seed " << seed << " workers " << workers;
      // The pure listeners actually took the staged path.
      EXPECT_GT(got.staged, 0u)
          << "seed " << seed << " workers " << workers;
    }
  }
}

// The compiled-plan ablation crossed with every pool size: the
// tree-walking serial run is the oracle, and neither the plan layer nor
// the worker pool (nor their combination) may change what the page
// observes.
TEST(DispatchDeterminism, PlanAblationIsUnobservableAtEveryPoolSize) {
  for (uint32_t seed : {1u, 7u, 42u}) {
    DispatchOutcome reference =
        RunDispatchScenario(0, seed, 3, /*compiled_plans=*/false);
    ASSERT_EQ(reference.alerts.size(), 24u) << "seed " << seed;
    for (bool plans : {false, true}) {
      for (size_t workers : {0u, 1u, 4u, 8u}) {
        if (!plans && workers == 0) continue;  // that's the reference
        DispatchOutcome got = RunDispatchScenario(workers, seed, 3, plans);
        EXPECT_EQ(got.alerts, reference.alerts)
            << "seed " << seed << " workers " << workers
            << " plans " << plans;
        EXPECT_EQ(got.dom, reference.dom)
            << "seed " << seed << " workers " << workers
            << " plans " << plans;
        EXPECT_EQ(got.fallbacks, 0u)
            << "seed " << seed << " workers " << workers
            << " plans " << plans;
      }
    }
  }
}

// The merged commit step's contract: whichever executor ran a listener,
// the page evaluator's cumulative counters and the memo traffic come out
// the same at every pool size. The memo churn page stages its eight
// readers together, so survivals and their re-anchoring run through the
// staged commit; the random page interleaves an updater into the run.
TEST(DispatchDeterminism, CumulativeCountersAreUnobservableAtEveryPoolSize) {
  const std::vector<const char*> churn = {"btn", "mut", "btn", "btn",
                                          "mut", "btn", "btn"};
  for (uint32_t seed : {1u, 7u, 42u}) {
    DispatchOutcome reference = RunDispatchScenario(0, seed, 3);
    DispatchOutcome memo_reference = RunDispatch(0, MemoChurnPage(seed), churn);
    ASSERT_EQ(memo_reference.counters.size(), 11u);
    EXPECT_GT(memo_reference.counters[7], 0u) << "seed " << seed;  // hits
    EXPECT_GT(memo_reference.counters[9] + memo_reference.counters[10], 0u)
        << "seed " << seed;  // invalidations or survivals
    for (size_t workers : {1u, 4u, 8u}) {
      DispatchOutcome got = RunDispatchScenario(workers, seed, 3);
      EXPECT_EQ(got.counters, reference.counters)
          << "seed " << seed << " workers " << workers;
      DispatchOutcome memo = RunDispatch(workers, MemoChurnPage(seed), churn);
      EXPECT_EQ(memo.counters, memo_reference.counters)
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(memo.dom, memo_reference.dom)
          << "seed " << seed << " workers " << workers;
      EXPECT_GT(memo.staged, 0u) << "seed " << seed << " workers " << workers;
      EXPECT_EQ(memo.fallbacks, 0u)
          << "seed " << seed << " workers " << workers;
    }
  }
}

// -------------------------------- disjoint updating listeners, staged ---

// Two updating listeners plus a reader on one button. In the disjoint
// variant addA/addB write separate logs (loga vs logb): the effect
// analysis proves the pair commutes, so both may leave the serial
// barrier and evaluate concurrently against the run-start DOM, with
// their pending update lists committed in registration order. In the
// interfering variant both write loga — the conflict matrix must keep
// every run at size one (fully serial). The tally reader observes both
// entry names, so it always ends the updaters' run and sees their
// committed state.
std::string UpdaterPage(bool interfering) {
  std::string target_b = interfering ? "loga" : "logb";
  std::string script =
      "declare updating function local:addA($evt, $obj) {\n"
      "  insert node <entrya/> into /html/body/loga\n"
      "};\n"
      "declare updating function local:addB($evt, $obj) {\n"
      "  insert node <entryb/> into /html/body/" + target_b + "\n"
      "};\n"
      "declare function local:tally($evt, $obj) {\n"
      "  browser:alert(concat(\"t=\", string(count(//entrya)), \":\", "
      "string(count(//entryb))))\n"
      "};\n"
      "{ on event \"onclick\" at //input[@id=\"btn\"] "
      "attach listener local:addA;\n"
      "  on event \"onclick\" at //input[@id=\"btn\"] "
      "attach listener local:addB;\n"
      "  on event \"onclick\" at //input[@id=\"btn\"] "
      "attach listener local:tally; }";
  return "<html><head><script type=\"text/xqueryp\"><![CDATA[\n" + script +
         "\n]]></script></head><body>"
         "<input id=\"btn\"/><loga/><logb/></body></html>";
}

DispatchOutcome RunUpdaterScenario(size_t workers, bool interfering,
                                   bool fine_grained, int clicks) {
  net::HttpFabric fabric;
  net::XmlStore store;
  net::ServiceHost services(&fabric, &store);
  browser::Browser browser;
  plugin::XqibPlugin plugin(&browser, &fabric, &services);
  plugin.Install();
  plugin.set_fine_grained_invalidation(fine_grained);
  plugin.EnableParallelDispatch(workers);
  Status st = browser.top_window()->LoadSource(
      "http://app.example.com/index.xhtml", UpdaterPage(interfering));
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(plugin.last_script_error().ok())
      << plugin.last_script_error().ToString();
  xml::Node* btn = browser.top_window()->document()->GetElementById("btn");
  EXPECT_NE(btn, nullptr);
  for (int c = 0; c < clicks; ++c) {
    browser::Event e;
    e.type = "onclick";
    plugin.FireEvent(btn, e);
  }
  EXPECT_TRUE(plugin.last_script_error().ok())
      << plugin.last_script_error().ToString();
  DispatchOutcome out;
  out.alerts = plugin.alerts();
  out.dom = xml::Serialize(browser.top_window()->document()->root());
  out.fallbacks = plugin.parallel_fallbacks();
  out.staged = browser.events().staged_invocations();
  return out;
}

// The async-federation ablation crossed with every pool size: the
// scatter-off serial run is the oracle. Prefetched futures must carry
// exactly the bytes the in-line round trips would have seen — neither
// the listener-level scatter, the FLWOR template scatter, nor any pool
// size may change one byte of what the page observes.

std::string FederatedMashupPage() {
  std::string script =
      "declare function local:fan($evt, $obj) {\n"
      "  browser:alert(string-join((\n"
      "    string(http:get(\"http://w0.example.com/api\")//summary),\n"
      "    string(http:get(\"http://w1.example.com/api\")//summary),\n"
      "    string(http:get(\"http://w2.example.com/api\")//summary),\n"
      "    string(http:get(\"http://w3.example.com/api\")//summary)\n"
      "  ), \";\"))\n"
      "};\n"
      "declare function local:loop($evt, $obj) {\n"
      "  browser:alert(string-join(\n"
      "    for $s in (\"0\", \"1\", \"2\", \"3\")\n"
      "    return string(http:get(concat(\"http://w\", $s,\n"
      "        \".example.com/api\"))//summary), \",\"))\n"
      "};\n"
      "{ on event \"onclick\" at //input[@id=\"btn\"] "
      "attach listener local:fan;\n"
      "  on event \"onclick\" at //input[@id=\"btn\"] "
      "attach listener local:loop; () }";
  return "<html><head><script type=\"text/xqueryp\"><![CDATA[\n" + script +
         "\n]]></script></head><body>"
         "<input type=\"button\" id=\"btn\" value=\"Go\"/>"
         "</body></html>";
}

struct FederationOutcome {
  std::vector<std::string> alerts;
  std::string dom;
};

FederationOutcome RunFederationScenario(size_t workers,
                                        bool async_federation, int clicks) {
  net::HttpFabric fabric;
  for (int s = 0; s < 4; ++s) {
    fabric.PutResource(
        "http://w" + std::to_string(s) + ".example.com/api",
        "<weather><summary>w" + std::to_string(s) + "</summary></weather>");
  }
  net::XmlStore store;
  net::ServiceHost services(&fabric, &store);
  browser::Browser browser;
  plugin::XqibPlugin plugin(&browser, &fabric, &services);
  plugin.Install();
  plugin.EnableParallelDispatch(workers);
  xquery::Evaluator::EvalOptions options;
  options.async_federation = async_federation;
  plugin.set_eval_options(options);
  Status st = browser.top_window()->LoadSource(
      "http://app.example.com/index.xhtml", FederatedMashupPage());
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(plugin.last_script_error().ok())
      << plugin.last_script_error().ToString();
  xml::Node* btn = browser.top_window()->document()->GetElementById("btn");
  EXPECT_NE(btn, nullptr);
  for (int c = 0; c < clicks; ++c) {
    browser::Event e;
    e.type = "onclick";
    plugin.FireEvent(btn, e);
  }
  FederationOutcome out;
  out.alerts = plugin.alerts();
  out.dom = xml::Serialize(browser.top_window()->document()->root());
  return out;
}

TEST(DispatchDeterminism, AsyncFederationIsUnobservableAtEveryPoolSize) {
  FederationOutcome reference =
      RunFederationScenario(0, /*async_federation=*/false, 2);
  ASSERT_EQ(reference.alerts.size(), 4u);  // 2 listeners x 2 clicks
  EXPECT_EQ(reference.alerts[0], "w0;w1;w2;w3");
  EXPECT_EQ(reference.alerts[1], "w0,w1,w2,w3");
  for (bool async_fed : {false, true}) {
    for (size_t workers : {0u, 1u, 4u, 8u}) {
      if (!async_fed && workers == 0) continue;  // that's the reference
      FederationOutcome got = RunFederationScenario(workers, async_fed, 2);
      EXPECT_EQ(got.alerts, reference.alerts)
          << "workers " << workers << " async " << async_fed;
      EXPECT_EQ(got.dom, reference.dom)
          << "workers " << workers << " async " << async_fed;
    }
  }
}

TEST(DispatchDeterminism, DisjointUpdatersStageBitIdentically) {
  const std::vector<std::string> expected_alerts{"t=1:1", "t=2:2", "t=3:3"};
  DispatchOutcome reference = RunUpdaterScenario(0, false, true, 3);
  EXPECT_EQ(reference.staged, 0u);  // no pool, no staging
  EXPECT_EQ(reference.alerts, expected_alerts);
  for (size_t workers : {1u, 4u, 8u}) {
    DispatchOutcome got = RunUpdaterScenario(workers, false, true, 3);
    EXPECT_EQ(got.alerts, reference.alerts) << "workers " << workers;
    EXPECT_EQ(got.dom, reference.dom) << "workers " << workers;
    EXPECT_EQ(got.fallbacks, 0u) << "workers " << workers;
    // The [addA, addB] pair genuinely left the serial barrier: one
    // staged run of two per click (tally ends the run and stays serial
    // in a size-one run).
    EXPECT_EQ(got.staged, 6u) << "workers " << workers;
  }
}

TEST(DispatchDeterminism, InterferingUpdatersStaySerial) {
  // Both updaters write loga: the conflict matrix (writes ∩ writes)
  // must veto staging entirely — every run collapses to size one.
  DispatchOutcome reference = RunUpdaterScenario(0, true, true, 3);
  for (size_t workers : {4u, 8u}) {
    DispatchOutcome got = RunUpdaterScenario(workers, true, true, 3);
    EXPECT_EQ(got.alerts, reference.alerts) << "workers " << workers;
    EXPECT_EQ(got.dom, reference.dom) << "workers " << workers;
    EXPECT_EQ(got.staged, 0u) << "workers " << workers;
  }
}

TEST(DispatchDeterminism, AblationKeepsUpdatersOnTheSerialPath) {
  // set_fine_grained_invalidation(false) restores the pre-effect-
  // analysis behavior: updating listeners never stage, results
  // unchanged.
  DispatchOutcome reference = RunUpdaterScenario(0, false, true, 3);
  DispatchOutcome got = RunUpdaterScenario(4, false, false, 3);
  EXPECT_EQ(got.alerts, reference.alerts);
  EXPECT_EQ(got.dom, reference.dom);
  EXPECT_EQ(got.staged, 0u);
}

// ------------------------------------------ memo under staged probes ---

class ParallelPluginTest : public ::testing::Test {
 protected:
  ParallelPluginTest()
      : services_(&fabric_, &store_),
        plugin_(&browser_, &fabric_, &services_) {
    plugin_.Install();
  }

  browser::Window* Load(const std::string& source) {
    Status st = browser_.top_window()->LoadSource(
        "http://app.example.com/index.xhtml", source);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(plugin_.last_script_error().ok())
        << plugin_.last_script_error().ToString();
    return browser_.top_window();
  }

  void Click(xml::Node* target) {
    browser::Event e;
    e.type = "onclick";
    plugin_.FireEvent(target, e);
  }

  net::HttpFabric fabric_;
  net::XmlStore store_;
  net::ServiceHost services_;
  browser::Browser browser_;
  plugin::XqibPlugin plugin_;
};

TEST_F(ParallelPluginTest, StagedListenersRaceTheMemoCacheSafely) {
  // Eight memoizable listeners (pure, silent) on one node: staged
  // concurrently, they probe the memo cache from pool workers under the
  // shared lock. The first click misses for all eight, the second click
  // (no mutation in between) answers all eight from cache.
  plugin_.EnableParallelDispatch(4);
  std::string script;
  for (int l = 0; l < 8; ++l) {
    script += "declare function local:m" + std::to_string(l) +
              "($evt, $obj) { concat(\"m" + std::to_string(l) +
              ":\", string(count(//item))) };\n";
  }
  script += "{ ";
  for (int l = 0; l < 8; ++l) {
    script += "on event \"onclick\" at //input[@id=\"btn\"] "
              "attach listener local:m" + std::to_string(l) + ";\n";
  }
  script += "() }";
  browser::Window* w = Load(
      "<html><head><script type=\"text/xqueryp\"><![CDATA[\n" + script +
      "\n]]></script></head><body>"
      "<input id=\"btn\"/><item/><item/><item/>"
      "</body></html>");
  xml::Node* btn = w->document()->GetElementById("btn");
  ASSERT_NE(btn, nullptr);

  Click(btn);
  EXPECT_GE(plugin_.memo_stats().misses, 8u);
  EXPECT_EQ(plugin_.memo_stats().hits, 0u);
  EXPECT_EQ(plugin_.last_listener_result(), "m7:3");

  Click(btn);
  EXPECT_GE(plugin_.memo_stats().hits, 8u);
  EXPECT_EQ(plugin_.last_listener_result(), "m7:3");
  EXPECT_EQ(plugin_.parallel_fallbacks(), 0u);
}

TEST_F(ParallelPluginTest, BehindCompletionRunsOffThread) {
  // A `behind` call to an analyzer-proven parallel-safe local function is
  // delivered as an off-thread unit; the pure completion listener alerts
  // from the loop-thread commit. Observable result matches the serial
  // AJAX-suggest behaviour.
  plugin_.EnableParallelDispatch(4);
  browser::Window* w = Load(R"XQ(<html><head>
      <script type="text/xquery"><![CDATA[
      declare function local:compute($s) { concat("hint for ", $s) };
      declare function local:onResult($readyState, $result) {
        if ($readyState eq 4)
        then browser:alert(string($result))
        else ()
      };
      declare updating function local:go($evt, $obj) {
        on event "stateChanged" behind local:compute("Ann")
        attach listener local:onResult
      };
      on event "onclick" at //input[@id="btn"] attach listener local:go
      ]]></script></head><body>
      <input id="btn"/>
      </body></html>)XQ");
  xml::Node* btn = w->document()->GetElementById("btn");
  ASSERT_NE(btn, nullptr);
  Click(btn);
  plugin_.PumpEvents();
  ASSERT_EQ(plugin_.alerts().size(), 1u);
  EXPECT_EQ(plugin_.alerts()[0], "hint for Ann");
  // The completion actually went through the off-thread queue.
  EXPECT_GE(browser_.loop().offthread_tasks(), 1u);
  EXPECT_TRUE(plugin_.last_script_error().ok())
      << plugin_.last_script_error().ToString();
}

}  // namespace
}  // namespace xqib
