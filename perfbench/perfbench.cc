// perfbench — the end-to-end benchmark of the page server (README.md
// beside this file names the workloads, metrics and layer mapping).
//
//   perfbench --workload cart|reference|mashup --seed N --seconds S
//             --trace 0|1 [--root DIR] [--trace-out FILE]
//
// Every request goes through PageServer::InstallHttpFrontEnd on a front
// HttpFabric. The shared pool has one worker per hardware thread and the
// load comes from at most that many generator threads. --trace 0 forks
// kProcesses fresh measuring processes in turn and prints the trimmed
// mean of each end-to-end metric; --trace 1 runs one process with an
// untraced half and a traced half and prints the per-layer metrics. The last
// stdout line is the JSON result; the exit code is non-zero when any
// operation failed or an oracle check did not match.

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/elsevier.h"
#include "common.h"
#include "net/http.h"
#include "server/server.h"
#include "xquery/plan/plan.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using xqib::net::HttpFabric;
using xqib::net::HttpRequest;
using xqib::net::HttpResponse;
using xqib::server::PageServer;
using xqib::server::Session;

// Offered load of the open-loop cart workload (also stated in
// BENCHMARK.json): well below what one 4-core host serves.
constexpr double kCartShoppersPerS = 150.0;
// Unmeasured lead-in before every timed window, so caches fill and the
// mash-up's response cache reaches its TTL-driven steady state.
constexpr double kWarmSeconds = 0.5;
constexpr const char* kFrontBase = "http://pageserver.example.com/";
constexpr const char* kMashupPageUrl = "http://mashup.example.com/";
constexpr size_t kMaxSpansWritten = 20000;
// An untraced run is this many fresh processes, each measuring an equal
// share of --seconds; every end-to-end metric is the trimmed mean across
// them. A process's figures move with where its threads land and with
// bursts of host noise; many short processes sample more of both, and
// the trimming keeps one unlucky process from moving the result.
constexpr int kProcesses = 12;

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

Clock::duration Secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--workload") {
      args->workload = value();
    } else if (a == "--seed") {
      args->seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      args->trace = value() == "1";
    } else if (a == "--root") {
      args->root = value();
    } else if (a == "--trace-out") {
      args->trace_out = value();
    } else {
      return false;
    }
  }
  return (args->workload == "cart" || args->workload == "reference" ||
          args->workload == "mashup") &&
         args->seconds > 0;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream s;
  s << in.rdbuf();
  *out = s.str();
  return true;
}

// ------------------------------------------------------------- timeline

// [begin, mid) is the untraced window, [mid, end) the traced one (empty
// unless --trace 1). Every operation is classified by its due time.
enum class Phase { kWarm, kPlain, kTraced, kAfter };

struct Timeline {
  Clock::time_point begin, mid, end;
  Phase Of(Clock::time_point t) const {
    if (t < begin) return Phase::kWarm;
    if (t < mid) return Phase::kPlain;
    if (t < end) return Phase::kTraced;
    return Phase::kAfter;
  }
};

// ----------------------------------------------------------- recording

struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;   // 0 = root
  uint64_t request;  // shared by the spans of one REST request; 0 = none
  Clock::time_point start, end;
};

std::atomic<uint64_t> g_next_id{1};

// Per-layer tallies of the traced window (sums; divided at report time).
#define PERFBENCH_LAYER_FIELDS(X)                                         \
  X(events) X(rest_us) X(strand_us) X(loads) X(load_us) X(closes)         \
  X(close_us) X(init_extract_us) X(init_foreign_us) X(init_compile_us)    \
  X(init_bind_us) X(init_run_main_us) X(memo_hits) X(memo_misses)         \
  X(delta_skips) X(parallel_fallbacks) X(plan_hits) X(plan_misses)        \
  X(plan_compiles) X(items_pulled) X(items_materialized)                  \
  X(sorts_performed) X(name_index_hits) X(arena_bytes) X(index_splices)   \
  X(rebuilds_avoided) X(delta_emitted) X(intern_hits) X(prefetch_issued)  \
  X(prefetch_hits)

struct LayerCounts {
#define PERFBENCH_DECLARE(f) double f = 0;
  PERFBENCH_LAYER_FIELDS(PERFBENCH_DECLARE)
#undef PERFBENCH_DECLARE
  void Add(const LayerCounts& o) {
#define PERFBENCH_ADD(f) f += o.f;
    PERFBENCH_LAYER_FIELDS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
  }
};

struct ThreadResult {
  std::vector<double> event_us, load_ms, late_ms;
  uint64_t plain_events = 0, traced_events = 0;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  LayerCounts layer;
  std::vector<Span> spans;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

// ------------------------------------------------------------- the bench

struct Bench {
  Args args;
  size_t nproc = 1;
  std::unique_ptr<PageServer> server;
  std::unique_ptr<HttpFabric> front;
  Timeline timeline;

  // Generated inputs.
  std::string page_url, page_source;  // source empty: fetched by URL
  CartInputs cart;
  ReferenceOracle reference;
  std::vector<std::string> universe;
  std::unique_ptr<ZipfSampler> zipf;
  std::vector<std::string> initial_sessions;

  // Backend-handler spans (the handlers are benchmark code).
  std::mutex handler_mu;
  std::vector<Span> handler_spans;
  double handler_us = 0;
};

// One generator thread's view of the REST front end.
class Client {
 public:
  Client(Bench* b, ThreadResult* r) : b_(b), r_(r) {}

  bool Load(Clock::time_point due, std::string* id) {
    std::string reply;
    std::string path = "sessions?page=" + b_->page_url;
    Clock::time_point t0 = Clock::now();
    bool ok = Call("POST", path, b_->page_source, 201, &reply);
    Clock::time_point t1 = Clock::now();
    if (ok) {
      size_t q = reply.find("id=\"");
      size_t e = q == std::string::npos ? q : reply.find('"', q + 4);
      if (e == std::string::npos) {
        r_->Fail("load: bad reply " + reply);
        return false;
      }
      *id = reply.substr(q + 4, e - q - 4);
    }
    Phase ph = Classify(due, t0);
    if (!ok) return false;
    if (ph == Phase::kPlain) {
      r_->load_ms.push_back(Us(t1 - due) / 1000.0);
    } else if (ph == Phase::kTraced) {
      uint64_t req = g_next_id++;
      AddSpan("rest.load", 0, req, t0, t1);
      r_->layer.loads += 1;
      r_->layer.load_us += Us(t1 - t0);
      if (std::shared_ptr<Session> s = b_->server->FindSession(*id)) {
        const auto& init = s->plugin().last_init_timing();
        r_->layer.init_extract_us += init.extract_us;
        r_->layer.init_foreign_us += init.foreign_us;
        r_->layer.init_compile_us += init.compile_us;
        r_->layer.init_bind_us += init.bind_globals_us;
        r_->layer.init_run_main_us += init.run_main_us;
      }
    }
    return true;
  }

  bool Event(Clock::time_point due, const std::string& id, const Click& click) {
    std::string body = "<event type=\"onclick\" target=\"" +
                       Escape(click.target) + "\" value=\"" +
                       Escape(click.value) + "\"/>";
    std::string reply;
    Clock::time_point t0 = Clock::now();
    bool ok = Call("POST", "sessions/" + id + "/events", std::move(body), 200,
                   &reply);
    Clock::time_point t1 = Clock::now();
    Phase ph = Classify(due, t0);
    if (!ok) return false;
    if (ph == Phase::kPlain) {
      ++r_->plain_events;
      r_->event_us.push_back(Us(t1 - due));
    } else if (ph == Phase::kTraced) {
      ++r_->traced_events;
      double strand_us = 0;
      size_t q = reply.find("latency-us=\"");
      if (q != std::string::npos) strand_us = std::atof(reply.c_str() + q + 12);
      uint64_t req = g_next_id++;
      uint64_t rest = AddSpan("rest.event", 0, req, t0, t1);
      // The strand's span is known by duration only (from the reply);
      // it ends when the front end woke up, at the latest t1.
      AddSpan("server.strand", rest, req,
              t1 - std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::micro>(strand_us)),
              t1);
      LayerCounts& l = r_->layer;
      l.events += 1;
      l.rest_us += Us(t1 - t0);
      l.strand_us += strand_us;
      // The reply means the event's dispatch completed, and only this
      // client sends events to the session, so the session's stats are
      // settled until our next request.
      if (std::shared_ptr<Session> s = b_->server->FindSession(id)) {
        const auto& es = s->plugin().last_event_stats();
        l.memo_hits += es.memo_hits;
        l.memo_misses += es.memo_misses;
        l.delta_skips += es.delta_listeners_skipped;
        l.plan_hits += es.plan_hits;
        l.plan_misses += es.plan_misses;
        l.plan_compiles += es.plan_compiles;
        l.items_pulled += es.items_pulled;
        l.items_materialized += es.items_materialized;
        l.sorts_performed += es.sorts_performed;
        l.name_index_hits += es.name_index_hits;
        l.arena_bytes += es.arena_bytes_used;
        l.index_splices += es.delta_index_splices;
        l.rebuilds_avoided += es.delta_bucket_rebuilds_avoided;
        l.delta_emitted += es.delta_emitted;
        l.intern_hits += es.intern_hits;
        l.prefetch_issued += es.http_prefetch_issued;
        l.prefetch_hits += es.http_prefetch_hits;
      }
    }
    return true;
  }

  // GET /dom, then the oracle; a mismatch is a failed operation.
  bool Checkout(Clock::time_point due, const std::string& id,
                const std::function<std::string(const std::string&)>& oracle) {
    std::string dom;
    Clock::time_point t0 = Clock::now();
    bool ok = Call("GET", "sessions/" + id + "/dom", "", 200, &dom);
    Clock::time_point t1 = Clock::now();
    Phase ph = Classify(due, t0);
    if (!ok) return false;
    if (ph == Phase::kTraced) AddSpan("rest.dom", 0, g_next_id++, t0, t1);
    std::string diff = oracle(dom);
    if (!diff.empty()) {
      r_->Fail("oracle (" + b_->args.workload + " " + id + "): " + diff);
      return false;
    }
    return true;
  }

  bool Close(Clock::time_point due, const std::string& id) {
    Phase ph = b_->timeline.Of(due);
    if (ph == Phase::kTraced) {
      if (std::shared_ptr<Session> s = b_->server->FindSession(id)) {
        r_->layer.parallel_fallbacks += s->plugin().parallel_fallbacks();
      }
    }
    std::string reply;
    Clock::time_point t0 = Clock::now();
    bool ok = Call("POST", "sessions/" + id + "/close", "", 200, &reply);
    Clock::time_point t1 = Clock::now();
    if (ok && ph == Phase::kTraced) {
      AddSpan("rest.close", 0, g_next_id++, t0, t1);
      r_->layer.closes += 1;
      r_->layer.close_us += Us(t1 - t0);
    }
    return ok;
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      switch (c) {
        case '&': out += "&amp;"; break;
        case '<': out += "&lt;"; break;
        case '"': out += "&quot;"; break;
        default: out += c;
      }
    }
    return out;
  }

  // The open loop's lateness is recorded for every scheduled request.
  Phase Classify(Clock::time_point due, Clock::time_point sent) {
    Phase ph = b_->timeline.Of(due);
    if (b_->args.workload == "cart" &&
        (ph == Phase::kPlain || ph == Phase::kTraced)) {
      r_->late_ms.push_back(Us(sent - due) / 1000.0);
    }
    return ph;
  }

  bool Call(const char* method, const std::string& path, std::string body,
            int want_status, std::string* reply) {
    ++r_->attempted;
    HttpRequest req{method, kFrontBase + path, std::move(body)};
    xqib::Result<HttpResponse> resp = b_->front->Perform(req);
    if (!resp.ok()) {
      r_->Fail(std::string(method) + " " + path + ": " +
               resp.status().ToString());
      return false;
    }
    if (resp->status != want_status) {
      r_->Fail(std::string(method) + " " + path + ": HTTP " +
               std::to_string(resp->status) + " " + resp->body);
      return false;
    }
    *reply = std::move(resp->body);
    return true;
  }

  uint64_t AddSpan(const char* name, uint64_t parent, uint64_t request,
                   Clock::time_point start, Clock::time_point end) {
    uint64_t id = g_next_id++;
    r_->spans.push_back(Span{name, id, parent, request, start, end});
    return id;
  }

  Bench* b_;
  ThreadResult* r_;
};

// ---------------------------------------------------------------- setup

std::string QueryTerm(const std::string& url) {
  size_t q = url.find("?q=");
  return q == std::string::npos ? std::string() : url.substr(q + 3);
}

// Builds server, inputs, handlers and the initial sessions. Everything
// here is inside setup_s.
bool Setup(Bench* b, std::string* error) {
  PageServer::Options options;
  options.workers = b->nproc;
  b->server = std::make_unique<PageServer>(options);
  b->front = std::make_unique<HttpFabric>();
  b->server->InstallHttpFrontEnd(b->front.get(), kFrontBase);
  HttpFabric& backend = b->server->backend();
  const std::string& w = b->args.workload;

  if (w == "cart") {
    b->cart = MakeCartInputs(b->args.seed, kCartShoppersPerS,
                             kWarmSeconds + b->args.seconds);
    backend.PutResource(kProductsUrl, b->cart.products_xml);
    b->page_url = kCartPageUrl;
    if (!ReadFile(b->args.root + "/examples/pages/shopping_cart_xquery.xhtml",
                  &b->page_source)) {
      *error = "cannot read examples/pages/shopping_cart_xquery.xhtml";
      return false;
    }
  } else if (w == "reference") {
    namespace elsevier = xqib::app::elsevier;
    xqib::Status st =
        elsevier::BuildCorpus(&b->server->store(), elsevier::CorpusOptions());
    if (st.ok()) st = elsevier::DeployServer(&b->server->store(), &backend);
    if (!st.ok()) {
      *error = "reference corpus: " + st.ToString();
      return false;
    }
    b->page_url = kReferencePageUrl;
  } else {
    for (const MashupSource& src : kMashupSources) {
      auto render = src.render;
      backend.SetHandler(src.prefix, [b, render](const HttpRequest& req)
                                         -> xqib::Result<HttpResponse> {
        Clock::time_point t0 = Clock::now();
        HttpResponse resp{200, render(QueryTerm(req.url)), "application/xml"};
        Clock::time_point t1 = Clock::now();
        if (b->timeline.Of(t0) == Phase::kTraced) {
          std::lock_guard<std::mutex> lk(b->handler_mu);
          b->handler_us += Us(t1 - t0);
          b->handler_spans.push_back(
              Span{"net.handler", g_next_id++, 0, 0, t0, t1});
        }
        return resp;
      });
    }
    b->page_url = kMashupPageUrl;
    if (!ReadFile(b->args.root + "/perfbench/pages/mashup.xhtml",
                  &b->page_source)) {
      *error = "cannot read perfbench/pages/mashup.xhtml";
      return false;
    }
  }

  // The initial sessions: one per generator thread.
  ThreadResult scratch;
  Client client(b, &scratch);
  for (size_t i = 0; i < b->nproc; ++i) {
    std::string id;
    if (!client.Load(Clock::time_point(), &id)) {
      *error = "initial session: " +
               (scratch.errors.empty() ? "?" : scratch.errors.front());
      return false;
    }
    b->initial_sessions.push_back(id);
  }
  return true;
}

// Oracle and click universes (benchmark work, outside setup_s).
bool PrepareInputs(Bench* b, std::string* error) {
  if (b->args.workload == "reference") {
    auto corpus = b->server->store().Serialize("/corpus.xml");
    if (!corpus.ok() || !b->reference.Load(*corpus)) {
      *error = "reference oracle: corpus does not parse";
      return false;
    }
    b->universe = b->reference.article_ids();
  } else if (b->args.workload == "mashup") {
    b->universe = MashupPlaces(kMashupPlaces);
  }
  if (!b->universe.empty()) {
    b->zipf = std::make_unique<ZipfSampler>(b->universe.size(), kZipfExponent);
  }
  return true;
}

// ---------------------------------------------------------- closed loop

// One client: a session per batch of clicks (load, clicks, DOM check,
// close), the first batch on the set-up session, until the window ends.
void RunClosedClient(Bench* b, size_t c, ThreadResult* r) {
  Client client(b, r);
  ClickStream stream(b->args.workload == "reference"
                         ? ClickStream::Kind::kReference
                         : ClickStream::Kind::kMashup,
                     b->args.seed, c, &b->universe, b->zipf.get());
  std::string id = b->initial_sessions[c];
  for (bool more = true; more;) {
    std::vector<Click> clicks = stream.NextBatch();
    if (id.empty() && !client.Load(Clock::now(), &id)) return;
    size_t done = 0;
    for (const Click& click : clicks) {
      Clock::time_point now = Clock::now();
      if (done > 0 && now >= b->timeline.end) break;
      if (!client.Event(now, id, click)) return;
      ++done;
    }
    const Click& last = clicks[done - 1];
    auto oracle = [&](const std::string& dom) {
      return b->args.workload == "reference"
                 ? b->reference.Check(dom, last.target.substr(5))
                 : CheckMashup(dom, last.value);
    };
    Clock::time_point now = Clock::now();
    if (!client.Checkout(now, id, oracle) || !client.Close(now, id)) return;
    id.clear();
    more = Clock::now() < b->timeline.end;
  }
}

// ------------------------------------------------------------ open loop

struct Backlog {
  Clock::time_point at;
  size_t due;
};

// Poisson shoppers (cart). Each shopper is a chain of requests; a
// request is due at its schedule time and is timed from then, whether
// or not a generator thread was free.
class OpenLoop {
 public:
  explicit OpenLoop(Bench* b) : b_(b), state_(b->cart.shoppers.size()) {
    Clock::time_point zero = b->timeline.begin - Secs(kWarmSeconds);
    for (size_t i = 0; i < b->cart.shoppers.size(); ++i) {
      heap_.push_back(Entry{zero + Secs(b->cart.shoppers[i].arrival_s), i});
    }
    std::make_heap(heap_.begin(), heap_.end());
    remaining_ = b->cart.shoppers.size();
  }

  void Run(ThreadResult* r, std::vector<Backlog>* backlog) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on time, not +50 us
    Client client(b_, r);
    std::unique_lock<std::mutex> lk(mu_);
    while (remaining_ > 0) {
      if (heap_.empty()) {
        cv_.wait(lk);
        continue;
      }
      Entry e = heap_.front();
      Clock::time_point now = Clock::now();
      if (e.due > now) {
        cv_.wait_until(lk, e.due);
        continue;
      }
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.pop_back();
      if (b_->timeline.Of(now) != Phase::kWarm) {
        backlog->push_back(Backlog{now, CountDue(now)});
      }
      lk.unlock();
      Clock::time_point next;
      bool more = Step(&client, e, &next);
      lk.lock();
      if (more) {
        heap_.push_back(Entry{next, e.shopper});
        std::push_heap(heap_.begin(), heap_.end());
      } else {
        --remaining_;
      }
      cv_.notify_all();
    }
  }

 private:
  struct Entry {
    Clock::time_point due;
    size_t shopper;
    // Reversed, so the std heap algorithms keep the earliest due on top.
    bool operator<(const Entry& o) const { return due > o.due; }
  };
  struct ShopperState {
    std::string id;
    size_t step = 0;  // 0 load, 1..n clicks, n+1 checkout, n+2 close
    bool failed = false;
  };

  // Requests already due and not yet started (the generator's backlog).
  size_t CountDue(Clock::time_point now) const {
    const std::vector<Entry>& v = heap_;
    size_t count = 0;
    std::vector<size_t> stack{0};
    while (!stack.empty()) {
      size_t i = stack.back();
      stack.pop_back();
      if (i >= v.size() || v[i].due > now) continue;
      ++count;
      stack.push_back(2 * i + 1);
      stack.push_back(2 * i + 2);
    }
    return count;
  }

  // Runs the shopper's next request; returns whether another follows.
  bool Step(Client* client, const Entry& e, Clock::time_point* next) {
    const Shopper& s = b_->cart.shoppers[e.shopper];
    ShopperState& st = state_[e.shopper];
    size_t n = s.clicks.size();
    size_t step = st.step++;
    if (step == 0) {
      st.failed = !client->Load(e.due, &st.id);
      if (st.failed) return false;  // nothing to close
      *next = e.due + Secs(s.think_s[0]);
      return true;
    }
    if (step <= n) {
      if (!st.failed) st.failed = !client->Event(e.due, st.id, s.clicks[step - 1]);
      *next = e.due + Secs(s.think_s[step]);
      return true;
    }
    if (step == n + 1) {
      if (!st.failed) {
        client->Checkout(e.due, st.id, [&s](const std::string& dom) {
          return CheckCart(dom, s.clicks);
        });
      }
      *next = Clock::now();  // close right after checkout
      return true;
    }
    client->Close(e.due, st.id);
    return false;
  }

  Bench* b_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Entry> heap_;          // min-heap on due; guarded by mu_
  size_t remaining_ = 0;             // guarded by mu_
  std::vector<ShopperState> state_;  // each entry touched by one thread at a time
};

// ------------------------------------------------------------ keep-awake

// One spinning thread per vCPU at SCHED_IDLE priority, for the whole
// measurement. Any runnable thread preempts them at once, so they take
// almost no time from the server or the generators; they only keep idle
// vCPUs from halting. On a virtual machine, waking a halted vCPU goes through
// the hypervisor, and on a busy host that costs more than the event
// itself: interleaved cart runs gave event_p50_us of 165-239 us without
// these threads and 124-137 us with them.
class KeepAwake {
 public:
  explicit KeepAwake(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
          __builtin_ia32_pause();
        }
      });
    }
  }
  ~KeepAwake() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

  // CPU time the spinners used, so it can be left out of the cost.
  double CpuSeconds() {
    double total = 0;
    for (std::thread& t : threads_) {
      clockid_t clock;
      timespec ts{};
      if (pthread_getcpuclockid(t.native_handle(), &clock) == 0 &&
          clock_gettime(clock, &ts) == 0) {
        total += static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
      }
    }
    return total;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // declared after what they read
};

// ------------------------------------------------------------- snapshots

struct Snapshot {
  double cpu_s = 0;  // user + system time of the process, spinners excluded
  double front_makespan = 0, backend_makespan = 0, overlapped = 0;
  uint64_t requests = 0, bytes = 0, cache_hits = 0, cache_misses = 0;
  uint64_t pool_tasks = 0, pool_stolen = 0, plan_inserts = 0;
};

Snapshot Take(const Bench& b, KeepAwake* awake) {
  Snapshot s;
  const HttpFabric::Stats& f = b.front->stats();
  const HttpFabric::Stats& k = b.server->backend().stats();
  s.front_makespan = f.makespan_ms;
  s.backend_makespan = k.makespan_ms;
  s.overlapped = k.overlapped_ms;
  s.requests = k.requests;
  s.bytes = k.bytes_served;
  s.cache_hits = k.cache_hits;
  s.cache_misses = k.cache_misses;
  if (const xqib::base::ThreadPool* pool = b.server->pool()) {
    s.pool_tasks = pool->stats().submitted;
    s.pool_stolen = pool->stats().stolen;
  }
  s.plan_inserts = xqib::xquery::plan::PlanCache::Global().stats().inserts;
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  s.cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime) - awake->CpuSeconds();
  return s;
}

void SleepUntil(Clock::time_point t) { std::this_thread::sleep_until(t); }

// --------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;         // what the value was computed from (printed only)
  std::string detail = "";  // per-process values (printed only)
};

// The mean of what is left after dropping the lowest and the highest
// quarter of the values.
double TrimmedMean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t cut = v.size() / 4;
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string Json(const std::vector<Metric>& metrics, bool correct,
                 uint64_t attempted, uint64_t failed) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[32];  // shortest text that reads back as the same double
    char* end = std::to_chars(value, value + sizeof(value), metrics[i].value).ptr;
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << std::string(value, end) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

void WriteSpans(const std::string& path, const Bench& b,
                const std::vector<ThreadResult>& results) {
  std::ofstream out(path);
  if (!out) return;
  out.setf(std::ios::fixed);
  out.precision(3);
  auto emit = [&](const Span& s) {
    out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"start_us\": " << Us(s.start - b.timeline.begin)
        << ", \"end_us\": " << Us(s.end - b.timeline.begin) << "}\n";
  };
  size_t written = 0;
  for (const ThreadResult& r : results) {
    for (const Span& s : r.spans) {
      if (written++ < kMaxSpansWritten) emit(s);
    }
  }
  for (const Span& s : b.handler_spans) {
    if (written++ < kMaxSpansWritten) emit(s);
  }
}

// Everything one measuring process observed.
struct Measured {
  double setup_s = 0;
  double plain_s = 0, traced_s = 0;
  ThreadResult all;
  std::vector<ThreadResult> results;
  Snapshot at_begin, at_mid, at_end;
  size_t backlog_max = 0;
  bool valid = true;  // the open-loop schedule was honoured
};

bool Measure(Bench* b, Measured* m) {
  std::string error;
  Clock::time_point s0 = Clock::now();
  bool ok = Setup(b, &error);
  m->setup_s = std::chrono::duration<double>(Clock::now() - s0).count();
  if (ok) ok = PrepareInputs(b, &error);
  if (!ok) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n", error.c_str());
    return false;
  }

  const bool open_loop = b->args.workload == "cart";
  m->plain_s = b->args.trace ? b->args.seconds / 2 : b->args.seconds;
  m->traced_s = b->args.seconds - m->plain_s;
  b->timeline.begin = Clock::now() + Secs(kWarmSeconds);
  b->timeline.mid = b->timeline.begin + Secs(m->plain_s);
  b->timeline.end = b->timeline.begin + Secs(b->args.seconds);
  if (open_loop) {
    // The initial sessions only warmed the page; shoppers load their own.
    ThreadResult scratch;
    Client client(b, &scratch);
    for (const std::string& id : b->initial_sessions) {
      client.Close(Clock::time_point(), id);
    }
  }

  auto awake = std::make_unique<KeepAwake>(b->nproc);
  m->results.resize(b->nproc);
  std::vector<std::vector<Backlog>> backlogs(b->nproc);
  std::vector<std::thread> threads;
  std::unique_ptr<OpenLoop> open;
  if (open_loop) open = std::make_unique<OpenLoop>(b);
  for (size_t c = 0; c < b->nproc; ++c) {
    threads.emplace_back([&, c] {
      if (open_loop) {
        open->Run(&m->results[c], &backlogs[c]);
      } else {
        RunClosedClient(b, c, &m->results[c]);
      }
    });
  }
  SleepUntil(b->timeline.begin);
  m->at_begin = Take(*b, awake.get());
  SleepUntil(b->timeline.mid);
  m->at_mid = Take(*b, awake.get());
  SleepUntil(b->timeline.end);
  m->at_end = Take(*b, awake.get());
  for (std::thread& t : threads) t.join();
  awake.reset();

  ThreadResult& all = m->all;
  for (const ThreadResult& r : m->results) {
    all.event_us.insert(all.event_us.end(), r.event_us.begin(), r.event_us.end());
    all.load_ms.insert(all.load_ms.end(), r.load_ms.begin(), r.load_ms.end());
    all.late_ms.insert(all.late_ms.end(), r.late_ms.begin(), r.late_ms.end());
    all.plain_events += r.plain_events;
    all.traced_events += r.traced_events;
    all.attempted += r.attempted;
    all.failed += r.failed;
    for (const std::string& e : r.errors) {
      if (all.errors.size() < 5) all.errors.push_back(e);
    }
    all.layer.Add(r.layer);
  }
  for (const std::string& e : all.errors) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
  }

  // Open-loop validity: a backlog that keeps growing means the schedule
  // was not honoured and the latencies would describe the generator.
  if (open_loop) {
    std::vector<double> last_quarter;
    Clock::time_point q3 = b->timeline.begin + Secs(b->args.seconds * 0.75);
    for (const auto& v : backlogs) {
      for (const Backlog& x : v) {
        if (b->args.trace && b->timeline.Of(x.at) != Phase::kTraced) continue;
        m->backlog_max = std::max(m->backlog_max, x.due);
        if (x.at >= q3 && x.at < b->timeline.end) {
          last_quarter.push_back(static_cast<double>(x.due));
        }
      }
    }
    std::optional<double> median = Percentile(last_quarter, 50);
    m->valid = !median || *median <= static_cast<double>(b->nproc);
    if (!m->valid) {
      std::fprintf(stderr,
                   "perfbench: INVALID open-loop run: median backlog %.0f in "
                   "the last quarter exceeds %zu generator threads\n",
                   *median, b->nproc);
    }
  }
  return true;
}

// The end-to-end metrics of one measuring process. `supported` turns
// false when a percentile lacks ten samples beyond it.
std::vector<Metric> EndToEnd(const Measured& m, bool* supported) {
  std::vector<Metric> metrics;
  auto pct = [&](const std::vector<double>& v, double p, const char* name,
                 const char* unit) {
    std::optional<double> x = Percentile(v, p);
    if (!x) {
      std::fprintf(stderr, "perfbench: %s needs >= %zu samples beyond it, "
                   "have %zu samples\n", name, kMinBeyond, v.size());
      *supported = false;
    }
    metrics.push_back(Metric{name, x.value_or(0), unit, v.size()});
  };
  double events = static_cast<double>(m.all.plain_events);
  metrics.push_back(Metric{"setup_s", m.setup_s, "s", 1});
  metrics.push_back(Metric{"events_per_s", events / m.plain_s, "1/s",
                           m.all.plain_events});
  pct(m.all.event_us, 50, "event_p50_us", "us");
  metrics.push_back(Metric{
      "net_ms_per_event",
      Ratio((m.at_mid.front_makespan - m.at_begin.front_makespan) +
                (m.at_mid.backend_makespan - m.at_begin.backend_makespan),
            events),
      "ms", m.all.plain_events});
  // Page loads run in the window, so this also guards their cost.
  metrics.push_back(Metric{
      "cpu_us_per_event",
      Ratio((m.at_mid.cpu_s - m.at_begin.cpu_s) * 1e6, events), "us",
      m.all.plain_events});
  metrics.push_back(Metric{"rss_mb", PeakRssMb(), "MB", 1});
  return metrics;
}

std::vector<Metric> PerLayer(const Bench& b, const Measured& m,
                             bool* supported) {
  std::vector<Metric> metrics;
  const LayerCounts& l = m.all.layer;
  const Snapshot& s0 = m.at_mid;
  const Snapshot& s1 = m.at_end;
  uint64_t ev = m.all.traced_events;
  uint64_t loads = static_cast<uint64_t>(l.loads);
  auto per_event = [&](double x) { return Ratio(x, l.events); };
  auto per_load = [&](double x) { return Ratio(x, l.loads); };
  auto add = [&](const char* name, double v, const char* unit, uint64_t n) {
    metrics.push_back(Metric{name, v, unit, n});
  };
  add("server.rest_us", per_event(l.rest_us), "us", ev);
  add("server.strand_us", per_event(l.strand_us), "us", ev);
  add("server.frontend_us", per_event(l.rest_us - l.strand_us), "us", ev);
  add("server.load_us", per_load(l.load_us), "us", loads);
  add("server.close_us", Ratio(l.close_us, l.closes), "us",
      static_cast<uint64_t>(l.closes));
  add("plugin.init_extract_us", per_load(l.init_extract_us), "us", loads);
  add("plugin.init_foreign_us", per_load(l.init_foreign_us), "us", loads);
  add("plugin.init_compile_us", per_load(l.init_compile_us), "us", loads);
  add("plugin.init_bind_us", per_load(l.init_bind_us), "us", loads);
  add("plugin.init_run_main_us", per_load(l.init_run_main_us), "us", loads);
  double memo = l.memo_hits + l.memo_misses;
  add("plugin.memo_lookups", per_event(memo), "count/event", ev);
  add("plugin.memo_hit_ratio", Ratio(l.memo_hits, memo), "ratio",
      static_cast<uint64_t>(memo));
  add("plugin.delta_skips", per_event(l.delta_skips), "count/event", ev);
  add("plugin.parallel_fallbacks", l.parallel_fallbacks, "count",
      static_cast<uint64_t>(l.closes));
  double plans = l.plan_hits + l.plan_misses;
  add("xquery.plan_hit_ratio", Ratio(l.plan_hits, plans), "ratio",
      static_cast<uint64_t>(plans));
  add("xquery.items_pulled", per_event(l.items_pulled), "count/event", ev);
  add("xquery.items_materialized", per_event(l.items_materialized),
      "count/event", ev);
  add("xquery.sorts_performed", per_event(l.sorts_performed), "count/event", ev);
  add("xquery.name_index_hits", per_event(l.name_index_hits), "count/event", ev);
  add("xquery.plan_compiles", per_event(l.plan_compiles), "count/event", ev);
  add("xquery.plan_cache_inserts",
      static_cast<double>(s1.plan_inserts - s0.plan_inserts), "count", ev);
  add("xdm.arena_bytes", per_event(l.arena_bytes), "B/event", ev);
  add("xml.index_splices", per_event(l.index_splices), "count/event", ev);
  add("xml.rebuilds_avoided", per_event(l.rebuilds_avoided), "count/event", ev);
  add("xml.delta_emitted", per_event(l.delta_emitted), "count/event", ev);
  add("xml.intern_hits", per_event(l.intern_hits), "count/event", ev);
  uint64_t hits = s1.cache_hits - s0.cache_hits;
  uint64_t lookups = hits + (s1.cache_misses - s0.cache_misses);
  add("net.requests", per_event(static_cast<double>(s1.requests - s0.requests)),
      "count/event", ev);
  add("net.bytes", per_event(static_cast<double>(s1.bytes - s0.bytes)),
      "B/event", ev);
  add("net.cache_hit_ratio",
      Ratio(static_cast<double>(hits), static_cast<double>(lookups)), "ratio",
      lookups);
  add("net.makespan_ms", per_event(s1.backend_makespan - s0.backend_makespan),
      "ms", ev);
  add("net.overlapped_ms", per_event(s1.overlapped - s0.overlapped), "ms", ev);
  add("net.prefetch_issued", per_event(l.prefetch_issued), "count/event", ev);
  add("net.prefetch_hit_ratio", Ratio(l.prefetch_hits, l.prefetch_issued),
      "ratio", static_cast<uint64_t>(l.prefetch_issued));
  add("net.inflight_peak",
      static_cast<double>(b.server->backend().stats().inflight_peak), "count",
      1);
  add("net.handler_us", per_event(b.handler_us), "us", ev);
  double tasks = static_cast<double>(s1.pool_tasks - s0.pool_tasks);
  add("base.pool_tasks", per_event(tasks), "count/event", ev);
  add("base.steal_ratio",
      Ratio(static_cast<double>(s1.pool_stolen - s0.pool_stolen), tasks),
      "ratio", static_cast<uint64_t>(tasks));
  const bool open_loop = b.args.workload == "cart";
  std::vector<double> late = open_loop ? m.all.late_ms : std::vector<double>();
  std::optional<double> late_p99 = Percentile(late, 99);
  if (open_loop && !late_p99) *supported = false;
  add("loadgen.late_p99_ms", late_p99.value_or(0), "ms", late.size());
  add("loadgen.backlog_max", static_cast<double>(m.backlog_max), "count", 1);
  // Tail latencies of the untraced half: recorded, not bounded (on a
  // shared host they follow scheduling stalls more than the program).
  auto tail = [&](const std::vector<double>& v, double p, const char* name,
                  const char* unit, bool required) {
    std::optional<double> x = Percentile(v, p);
    if (required && !x) *supported = false;
    add(name, x.value_or(0), unit, v.size());
  };
  tail(m.all.event_us, 99, "tail.event_p99_us", "us", true);
  tail(m.all.load_ms, 50, "tail.load_p50_ms", "ms", true);
  tail(m.all.load_ms, 99, "tail.load_p99_ms", "ms", open_loop);
  double traced_rate = Ratio(static_cast<double>(ev), m.traced_s);
  double plain_rate = Ratio(static_cast<double>(m.all.plain_events), m.plain_s);
  add("trace.overhead_ratio", Ratio(traced_rate, plain_rate), "ratio", ev);
  // Spans come from benchmark code only, so the strand is the one part
  // of the REST round trip the trace names.
  add("trace.residual_us", per_event(l.rest_us - l.strand_us), "us", ev);
  return metrics;
}

void PrintRun(const Args& args, size_t nproc, size_t pool, int processes,
              const std::vector<Metric>& metrics, bool correct,
              uint64_t attempted, uint64_t failed) {
  std::printf("# workload=%s seed=%llu nproc=%zu pool=%zu processes=%d "
              "seconds=%g trace=%d",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              nproc, pool, processes, args.seconds, args.trace ? 1 : 0);
  if (args.workload == "cart") {
    std::printf(" offered_shoppers_per_s=%g", kCartShoppersPerS);
  }
  std::printf(" attempted=%llu failed=%llu fail_ratio=%g\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  for (const Metric& m : metrics) {
    std::printf("%-28s %14.4f %-12s n=%llu%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                m.detail.c_str());
  }
  std::printf("%s\n", Json(metrics, correct, std::max<uint64_t>(1, attempted),
                           failed).c_str());
  std::fflush(stdout);
}

// One fresh process per sub-run: it measures `seconds / kProcesses`
// and reports its metrics through `fd` as "name value unit samples"
// lines, then "attempted", "failed", "pool" and "correct" lines.
void RunChild(Args args, int k, int fd) {
  args.seed = StreamSeed(args.seed, "process", static_cast<uint64_t>(k));
  args.seconds /= kProcesses;
  Bench b;
  b.args = args;
  b.nproc = std::max(1u, std::thread::hardware_concurrency());
  Measured m;
  std::ostringstream out;
  out.precision(17);
  bool supported = true;
  bool measured = Measure(&b, &m);
  if (measured) {
    for (const Metric& x : EndToEnd(m, &supported)) {
      out << x.name << " " << x.value << " " << x.unit << " " << x.samples
          << "\n";
    }
    out << "pool " << b.server->workers() << "\n";
  }
  out << "attempted " << m.all.attempted << "\nfailed " << m.all.failed
      << "\ncorrect "
      << (measured && supported && m.valid && m.all.failed == 0 ? 1 : 0)
      << "\n";
  std::string text = out.str();
  for (size_t off = 0; off < text.size();) {
    ssize_t n = write(fd, text.data() + off, text.size() - off);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  close(fd);
  // Skip static destructors and pool teardown: the server and its
  // threads end with the process.
  std::fflush(stderr);
  _exit(0);
}

// Runs the sub-runs one after another and reports the trimmed mean of
// each end-to-end metric across them.
int RunEndToEnd(const Args& args) {
  std::vector<Metric> metrics;  // in the order the first process reported
  std::map<std::string, std::vector<double>> values;
  uint64_t attempted = 0, failed = 0;
  size_t pool = 0;
  bool correct = true;
  for (int k = 0; k < kProcesses; ++k) {
    int fds[2];
    if (pipe(fds) != 0) return 1;
    std::fflush(stdout);
    pid_t pid = fork();
    if (pid < 0) return 1;
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      close(fds[0]);
      RunChild(args, k, fds[1]);
    }
    close(fds[1]);
    std::string text;
    char buf[4096];
    for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;) {
      text.append(buf, static_cast<size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    bool reported_correct = false;
    std::istringstream in(text);
    std::string name;
    while (in >> name) {
      if (name == "attempted" || name == "failed" || name == "pool" ||
          name == "correct") {
        uint64_t v = 0;
        in >> v;
        if (name == "attempted") attempted += v;
        if (name == "failed") failed += v;
        if (name == "pool") pool = v;
        if (name == "correct") reported_correct = v == 1;
        continue;
      }
      Metric x{name, 0, "", 0};
      in >> x.value >> x.unit >> x.samples;
      std::vector<double>& seen = values[name];
      if (seen.empty()) {
        metrics.push_back(x);
      } else {
        for (Metric& m : metrics) m.samples += m.name == name ? x.samples : 0;
      }
      seen.push_back(x.value);
    }
    correct = correct && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
              reported_correct;
  }
  for (Metric& m : metrics) {
    const std::vector<double>& v = values[m.name];
    if (v.size() != static_cast<size_t>(kProcesses)) correct = false;
    m.value = TrimmedMean(v);
    m.detail = " trimmed mean of";
    for (double x : v) m.detail += " " + std::to_string(x);
  }
  if (metrics.empty()) correct = false;
  if (!correct) std::fprintf(stderr, "perfbench: run is not valid\n");
  size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  PrintRun(args, nproc, pool, kProcesses, metrics, correct, attempted, failed);
  return correct ? 0 : 1;
}

int RunTraced(const Args& args) {
  Bench b;
  b.args = args;
  b.nproc = std::max(1u, std::thread::hardware_concurrency());
  Measured m;
  if (!Measure(&b, &m)) return 1;
  bool supported = true;
  std::vector<Metric> metrics = PerLayer(b, m, &supported);
  if (!args.trace_out.empty()) WriteSpans(args.trace_out, b, m.results);
  bool correct = supported && m.valid && m.all.failed == 0;
  if (!correct) std::fprintf(stderr, "perfbench: run is not valid\n");
  PrintRun(args, b.nproc, b.server->workers(), 1, metrics, correct,
           m.all.attempted, m.all.failed);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload cart|reference|mashup --seed N "
                 "--seconds S --trace 0|1 [--root DIR] [--trace-out FILE]\n");
    return 2;
  }
  return args.trace ? RunTraced(args) : RunEndToEnd(args);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
