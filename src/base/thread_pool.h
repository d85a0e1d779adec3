// A small work-stealing worker pool — the execution substrate of the
// parallel dispatch runtime (PERFORMANCE.md §5). Each worker owns a
// deque: its own work pops LIFO (cache-warm), idle workers steal FIFO
// from victims (oldest task first, the classic Chase-Lev discipline in
// mutex-guarded form — task bodies here are whole listener evaluations,
// microseconds to milliseconds, so lock cost is noise).
//
// The pool is deliberately oblivious to XQuery: it runs closures. All
// ordering guarantees (registration-order commits, document-order
// merges) live in the callers — the event-loop batcher, the dispatch
// scheduler, and ParallelStepStream.

#ifndef XQIB_BASE_THREAD_POOL_H_
#define XQIB_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/counters.h"

namespace xqib::base {

class ThreadPool {
 public:
  // A pool of `workers` threads. Zero is legal and means "no threads":
  // Submit runs inline and ParallelFor degrades to a plain loop — the
  // serial baseline every determinism oracle compares against.
  explicit ThreadPool(size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  // Fire-and-forget. Tasks may themselves Submit; they must not block on
  // other pool tasks (ParallelFor is the blocking primitive and the
  // calling thread participates, so it is safe from non-pool threads).
  void Submit(std::function<void()> task);

  // Runs fn(0) ... fn(n-1), distributed across the workers with the
  // calling thread participating, and returns when all n indices have
  // completed. Indices are claimed dynamically (atomic counter), so
  // uneven task costs balance automatically. fn must be safe to call
  // concurrently with itself for distinct indices.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  struct Stats {
    RelaxedCounter submitted;
    RelaxedCounter stolen;    // tasks executed by a non-owning worker
    RelaxedCounter parallel_fors;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerMain(size_t self);
  // Pops own-back or steals a victim's front. Returns false if no work
  // was found anywhere.
  bool FindWork(size_t self, std::function<void()>* out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> next_queue_{0};
  // Queued, not yet taken. Signed: a task may be taken before counted.
  std::atomic<std::ptrdiff_t> queued_{0};
  Stats stats_;
};

}  // namespace xqib::base

#endif  // XQIB_BASE_THREAD_POOL_H_
