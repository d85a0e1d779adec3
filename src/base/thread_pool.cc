#include "base/thread_pool.h"

namespace xqib::base {

ThreadPool::ThreadPool(size_t workers) {
  queues_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerMain(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    // Empty critical section: pairs with the wait's predicate check so a
    // worker between "predicate false" and "sleep" still sees the stop.
    std::lock_guard<std::mutex> lk(wake_mu_);
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  ++stats_.submitted;
  if (workers_.empty()) {
    task();
    return;
  }
  size_t victim =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lk(queues_[victim]->mu);
    queues_[victim]->tasks.push_back(std::move(task));
  }
  {
    // Counted under the wake mutex, so a worker about to park sees it.
    std::lock_guard<std::mutex> lk(wake_mu_);
    queued_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_one();
}

bool ThreadPool::FindWork(size_t self, std::function<void()>* out) {
  // Own queue first, newest task (LIFO: it is the cache-warm one).
  {
    WorkerQueue& q = *queues_[self];
    std::lock_guard<std::mutex> lk(q.mu);
    if (!q.tasks.empty()) {
      *out = std::move(q.tasks.back());
      q.tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_release);
      return true;
    }
  }
  // Steal oldest-first from the others, starting just past ourselves so
  // thieves spread out instead of mobbing queue 0.
  for (size_t i = 1; i < queues_.size(); ++i) {
    WorkerQueue& q = *queues_[(self + i) % queues_.size()];
    std::lock_guard<std::mutex> lk(q.mu);
    if (!q.tasks.empty()) {
      *out = std::move(q.tasks.front());
      q.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_release);
      ++stats_.stolen;
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerMain(size_t self) {
  std::function<void()> task;
  while (true) {
    if (FindWork(self, &task)) {
      task();
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lk(wake_mu_);
    wake_cv_.wait(lk, [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) <= 0) {
      return;
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  ++stats_.parallel_fors;
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Helpers and the caller claim indices from one shared counter. The
  // job outlives the caller only through the shared_ptr — a helper that
  // wakes after everything is claimed touches nothing but the counters.
  struct Job {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t total = 0;
    const std::function<void(size_t)>* fn = nullptr;  // valid while done<total
  };
  auto job = std::make_shared<Job>();
  job->total = n;
  job->fn = &fn;

  auto drain = [](const std::shared_ptr<Job>& j) {
    while (true) {
      size_t i = j->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= j->total) return;
      (*j->fn)(i);
      if (j->done.fetch_add(1, std::memory_order_acq_rel) + 1 == j->total) {
        std::lock_guard<std::mutex> lk(j->mu);
        j->cv.notify_all();
      }
    }
  };

  size_t helpers = std::min(workers_.size(), n - 1);
  for (size_t i = 0; i < helpers; ++i) {
    Submit([job, drain] { drain(job); });
  }
  drain(job);
  std::unique_lock<std::mutex> lk(job->mu);
  job->cv.wait(lk, [&] {
    return job->done.load(std::memory_order_acquire) == job->total;
  });
}

}  // namespace xqib::base
