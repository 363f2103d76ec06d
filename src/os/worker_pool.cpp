#include "os/worker_pool.hpp"

namespace vcfr::os {

WorkerPool::WorkerPool(uint32_t workers) {
  threads_.reserve(workers);
  for (uint32_t id = 0; id < workers; ++id) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::run(uint32_t tasks, const std::function<void(uint32_t)>& fn) {
  if (tasks == 0) return;
  if (tasks == 1 || threads_.empty()) {
    // Nothing to parallelize (or nobody to hand it to) — run inline.
    for (uint32_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    tasks_ = tasks;
    next_.store(0);
    ++epoch_;
  }
  work_cv_.notify_all();
  drain(tasks, fn);
  // Every index is claimed now. A worker joins (busy_++) before it claims,
  // so any worker still running a task is counted in busy_.
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return busy_ == 0; });
  fn_ = nullptr;
}

void WorkerPool::drain(uint32_t tasks,
                       const std::function<void(uint32_t)>& fn) {
  for (uint32_t i = next_.fetch_add(1); i < tasks; i = next_.fetch_add(1)) {
    fn(i);
  }
}

void WorkerPool::worker_loop() {
  uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
    if (stop_) return;
    seen_epoch = epoch_;
    // A wake-up after the dispatch closed finds fn_ null and goes back
    // to sleep.
    if (fn_ == nullptr) continue;
    const std::function<void(uint32_t)>* fn = fn_;
    const uint32_t tasks = tasks_;
    ++busy_;
    lock.unlock();
    drain(tasks, *fn);
    lock.lock();
    if (--busy_ == 0) done_cv_.notify_all();
  }
}

}  // namespace vcfr::os
