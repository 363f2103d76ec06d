#include "os/worker_pool.hpp"

namespace vcfr::os {

WorkerPool::WorkerPool(uint32_t workers)
    : spin_(workers + 1 <= std::thread::hardware_concurrency()) {
  threads_.reserve(workers);
  for (uint32_t id = 0; id < workers; ++id) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  stop_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::await_change(const std::atomic<uint32_t>& word,
                              uint32_t old) const {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  while (spin_ && std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 64; ++i) {
      if (word.load(std::memory_order_acquire) != old) return;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }
  // Park. libstdc++ and libc++ both count parked waiters, and a notify
  // makes no syscall while that count is zero.
  word.wait(old);
}

void WorkerPool::run(uint32_t tasks, const std::function<void(uint32_t)>& fn) {
  if (tasks == 0) return;
  if (tasks == 1 || threads_.empty()) {
    // Nothing to parallelize (or nobody to hand it to) — run inline.
    for (uint32_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  fn_ = &fn;
  tasks_ = tasks;
  next_.store(0, std::memory_order_relaxed);
  busy_.fetch_or(kOpen, std::memory_order_release);
  epoch_.fetch_add(1);
  epoch_.notify_all();
  drain(tasks, fn);
  // Every index is claimed now. Close the dispatch and wait for the
  // workers that joined it; one arriving later finds it closed.
  uint32_t b = busy_.fetch_and(~kOpen, std::memory_order_acquire) & ~kOpen;
  for (; b != 0; b = busy_.load(std::memory_order_acquire)) {
    await_change(busy_, b);
  }
}

void WorkerPool::drain(uint32_t tasks,
                       const std::function<void(uint32_t)>& fn) {
  for (uint32_t i = next_.fetch_add(1); i < tasks; i = next_.fetch_add(1)) {
    fn(i);
  }
}

void WorkerPool::worker_loop() {
  for (uint32_t seen = 0;;) {
    await_change(epoch_, seen);
    seen = epoch_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_relaxed)) return;
    if ((busy_.fetch_add(1, std::memory_order_acquire) & kOpen) != 0) {
      drain(tasks_, *fn_);
    }
    if (busy_.fetch_sub(1) == 1) busy_.notify_one();
  }
}

}  // namespace vcfr::os
