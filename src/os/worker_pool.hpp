// Persistent worker pool for the fleet kernel's execute phase.
//
// The kernel used to spawn and join a fresh std::thread per active core
// every scheduler round — at smoke-scale slice lengths the spawn/join cost
// rivals the simulation work itself. This pool creates the host threads
// once and dispatches rounds through a condition variable.
//
// Task assignment is one shared atomic next-task index: every participant
// (the workers()+1 of them, the caller included) claims next_.fetch_add(1)
// until the index reaches `tasks`. An idle participant simply claims the
// next task, so a slow task (deep re-rand, DRC-cold tenant) does not stall
// the rest of the round behind one host thread, and `tasks` may exceed the
// participant count.
//
// Determinism: which host thread runs a task is scheduling-dependent, but
// every task index is claimed exactly once per dispatch and run() returns
// only after all of them complete, so any simulated state the tasks
// produce is collected by the caller in deterministic (task-index) order.
// Each simulated core is therefore driven by exactly one host thread per
// round and the per-lane tracing contract (one writer per ring) holds.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vcfr::os {

class WorkerPool {
 public:
  /// Creates `workers` host threads, idle until the first run().
  explicit WorkerPool(uint32_t workers);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs fn(0) .. fn(tasks-1), each exactly once, and returns when every
  /// task has completed and every worker that joined the dispatch has left
  /// it. The calling thread participates in the drain. A single task (or
  /// an empty pool) runs inline without waking anyone.
  void run(uint32_t tasks, const std::function<void(uint32_t)>& fn);

  [[nodiscard]] uint32_t workers() const {
    return static_cast<uint32_t>(threads_.size());
  }

 private:
  void worker_loop();
  /// Claims and runs task indices until the dispatch is exhausted.
  void drain(uint32_t tasks, const std::function<void(uint32_t)>& fn);

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // Dispatch state, all guarded by mutex_. fn_ is null between dispatches,
  // so a worker that wakes after run() returned joins nothing.
  const std::function<void(uint32_t)>* fn_ = nullptr;
  uint32_t tasks_ = 0;
  uint32_t busy_ = 0;  // workers inside the current dispatch
  uint64_t epoch_ = 0;
  bool stop_ = false;

  std::atomic<uint32_t> next_{0};
  std::vector<std::thread> threads_;
};

}  // namespace vcfr::os
