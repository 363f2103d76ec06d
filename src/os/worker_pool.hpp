// Persistent worker pool for the fleet kernel's execute phase.
//
// The kernel used to spawn and join a fresh std::thread per active core
// every scheduler round — at smoke-scale slice lengths the spawn/join cost
// rivals the simulation work itself. This pool creates the host threads
// once and hands each round over with a spin-then-park barrier on two
// atomics:
//
//  * epoch_ — bumped by run() to publish a dispatch. A worker that has
//    just left one dispatch spins on it for kSpinBudget, then parks in
//    std::atomic::wait. Back-to-back rounds thus find the worker awake
//    instead of paying a futex wake that costs about as much as a slice.
//    serve-rerand's serial gap between pool rounds is 2.6-3.7 µs at the
//    median and 30-44 µs at p90 (firings, single-core rounds): the budget
//    catches the short gaps and gives up on the long ones.
//  * busy_ — the workers inside the current dispatch, plus an "open" bit.
//    A worker joins only while the bit is set, so one that wakes after
//    the dispatch closed joins nothing. run() clears the bit after its own
//    drain, then spins on busy_ for the same budget before parking.
//    The release on each worker's leave and the acquire in run()'s wait
//    carry every task's writes to the caller, so run() is a full barrier.
//
// A notify with nobody parked is free, so a round in which nobody parked
// makes no syscall. Spinning is on only when every participant (the
// workers and the caller) can have a CPU of its own, workers() + 1 <=
// std::thread::hardware_concurrency(). An oversubscribed pool parks at
// once, since a spinner would only take the CPU from the thread it waits
// for.
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
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace vcfr::os {

class WorkerPool {
 public:
  /// How long a worker waits awake for the next dispatch, and the caller
  /// for the last worker to leave, before parking. Short on purpose: a
  /// spin outliving the gap between rounds only burns CPU time.
  static constexpr std::chrono::microseconds kSpinBudget{25};

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
  /// Whether waits spin before parking (false when oversubscribed).
  [[nodiscard]] bool spins() const { return spin_; }

 private:
  static constexpr uint32_t kOpen = 1u << 31;

  void worker_loop();
  /// Claims and runs task indices until the dispatch is exhausted.
  void drain(uint32_t tasks, const std::function<void(uint32_t)>& fn);
  /// Returns once `word` no longer holds `old`: spins for kSpinBudget
  /// (when spinning is on), then parks.
  void await_change(const std::atomic<uint32_t>& word, uint32_t old) const;

  const bool spin_;
  std::atomic<bool> stop_{false};  // set before the destructor's epoch bump
  // Dispatch arguments, written by run() before it opens busy_ and read
  // by a worker only after it joined.
  const std::function<void(uint32_t)>* fn_ = nullptr;
  uint32_t tasks_ = 0;

  std::atomic<uint32_t> epoch_{0};
  alignas(64) std::atomic<uint32_t> busy_{0};
  alignas(64) std::atomic<uint32_t> next_{0};
  std::vector<std::thread> threads_;
};

}  // namespace vcfr::os
