// Preemptive round-robin scheduler over per-core run queues.
//
// Processes are sharded statically at admission (round-robin across
// cores) and then rotate on their core's queue: the kernel's timer
// interrupt fires every `slice_instructions` retired instructions, the
// running process goes to the back of its queue, and the head is
// dispatched — triggering the DRC/bitmap flush in core::ContextManager
// whenever the address space actually changes. Static sharding keeps the
// parallel fleet deterministic (a process's requests always appear in its
// own core's request log) and mirrors cache-affinity pinning.
//
// The ready set is an indexed intrusive FIFO: one `next_` link per pid
// plus per-core head/tail, so admit/pick/requeue/unblock/any_runnable are
// all O(1) and scheduling stays off the hot path at 256+ tenants. The
// pick order is bit-identical to the former per-core std::deque
// implementation (push_back/pop_front FIFO).
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/stat_registry.hpp"

namespace vcfr::binary {
class StateIo;
}  // namespace vcfr::binary

namespace vcfr::os {

struct SchedulerConfig {
  /// Timer-interrupt period, in retired instructions (the simulator's
  /// natural clock; a cycle-driven timer would preempt mid-instruction).
  uint64_t slice_instructions = 50'000;
};

class Scheduler {
 public:
  Scheduler(const SchedulerConfig& config, uint32_t cores);

  /// Admits `pid`, assigning it a home core (round-robin shard). Returns
  /// the core.
  uint32_t admit(uint32_t pid);

  /// Pops the next runnable pid for `core`; -1 when its queue is empty.
  [[nodiscard]] int pick(uint32_t core);

  /// Returns a preempted (still-runnable) process to the back of its
  /// core's queue.
  void requeue(uint32_t core, uint32_t pid);

  /// Parks `pid` as blocked (waiting on an external event — e.g. a serve
  /// tenant with no pending request). A blocked process is simply not on
  /// any queue; this records the transition so idle tenants are
  /// observable and wakeups can be told apart from preemptions.
  void block(uint32_t pid);

  /// Unparks a blocked process onto the back of its home core's queue.
  /// Not a preemption: counted separately as a wakeup.
  void unblock(uint32_t core, uint32_t pid);

  [[nodiscard]] bool any_runnable() const { return runnable_ > 0; }
  [[nodiscard]] uint64_t preemptions() const { return preemptions_; }
  [[nodiscard]] uint64_t wakeups() const { return wakeups_; }
  /// Processes currently parked via block().
  [[nodiscard]] uint64_t blocked() const { return blocked_; }
  [[nodiscard]] const SchedulerConfig& config() const { return config_; }

  /// Binds scheduler counters into `scope` (preemptions, wakeups, live
  /// gauges of runnable and blocked processes).
  void register_stats(const telemetry::Scope& scope) const;

  /// Checkpoint support: queue contents are written as explicit per-core
  /// pid lists in FIFO order, so the wire format is independent of the
  /// intrusive-list representation. Loading rejects a pid that is not
  /// below `pids` or is queued twice.
  void state(binary::StateIo& io, uint32_t pids);

 private:
  /// Appends `pid` to the back of `core`'s ready FIFO.
  void push(uint32_t core, uint32_t pid);

  SchedulerConfig config_;
  /// Intrusive FIFO links: next_[pid] is the pid queued behind `pid`, or
  /// -1. A pid is on at most one queue (runnable xor blocked xor running).
  std::vector<int32_t> next_;
  std::vector<int32_t> head_;  // per core; -1 = empty
  std::vector<int32_t> tail_;
  uint64_t runnable_ = 0;
  uint32_t next_core_ = 0;
  uint64_t preemptions_ = 0;
  uint64_t wakeups_ = 0;
  uint64_t blocked_ = 0;
};

}  // namespace vcfr::os
