#include "os/scheduler.hpp"

#include "binary/state_io.hpp"

namespace vcfr::os {

Scheduler::Scheduler(const SchedulerConfig& config, uint32_t cores)
    : config_(config),
      head_(cores == 0 ? 1 : cores, -1),
      tail_(cores == 0 ? 1 : cores, -1) {}

void Scheduler::push(uint32_t core, uint32_t pid) {
  if (pid >= next_.size()) next_.resize(pid + 1, -1);
  next_[pid] = -1;
  if (tail_[core] < 0) {
    head_[core] = static_cast<int32_t>(pid);
  } else {
    next_[static_cast<uint32_t>(tail_[core])] = static_cast<int32_t>(pid);
  }
  tail_[core] = static_cast<int32_t>(pid);
  ++runnable_;
}

uint32_t Scheduler::admit(uint32_t pid) {
  const uint32_t core = next_core_;
  push(core, pid);
  next_core_ = (next_core_ + 1) % static_cast<uint32_t>(head_.size());
  return core;
}

int Scheduler::pick(uint32_t core) {
  const int32_t pid = head_[core];
  if (pid < 0) return -1;
  head_[core] = next_[static_cast<uint32_t>(pid)];
  if (head_[core] < 0) tail_[core] = -1;
  --runnable_;
  return pid;
}

void Scheduler::requeue(uint32_t core, uint32_t pid) {
  push(core, pid);
  ++preemptions_;
}

void Scheduler::block(uint32_t pid) {
  (void)pid;  // not on any queue while blocked; only the count is kept
  ++blocked_;
}

void Scheduler::unblock(uint32_t core, uint32_t pid) {
  push(core, pid);
  if (blocked_ > 0) --blocked_;
  ++wakeups_;
}

void Scheduler::register_stats(const telemetry::Scope& scope) const {
  scope.counter("preemptions", &preemptions_);
  scope.counter("wakeups", &wakeups_);
  scope.gauge("runnable",
              [this] { return static_cast<double>(runnable_); });
  scope.gauge("blocked",
              [this] { return static_cast<double>(blocked_); });
}

void Scheduler::state(binary::StateIo& io, uint32_t pids) {
  io.u32(next_core_);
  io.u64(preemptions_);
  io.u64(wakeups_);
  io.u64(blocked_);
  io.fixed(head_.size(), 1u << 16, "checkpoint core count mismatch");
  if (io.loading()) {
    next_.clear();
    head_.assign(head_.size(), -1);
    tail_.assign(tail_.size(), -1);
    runnable_ = 0;
  }
  std::vector<bool> queued(pids, false);
  for (uint32_t core = 0; core < head_.size(); ++core) {
    std::vector<uint32_t> queue;
    for (int32_t pid = head_[core]; pid >= 0;
         pid = next_[static_cast<uint32_t>(pid)]) {
      queue.push_back(static_cast<uint32_t>(pid));
    }
    io.vec(queue, 1u << 20, [&](uint32_t& pid) {
      io.u32(pid);
      io.require(pid < pids && !queued[pid],
                 "checkpoint queued pid out of range or queued twice");
      queued[pid] = true;
    });
    if (io.loading()) {
      for (const uint32_t pid : queue) push(core, pid);
    }
  }
}

}  // namespace vcfr::os
