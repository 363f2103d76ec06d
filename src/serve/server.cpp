#include "serve/server.hpp"

#include <algorithm>
#include <deque>
#include <memory>

#include "binary/text_reader.hpp"
#include "telemetry/json_writer.hpp"
#include "workloads/wl_server.hpp"

namespace vcfr::serve {

namespace {

// Same golden-ratio mixer the kernel/examples use for per-instance seeds.
constexpr uint64_t kSeedMix = 0x9e3779b97f4a7c15ull;

/// A generated request waiting in a tenant's queue.
struct Pending {
  uint64_t id = 0;
  uint64_t arrival = 0;
  std::vector<uint8_t> payload;  // framed server request (empty otherwise)
};

class ServeDriver : public os::ServiceHook {
 public:
  ServeDriver(const ServeConfig& config, os::Kernel& kernel,
              telemetry::Telemetry* telemetry)
      : config_(config), kernel_(kernel), telemetry_(telemetry) {
    for (uint32_t pid = 0; pid < config.tenants; ++pid) {
      const os::Process& p = kernel.process(pid);
      Tenant t;
      t.pid = pid;
      t.core = static_cast<uint32_t>(p.core());
      t.workload = p.config().workload;
      // "leaky" is the over-reading sibling of the §V-A handler: same
      // request framing / @request mailbox, so it joins the served set.
      t.is_server = t.workload == "server" || t.workload == "leaky";
      LoadGenConfig lg;
      lg.dist = config.dist;
      lg.mean = config.mean_interarrival;
      // Decorrelated from the tenant's placement seed but derived from the
      // same root, so one --seed pins the whole run.
      lg.seed = (config.seed ^ (kSeedMix * (pid + 1))) * 0x2545f4914f6cdd1dull +
                0x5345525645ull;
      t.gen = std::make_unique<LoadGen>(lg);
      // First arrival: one gap past time zero (both models).
      t.next_arrival = t.gen->draw_gap();
      t.gen_active = t.next_arrival <= config.duration;
      tenants_.push_back(std::move(t));
    }
    if (telemetry != nullptr) {
      const telemetry::Scope scope =
          telemetry->root().scope("fleet").scope("serve");
      scope.counter("generated", &generated_);
      scope.counter("completed", &completed_);
      scope.counter("failed", &failed_);
      scope.counter("dropped", &dropped_);
      scope.counter("queue_peak", &queue_peak_);
      scope.gauge("queue_depth", [this] {
        return static_cast<double>(queue_depth_);
      });
      scope.gauge("idle_tenants", [this] {
        uint64_t n = 0;
        for (const Tenant& t : tenants_) n += t.ready ? 1 : 0;
        return static_cast<double>(n);
      });
      latency_hist_ = scope.histogram("latency");
      wait_hist_ = scope.histogram("wait");
    }
  }

  void on_round(uint64_t round) override {
    (void)round;
    // 1. Crash poll: an in-flight request whose process left the fleet (or
    //    was already re-imaged by a restart) failed at the recorded finish
    //    cycle; a finished tenant with no restart coming is down and drops
    //    its queue.
    for (Tenant& t : tenants_) {
      os::Process& p = kernel_.process_mut(t.pid);
      const bool crashed =
          p.finished() || p.restarts() != t.restarts_seen;
      // Downtime window opens at the crash cycle (even when the kernel
      // already re-imaged the process before this poll ran — restart()
      // preserves finish_cycles); it closes at the boot life's halt.
      if (crashed && !t.down_open) {
        t.down_open = true;
        t.down_since = p.stats().finish_cycles;
      }
      if (t.inflight && crashed) {
        RequestRecord r;
        r.id = t.inflight_id;
        r.arrival = t.inflight_arrival;
        r.dispatch = t.inflight_dispatch;
        r.completion = std::max(p.stats().finish_cycles, t.inflight_dispatch);
        r.instructions = p.life_instructions();
        r.failed = true;
        finish_record(t, p, r);
        t.records.push_back(r);
        ++t.failed;
        ++failed_;
        t.inflight = false;
        if (config_.model == ArrivalModel::kClosed && !t.down) {
          t.next_arrival = r.completion + t.gen->draw_gap();
          t.gen_active = t.next_arrival <= config_.duration;
        }
      }
      t.restarts_seen = p.restarts();
      if (p.finished() && !kernel_.restart_pending(t.pid) && !t.down) {
        t.down = true;
        t.gen_active = false;
        if (telemetry_ != nullptr && telemetry_->journal() != nullptr) {
          telemetry_->journal()->log(
              {p.stats().finish_cycles, telemetry::JournalKind::kTenantDown,
               t.pid, -1, t.queue.size(), {}});
        }
        // Dropped requests still terminate their flow chains.
        for (const Pending& req : t.queue) {
          flow_end(t.pid, req.id, p.stats().finish_cycles);
        }
        t.dropped += t.queue.size();
        dropped_ += t.queue.size();
        queue_depth_ -= t.queue.size();
        t.queue.clear();
      }
    }
    // 2. Generation: push every arrival that has come due on its home
    //    core's clock (open loop can owe several; closed loop at most one).
    for (Tenant& t : tenants_) {
      while (t.gen_active && t.next_arrival <= kernel_.core_now(t.core)) {
        Pending req;
        req.id = t.next_id++;
        req.arrival = t.next_arrival;
        if (t.is_server) {
          req.payload = workloads::frame_request(t.gen->draw_server_body());
        }
        // The request's flow chain opens at its arrival cycle.
        if (telemetry::TraceLane* kl = kernel_lane(); kl != nullptr) {
          kl->instant(telemetry::TraceEventType::kReqFlowStart, t.pid,
                      req.arrival,
                      telemetry::request_flow_id(t.pid, req.id));
        }
        t.queue.push_back(std::move(req));
        ++t.generated;
        ++generated_;
        ++queue_depth_;
        t.queue_peak = std::max<uint64_t>(t.queue_peak, t.queue.size());
        queue_peak_ = std::max(queue_peak_, queue_depth_);
        if (config_.model == ArrivalModel::kClosed) {
          t.gen_active = false;  // re-armed at the request's completion
        } else {
          t.next_arrival += t.gen->draw_gap();
          t.gen_active = t.next_arrival <= config_.duration;
        }
      }
    }
    // 3. Delivery to parked tenants (tenants mid-request or mid-boot get
    //    theirs handed over in on_halt instead).
    for (Tenant& t : tenants_) {
      if (t.down || !t.ready || t.inflight || t.queue.empty()) continue;
      deliver(t, kernel_.core_now(t.core));
      kernel_.wake(t.pid);
      t.ready = false;
    }
    // 4. Fast-forward: a core whose every tenant is parked with an empty
    //    queue has nothing to execute — jump its clock to the earliest
    //    future arrival so that arrival can come due. Without this an
    //    all-blocked core's clock would stand still forever.
    const uint32_t cores = kernel_.config().cores;
    for (uint32_t c = 0; c < cores; ++c) {
      bool idle = true;
      uint64_t target = UINT64_MAX;
      for (const Tenant& t : tenants_) {
        if (t.core != c || t.down) continue;
        if (t.inflight || !t.queue.empty() || !t.ready) {
          idle = false;
          break;
        }
        if (t.gen_active) target = std::min(target, t.next_arrival);
      }
      if (idle && target != UINT64_MAX) kernel_.advance_core(c, target);
    }
  }

  HaltAction on_halt(uint32_t pid, uint64_t core_cycles) override {
    Tenant& t = tenants_[pid];
    os::Process& p = kernel_.process_mut(pid);
    // A clean halt after a crash is the restarted boot life's readiness
    // signal: the tenant is back up — close the downtime window.
    if (t.down_open) {
      t.down_intervals.emplace_back(t.down_since, core_cycles);
      t.down_open = false;
    }
    if (t.inflight) {
      RequestRecord r;
      r.id = t.inflight_id;
      r.arrival = t.inflight_arrival;
      r.dispatch = t.inflight_dispatch;
      r.completion = core_cycles;
      r.instructions = p.life_instructions();
      finish_record(t, p, r);
      advance_slo(t, r.completion, r.completion - r.arrival);
      t.records.push_back(r);
      ++t.completed;
      ++completed_;
      if (latency_hist_ != nullptr) {
        latency_hist_->record(r.completion - r.arrival);
      }
      if (wait_hist_ != nullptr) wait_hist_->record(r.dispatch - r.arrival);
      t.inflight = false;
      if (config_.model == ArrivalModel::kClosed) {
        t.next_arrival = core_cycles + t.gen->draw_gap();
        t.gen_active = t.next_arrival <= config_.duration;
      }
    }
    // (A halt with nothing in flight is the life's readiness signal — the
    // boot life, or the first halt after a restart — and records nothing.)
    if (!t.queue.empty()) {
      deliver(t, core_cycles);
      return HaltAction::kRunnable;
    }
    t.ready = true;
    return HaltAction::kBlocked;
  }

  [[nodiscard]] bool active() const override {
    for (const Tenant& t : tenants_) {
      if (t.down) continue;
      if (t.inflight || !t.queue.empty() || t.gen_active) return true;
    }
    return false;
  }

  /// Per-tenant results + fleet aggregates (after the kernel run drained).
  /// Non-const: the SLO monitor's final partial windows are closed here.
  void fill_report(ServeReport& out) {
    out.generated = generated_;
    out.completed = completed_;
    out.failed = failed_;
    out.dropped = dropped_;
    out.throughput_per_mcycle =
        out.fleet_cycles == 0
            ? 0.0
            : static_cast<double>(completed_) * 1e6 /
                  static_cast<double>(out.fleet_cycles);
    std::vector<uint64_t> all_latencies;
    for (Tenant& t : tenants_) {
      if (config_.slo_permille != 0) close_window(t);
      TenantReport tr;
      tr.pid = t.pid;
      tr.workload = t.workload;
      tr.core = t.core;
      tr.generated = t.generated;
      tr.completed = t.completed;
      tr.failed = t.failed;
      tr.dropped = t.dropped;
      tr.restarts = kernel_.process(t.pid).restarts();
      tr.down = t.down;
      tr.queue_peak = t.queue_peak;
      std::vector<uint64_t> latencies;
      uint64_t wait_sum = 0;
      for (const RequestRecord& r : t.records) {
        if (r.failed) continue;
        latencies.push_back(r.completion - r.arrival);
        wait_sum += r.dispatch - r.arrival;
      }
      std::sort(latencies.begin(), latencies.end());
      tr.p50 = nearest_rank_permille(latencies, 500);
      tr.p99 = nearest_rank_permille(latencies, 990);
      tr.p999 = nearest_rank_permille(latencies, 999);
      tr.max = latencies.empty() ? 0 : latencies.back();
      tr.mean_wait = latencies.empty()
                         ? 0.0
                         : static_cast<double>(wait_sum) /
                               static_cast<double>(latencies.size());
      tr.slo_windows = t.slo_windows;
      tr.slo_breaches = t.slo_breaches;
      for (const RequestRecord& r : t.records) {
        tr.leaks += r.leaks;
        tr.leak_depth_max = std::max(tr.leak_depth_max, r.leak_depth);
      }
      tr.records = t.records;
      if (t.down) ++out.tenants_down;
      all_latencies.insert(all_latencies.end(), latencies.begin(),
                           latencies.end());
      out.slo_windows += t.slo_windows;
      out.slo_breaches += t.slo_breaches;
      out.tenants.push_back(std::move(tr));
    }
    if (config_.slo_permille != 0) {
      out.slo_enabled = true;
      out.slo_metric = slo_metric_name(config_.slo_permille);
      out.slo_threshold = config_.slo_threshold;
      out.slo_window = config_.slo_window;
      out.slo_burn_rate =
          out.slo_windows == 0
              ? 0.0
              : static_cast<double>(out.slo_breaches) /
                    static_cast<double>(out.slo_windows);
      std::sort(all_latencies.begin(), all_latencies.end());
      out.slo_overall =
          nearest_rank_permille(all_latencies, config_.slo_permille);
      out.slo_violated = out.slo_overall > config_.slo_threshold;
    }
  }

 private:
  struct Tenant {
    uint32_t pid = 0;
    uint32_t core = 0;
    std::string workload;
    bool is_server = false;
    std::unique_ptr<LoadGen> gen;
    /// Crash->recovery downtime windows on the home-core clock; the open
    /// one starts at the crash's finish_cycles and closes at the first
    /// clean halt after the restart (the boot life's readiness signal).
    std::vector<std::pair<uint64_t, uint64_t>> down_intervals;
    bool down_open = false;
    uint64_t down_since = 0;
    /// Tumbling SLO window state (config.slo_permille != 0 only).
    uint64_t window_start = 0;
    std::vector<uint64_t> window_lat;
    uint64_t slo_windows = 0;
    uint64_t slo_breaches = 0;
    /// An arrival is armed for `next_arrival` (open loop: the stream head;
    /// closed loop: the think-time alarm).
    bool gen_active = false;
    uint64_t next_arrival = 0;
    std::deque<Pending> queue;
    bool inflight = false;
    uint64_t inflight_id = 0;
    uint64_t inflight_arrival = 0;
    uint64_t inflight_dispatch = 0;
    /// Halted at least once this life and parked: delivery may wake it.
    bool ready = false;
    /// Left the fleet with no restart pending; queue was dropped.
    bool down = false;
    uint32_t restarts_seen = 0;
    uint64_t next_id = 0;
    uint64_t generated = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t dropped = 0;
    uint64_t queue_peak = 0;
    std::vector<RequestRecord> records;
  };

  /// Hands the queue head to the (idle) process: payload into memory, per
  /// -life budget re-armed, dispatch stamped at `now`.
  void deliver(Tenant& t, uint64_t now) {
    Pending req = std::move(t.queue.front());
    t.queue.pop_front();
    --queue_depth_;
    os::Process& p = kernel_.process_mut(t.pid);
    p.rearm(req.payload, workloads::kServerRequestBase);
    // The kernel accrues run/commit cycles against this id from here on.
    p.begin_request(req.id);
    t.inflight = true;
    t.inflight_id = req.id;
    t.inflight_arrival = req.arrival;
    t.inflight_dispatch = now;
    if (telemetry::TraceLane* kl = kernel_lane(); kl != nullptr) {
      kl->instant(telemetry::TraceEventType::kReqFlowStep, t.pid, now,
                  telemetry::request_flow_id(t.pid, req.id));
    }
  }

  // ---- tracing helpers (no-ops without an attached tracer) ---------------
  /// All serve-side events record only during serial hook callbacks, so
  /// writing core lanes from the kernel thread here is race-free.
  [[nodiscard]] telemetry::TraceLane* lane(uint32_t id) {
    return telemetry_ == nullptr ? nullptr : telemetry_->lane(id);
  }
  [[nodiscard]] telemetry::TraceLane* kernel_lane() {
    return lane(kernel_.config().cores);
  }

  /// Terminates the request's flow chain ("f") on the kernel lane.
  void flow_end(uint32_t pid, uint64_t req, uint64_t cycle) {
    if (telemetry::TraceLane* kl = kernel_lane(); kl != nullptr) {
      kl->instant(telemetry::TraceEventType::kReqFlowEnd, pid, cycle,
                  telemetry::request_flow_id(pid, req));
    }
  }

  /// Tiles the four lifecycle spans end-to-end from the arrival cycle on
  /// the tenant's home-core lane. The tiling *is* the breakdown (summing
  /// to the latency), not the chronological interleaving.
  void emit_spans(const Tenant& t, const RequestRecord& r) {
    telemetry::TraceLane* l = lane(t.core);
    if (l == nullptr) return;
    const uint64_t fid = telemetry::request_flow_id(t.pid, r.id);
    uint64_t at = r.arrival;
    const std::pair<telemetry::TraceEventType, uint64_t> tiles[] = {
        {telemetry::TraceEventType::kReqQueue, r.queue_cycles},
        {telemetry::TraceEventType::kReqRun, r.run_cycles},
        {telemetry::TraceEventType::kReqRestartLoss, r.restart_loss_cycles},
        {telemetry::TraceEventType::kReqCommitStall, r.commit_stall_cycles},
    };
    for (const auto& [type, dur] : tiles) {
      if (dur == 0) continue;
      l->span(type, t.pid, at, dur, fid);
      at += dur;
    }
  }

  /// Cycles of [a, b) the tenant spent down (crash->recovery overlap).
  [[nodiscard]] uint64_t down_overlap(const Tenant& t, uint64_t a,
                                      uint64_t b) const {
    uint64_t total = 0;
    for (const auto& [s, e] : t.down_intervals) {
      const uint64_t lo = std::max(a, s);
      const uint64_t hi = std::min(b, e);
      if (hi > lo) total += hi - lo;
    }
    if (t.down_open) {
      const uint64_t lo = std::max(a, t.down_since);
      if (b > lo) total += b - lo;
    }
    return total;
  }

  /// Fills the record's critical-path decomposition from the process's
  /// accrued run/commit cycles and the tenant's downtime windows, ends
  /// the request, and emits the lifecycle spans + flow terminator.
  void finish_record(Tenant& t, os::Process& p, RequestRecord& r) {
    r.run_cycles = p.request_run_cycles();
    r.commit_stall_cycles = p.request_commit_cycles();
    r.leaks = p.request_leaks();
    r.leak_depth = p.request_leak_depth();
    r.restart_loss_cycles = down_overlap(t, r.arrival, r.completion);
    const uint64_t latency = r.completion - r.arrival;
    const uint64_t accounted =
        r.run_cycles + r.commit_stall_cycles + r.restart_loss_cycles;
    // queue is the remainder; tests assert the exact tiling, this guard
    // only keeps a hypothetical accounting bug from wrapping.
    r.queue_cycles = latency > accounted ? latency - accounted : 0;
    p.end_request();
    emit_spans(t, r);
    flow_end(t.pid, r.id, r.completion);
  }

  // ---- SLO monitor (config.slo_permille != 0 only) -----------------------
  /// Closes the tenant's current window: windows with at least one
  /// completion are evaluated against the objective; empty ones are not.
  void close_window(Tenant& t) {
    if (t.window_lat.empty()) return;
    std::sort(t.window_lat.begin(), t.window_lat.end());
    ++t.slo_windows;
    if (nearest_rank_permille(t.window_lat, config_.slo_permille) >
        config_.slo_threshold) {
      ++t.slo_breaches;
    }
    t.window_lat.clear();
  }

  /// Rolls the tenant's tumbling window up to `completion` and records the
  /// completed request's latency into the current window.
  void advance_slo(Tenant& t, uint64_t completion, uint64_t latency) {
    if (config_.slo_permille == 0) return;
    while (completion >= t.window_start + config_.slo_window) {
      close_window(t);
      t.window_start += config_.slo_window;
    }
    t.window_lat.push_back(latency);
  }

  ServeConfig config_;
  os::Kernel& kernel_;
  telemetry::Telemetry* telemetry_ = nullptr;
  std::vector<Tenant> tenants_;
  uint64_t generated_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t dropped_ = 0;
  uint64_t queue_depth_ = 0;
  uint64_t queue_peak_ = 0;
  telemetry::Histogram* latency_hist_ = nullptr;
  telemetry::Histogram* wait_hist_ = nullptr;
};

}  // namespace

uint64_t nearest_rank_permille(const std::vector<uint64_t>& sorted,
                               uint32_t permille) {
  if (sorted.empty()) return 0;
  const uint64_t n = sorted.size();
  uint64_t rank = (static_cast<uint64_t>(permille) * n + 999) / 1000;
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

std::string slo_metric_name(uint32_t permille) {
  switch (permille) {
    case 500:
      return "p50";
    case 990:
      return "p99";
    case 999:
      return "p999";
    default: {
      std::string name = "p";
      name += std::to_string(permille);
      return name + "m";
    }
  }
}

ServeReport run_serve(const ServeConfig& config,
                      telemetry::Telemetry* telemetry) {
  os::KernelConfig kc;
  kc.cores = config.cores == 0 ? 1 : config.cores;
  kc.sched.slice_instructions = config.slice_instructions;
  kc.cpu.drc.entries = config.drc_entries;
  kc.measure_isolated = false;
  kc.pool_workers = config.pool_workers;
  kc.rerand_cost_per_entry = config.rerand_cost_per_entry;
  os::Kernel kernel(kc);
  if (telemetry != nullptr) kernel.attach_telemetry(telemetry);

  const size_t mix = config.workloads.size();
  for (uint32_t i = 0; i < config.tenants; ++i) {
    os::ProcessConfig pc;
    pc.workload = mix == 0 ? "server" : config.workloads[i % mix];
    pc.scale = config.scale;
    pc.seed = config.seed ^ (kSeedMix * (i + 1));
    pc.max_instructions = config.request_budget;
    pc.enforce_tags = config.enforce_tags;
    pc.restart = config.restart;
    pc.rerandomize = config.rerandomize;
    pc.watchdog_instructions = config.watchdog_instructions;
    pc.taint = config.taint;
    for (const auto& [pid, plan] : config.injections) {
      if (pid == i) {
        pc.inject = plan;
        pc.inject_enabled = true;
      }
    }
    kernel.spawn(pc);
  }

  ServeDriver driver(config, kernel, telemetry);
  kernel.set_service(&driver);
  const os::FleetReport fr = kernel.run();

  ServeReport report;
  report.rounds = fr.rounds;
  report.fleet_cycles = fr.fleet_cycles;
  if (config.taint) {
    report.taint_enabled = true;
    report.leaks = kernel.leaks_detected();
    report.leak_rerands = kernel.leak_rerands();
  }
  driver.fill_report(report);
  return report;
}

std::string ServeReport::to_json() const {
  using telemetry::JsonWriter;
  JsonWriter w;
  w.begin_object(JsonWriter::Style::kPretty);
  w.key("rounds").value(rounds);
  w.key("fleet_cycles").value(fleet_cycles);
  w.key("requests").begin_object();
  w.key("generated").value(generated);
  w.key("completed").value(completed);
  w.key("failed").value(failed);
  w.key("dropped").value(dropped);
  w.end_object();
  w.key("throughput_per_mcycle").value(throughput_per_mcycle);
  w.key("tenants_down").value(tenants_down);
  if (slo_enabled) {
    // Present only when an SLO was configured, so un-monitored runs (and
    // the committed BENCH_serve.json) render byte-identically to PR 6.
    w.key("slo").begin_object();
    w.key("metric").value(slo_metric);
    w.key("threshold").value(slo_threshold);
    w.key("window").value(slo_window);
    w.key("windows").value(slo_windows);
    w.key("breaches").value(slo_breaches);
    w.key("burn_rate").value(slo_burn_rate);
    w.key("overall").value(slo_overall);
    w.key("violated").value(slo_violated);
    w.end_object();
  }
  if (taint_enabled) {
    // Present only when taint tracking was on, so untainted runs (and the
    // committed BENCH_serve.json) render byte-identically.
    w.key("taint").begin_object();
    w.key("leaks").value(leaks);
    w.key("leak_rerands").value(leak_rerands);
    w.end_object();
  }
  w.key("tenants").begin_array(JsonWriter::Style::kPretty);
  for (const TenantReport& t : tenants) {
    w.begin_object();
    w.key("pid").value(t.pid);
    w.key("workload").value(t.workload);
    w.key("core").value(t.core);
    w.key("generated").value(t.generated);
    w.key("completed").value(t.completed);
    w.key("failed").value(t.failed);
    w.key("dropped").value(t.dropped);
    w.key("restarts").value(t.restarts);
    w.key("down").value(t.down);
    w.key("queue_peak").value(t.queue_peak);
    w.key("p50").value(t.p50);
    w.key("p99").value(t.p99);
    w.key("p999").value(t.p999);
    w.key("max").value(t.max);
    w.key("mean_wait").value(t.mean_wait);
    if (slo_enabled) {
      w.key("slo_windows").value(t.slo_windows);
      w.key("slo_breaches").value(t.slo_breaches);
    }
    if (taint_enabled) {
      w.key("leaks").value(t.leaks);
      w.key("leak_depth_max").value(t.leak_depth_max);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

namespace {

// The latency CSV's two headers. Leak columns appear only under --taint,
// keeping untainted CSVs (and every consumer keyed on the legacy header)
// byte-identical.
constexpr std::string_view kCsvHeader =
    "tenant,request,arrival,dispatch,completion,latency,wait,"
    "queue,run,restart_loss,commit_stall,instructions,status";
constexpr std::string_view kCsvTaintColumns = ",leaks,leak_depth";
constexpr size_t kCsvCells = 13;
constexpr size_t kCsvTaintCells = 15;

}  // namespace

std::string ServeReport::latency_csv() const {
  std::string csv(kCsvHeader);
  if (taint_enabled) csv += kCsvTaintColumns;
  csv += '\n';
  for (const TenantReport& t : tenants) {
    // Records are appended in completion order; the contract is
    // (tenant, request id) order.
    std::vector<RequestRecord> rows = t.records;
    std::sort(rows.begin(), rows.end(),
              [](const RequestRecord& a, const RequestRecord& b) {
                return a.id < b.id;
              });
    for (const RequestRecord& r : rows) {
      csv += std::to_string(t.pid);
      csv += ',';
      csv += std::to_string(r.id);
      csv += ',';
      csv += std::to_string(r.arrival);
      csv += ',';
      csv += std::to_string(r.dispatch);
      csv += ',';
      csv += std::to_string(r.completion);
      csv += ',';
      csv += std::to_string(r.latency());
      csv += ',';
      csv += std::to_string(r.dispatch - r.arrival);
      csv += ',';
      csv += std::to_string(r.queue_cycles);
      csv += ',';
      csv += std::to_string(r.run_cycles);
      csv += ',';
      csv += std::to_string(r.restart_loss_cycles);
      csv += ',';
      csv += std::to_string(r.commit_stall_cycles);
      csv += ',';
      csv += std::to_string(r.instructions);
      csv += ',';
      csv += r.failed ? "failed" : "ok";
      if (taint_enabled) {
        csv += ',';
        csv += std::to_string(r.leaks);
        csv += ',';
        csv += std::to_string(r.leak_depth);
      }
      csv += '\n';
    }
  }
  return csv;
}

LatencyCsv read_latency_csv(std::string_view text, const std::string& name) {
  using binary::FormatFault;
  binary::TextReader in(text, name);
  std::string_view line;
  if (!in.next_line(line)) in.fail(FormatFault::kTruncated, "empty file");
  LatencyCsv csv;
  if (line.substr(0, kCsvHeader.size()) != kCsvHeader ||
      (line.size() != kCsvHeader.size() &&
       line.substr(kCsvHeader.size()) != kCsvTaintColumns)) {
    in.fail(FormatFault::kImplausible,
            "not a vcfr serve --latency-out header");
  }
  csv.taint = line.size() != kCsvHeader.size();
  const size_t want = csv.taint ? kCsvTaintCells : kCsvCells;
  while (in.next_line(line)) {
    std::string_view cell[kCsvTaintCells];
    size_t n = 0;
    for (size_t start = 0;; ++n) {
      const size_t comma = line.find(',', start);
      if (n == want) in.fail(FormatFault::kImplausible, "too many cells");
      cell[n] = line.substr(start, comma - start);
      if (comma == std::string_view::npos) break;
      start = comma + 1;
    }
    if (n + 1 < want) in.fail(FormatFault::kTruncated, "short row");
    LatencyRow row;
    row.tenant = in.number<uint32_t>(cell[0], "tenant");
    RequestRecord& r = row.record;
    r.id = in.number<uint64_t>(cell[1], "request");
    r.arrival = in.number<uint64_t>(cell[2], "arrival");
    r.dispatch = in.number<uint64_t>(cell[3], "dispatch");
    r.completion = in.number<uint64_t>(cell[4], "completion");
    if (in.number<uint64_t>(cell[5], "latency") != r.latency() ||
        in.number<uint64_t>(cell[6], "wait") != r.dispatch - r.arrival) {
      in.fail(FormatFault::kImplausible,
              "latency/wait disagree with the timestamps");
    }
    r.queue_cycles = in.number<uint64_t>(cell[7], "queue");
    r.run_cycles = in.number<uint64_t>(cell[8], "run");
    r.restart_loss_cycles = in.number<uint64_t>(cell[9], "restart_loss");
    r.commit_stall_cycles = in.number<uint64_t>(cell[10], "commit_stall");
    r.instructions = in.number<uint64_t>(cell[11], "instructions");
    if (cell[12] != "ok" && cell[12] != "failed") {
      in.fail(FormatFault::kImplausible, "status is neither ok nor failed");
    }
    r.failed = cell[12] == "failed";
    if (csv.taint) {
      r.leaks = in.number<uint64_t>(cell[13], "leaks");
      r.leak_depth = in.number<uint32_t>(cell[14], "leak_depth");
    }
    csv.rows.push_back(row);
  }
  return csv;
}

std::string ServeReport::summary() const {
  std::string s = "serve: " + std::to_string(tenants.size()) + " tenants, " +
                  std::to_string(completed) + "/" +
                  std::to_string(generated) + " requests served in " +
                  std::to_string(fleet_cycles) + " cycles (" +
                  telemetry::json_double(throughput_per_mcycle) +
                  " req/Mcycle)";
  if (failed != 0) s += ", " + std::to_string(failed) + " failed";
  if (dropped != 0) s += ", " + std::to_string(dropped) + " dropped";
  if (tenants_down != 0) {
    s += ", " + std::to_string(tenants_down) + " tenant(s) down";
  }
  s += "\n";
  if (slo_enabled) {
    s += "  slo " + slo_metric + " <= " + std::to_string(slo_threshold) +
         " cycles: overall " + std::to_string(slo_overall) + " (" +
         (slo_violated ? "VIOLATED" : "met") + "), " +
         std::to_string(slo_breaches) + "/" + std::to_string(slo_windows) +
         " windows breached (burn rate " +
         telemetry::json_double(slo_burn_rate) + ", window " +
         std::to_string(slo_window) + " cycles)\n";
  }
  if (taint_enabled) {
    s += "  taint: " + std::to_string(leaks) + " leak(s) detected";
    if (leak_rerands != 0) {
      s += ", " + std::to_string(leak_rerands) +
           " leak-triggered re-randomization(s)";
    }
    s += "\n";
  }
  for (const TenantReport& t : tenants) {
    s += "  pid " + std::to_string(t.pid) + " (" + t.workload + ", core " +
         std::to_string(t.core) + "): " + std::to_string(t.completed) +
         " served, p50 " + std::to_string(t.p50) + ", p99 " +
         std::to_string(t.p99) + ", p999 " + std::to_string(t.p999) +
         ", max " + std::to_string(t.max);
    if (t.failed != 0) s += ", failed " + std::to_string(t.failed);
    if (t.restarts != 0) s += ", restarts " + std::to_string(t.restarts);
    if (t.down) s += ", DOWN";
    s += "\n";
  }
  return s;
}

}  // namespace vcfr::serve
