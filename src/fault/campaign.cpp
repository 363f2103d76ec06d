#include "fault/campaign.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "binary/loader.hpp"
#include "emu/emulator.hpp"
#include "rewriter/randomizer.hpp"
#include "telemetry/json_writer.hpp"
#include "workloads/suite.hpp"

namespace vcfr::fault {

namespace {

using telemetry::JsonWriter;
using telemetry::json_double;

constexpr uint64_t kMix = 0x9e3779b97f4a7c15ull;

/// Deterministic seed combiner (splitmix64 finalizer over a running mix).
uint64_t mix(uint64_t a, uint64_t b) {
  uint64_t z = a + kMix * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void counts_json(JsonWriter& w, const OutcomeCounts& c) {
  w.begin_object();
  w.key("trials").value(c.trials);
  w.key("applied").value(c.applied);
  w.key("detected").value(c.detected);
  w.key("silent").value(c.silent);
  w.key("benign").value(c.benign);
  w.key("hung").value(c.hung);
  w.key("detection_rate").raw_value(json_double(c.detection_rate()));
  w.key("silent_rate").raw_value(json_double(c.silent_rate()));
  w.key("containment_rate").raw_value(json_double(c.containment_rate()));
  w.end_object();
}

}  // namespace

std::string_view layout_name(binary::Layout layout) {
  switch (layout) {
    case binary::Layout::kOriginal: return "native";
    case binary::Layout::kNaiveIlr: return "naive_ilr";
    case binary::Layout::kVcfr: return "vcfr";
  }
  return "unknown";
}

std::string_view outcome_name(TrialOutcome outcome) {
  switch (outcome) {
    case TrialOutcome::kNotApplied: return "not_applied";
    case TrialOutcome::kDetected: return "detected";
    case TrialOutcome::kSilent: return "silent";
    case TrialOutcome::kBenign: return "benign";
    case TrialOutcome::kHung: return "hung";
  }
  return "unknown";
}

const OutcomeCounts* CampaignReport::layout_counts(
    std::string_view name) const {
  for (const auto& [n, counts] : by_layout) {
    if (n == name) return &counts;
  }
  return nullptr;
}

CampaignReport run_campaign(const CampaignConfig& config,
                            telemetry::StatRegistry* registry) {
  CampaignReport report;
  report.config = config;
  report.latency_buckets.assign(32, 0);
  for (const binary::Layout layout : config.layouts) {
    report.by_layout.emplace_back(std::string(layout_name(layout)),
                                  OutcomeCounts{});
  }
  for (const FaultSite site : config.sites) {
    report.by_site.emplace_back(std::string(site_name(site)),
                                OutcomeCounts{});
  }
  std::map<std::string, uint64_t> kinds;
  std::map<std::string, uint64_t> applied_by_site;

  for (size_t wi = 0; wi < config.workloads.size(); ++wi) {
    const std::string& name = config.workloads[wi];
    const binary::Image base = workloads::make(name, config.scale);
    for (size_t li = 0; li < config.layouts.size(); ++li) {
      const binary::Layout layout = config.layouts[li];
      const std::string lname(layout_name(layout));

      // Build the layout under test. The randomization seed is per
      // (campaign, workload) — the same placement every trial corrupts.
      binary::Image image;
      if (layout == binary::Layout::kOriginal) {
        image = base;
      } else {
        rewriter::RandomizeOptions options;
        options.seed = mix(config.seed, wi);
        rewriter::RandomizeResult rr = rewriter::randomize(base, options);
        image = layout == binary::Layout::kNaiveIlr
                    ? rewriter::naive_ilr(rr.vcfr)
                    : std::move(rr.vcfr);
      }
      const bool enforce = layout == binary::Layout::kVcfr;

      emu::RunLimits limits;
      limits.max_instructions = config.max_instructions;
      limits.enforce_tags = enforce;

      // Uninjected reference: defines the clean output and the window of
      // valid injection points.
      const emu::RunResult ref = emu::run_image(image, limits);
      if (!ref.halted || ref.stats.instructions < 2) {
        report.skipped.push_back(name + "/" + lname);
        continue;
      }

      for (size_t si = 0; si < config.sites.size(); ++si) {
        const FaultSite site = config.sites[si];
        OutcomeCounts& site_counts = report.by_site[si].second;
        OutcomeCounts& layout_counts = report.by_layout[li].second;
        for (uint32_t trial = 0; trial < config.trials; ++trial) {
          const uint64_t tseed =
              mix(mix(mix(config.seed, wi), li * 8 + si), trial);
          FaultPlan plan;
          plan.site = site;
          plan.seed = tseed;
          plan.at_instruction = 1 + mix(tseed, 0xfau) %
                                        (ref.stats.instructions - 1);

          TrialRecord rec;
          rec.workload = name;
          rec.layout = lname;
          rec.site = site;
          rec.trial = trial;
          rec.injected_at = plan.at_instruction;

          binary::Image victim = image;  // table corruption mutates it
          binary::Memory mem;
          binary::load(victim, mem);
          emu::Emulator emu(victim, mem);
          emu.set_enforce_tags(enforce);
          // Replay the clean prefix to the exact injection point.
          while (emu.stats().instructions < plan.at_instruction &&
                 emu.step()) {
          }

          FaultInjector injector(plan);
          injector.apply(victim, mem, emu, &base);
          rec.applied = injector.applied();
          rec.note = injector.record().note;

          ++report.total.trials;
          ++site_counts.trials;
          ++layout_counts.trials;
          if (!rec.applied) {
            rec.outcome = TrialOutcome::kNotApplied;
            if (config.keep_trials) report.trials.push_back(rec);
            continue;
          }
          ++report.total.applied;
          ++site_counts.applied;
          ++layout_counts.applied;
          ++applied_by_site[std::string(site_name(site))];

          emu.run(limits);
          // A payload trial that traps only *after* the hijacked transfer
          // is a successful attack — gadgets ran with attacker-chosen
          // operands before anything noticed. Blocking means trapping at
          // the transfer itself (§IV-A), so only a zero-latency trap
          // counts as detected; a later crash is the compromise the paper
          // calls silent (the crash is the attack's residue, not a
          // detection).
          const bool hijack_escaped =
              site == FaultSite::kPayload && emu.faulted() &&
              emu.trap().instruction > plan.at_instruction;
          if (emu.faulted() && !hijack_escaped) {
            rec.outcome = TrialOutcome::kDetected;
            rec.kind = emu.trap().kind;
            rec.latency = emu.trap().instruction - plan.at_instruction;
            ++report.total.detected;
            ++site_counts.detected;
            ++layout_counts.detected;
            ++kinds[std::string(kind_name(rec.kind))];
            const uint32_t bucket = std::min<uint32_t>(
                telemetry::Histogram::bucket_of(rec.latency),
                static_cast<uint32_t>(report.latency_buckets.size()) - 1);
            ++report.latency_buckets[bucket];
            ++report.latency_count;
            report.latency_sum += rec.latency;
            report.latency_max = std::max(report.latency_max, rec.latency);
          } else if (emu.halted() || hijack_escaped) {
            if (hijack_escaped) rec.note += " (gadget chain executed)";
            const bool clean = !hijack_escaped && emu.output() == ref.output;
            rec.outcome =
                clean ? TrialOutcome::kBenign : TrialOutcome::kSilent;
            if (clean) {
              ++report.total.benign;
              ++site_counts.benign;
              ++layout_counts.benign;
            } else {
              ++report.total.silent;
              ++site_counts.silent;
              ++layout_counts.silent;
            }
          } else {
            // Budget exhausted without halt or trap — the kernel's
            // watchdog kill (§IV-B containment).
            rec.outcome = TrialOutcome::kHung;
            rec.kind = FaultKind::kWatchdog;
            ++report.total.hung;
            ++site_counts.hung;
            ++layout_counts.hung;
          }
          if (config.keep_trials) report.trials.push_back(rec);
        }
      }
    }
  }
  for (const auto& [k, v] : kinds) report.by_kind.emplace_back(k, v);

  if (registry != nullptr) {
    const telemetry::Scope scope = registry->root().scope("fault");
    for (const auto& [sname, count] : applied_by_site) {
      const uint64_t n = count;
      scope.counter_fn("injected." + sname, [n] { return n; });
    }
    const OutcomeCounts t = report.total;
    scope.counter_fn("trials", [t] { return t.trials; });
    scope.counter_fn("detected", [t] { return t.detected; });
    scope.counter_fn("silent", [t] { return t.silent; });
    scope.counter_fn("benign", [t] { return t.benign; });
    scope.counter_fn("hung", [t] { return t.hung; });
    telemetry::Histogram* hist = scope.histogram("detect_latency");
    if (hist != nullptr) {
      for (const TrialRecord& rec : report.trials) {
        if (rec.outcome == TrialOutcome::kDetected) hist->record(rec.latency);
      }
    }
  }
  return report;
}

std::string CampaignReport::to_json() const {
  JsonWriter w;
  constexpr JsonWriter::Style kPretty = JsonWriter::Style::kPretty;
  w.begin_object(kPretty);

  w.key("config").begin_object();
  w.key("workloads").begin_array();
  for (const auto& n : config.workloads) w.value(n);
  w.end_array();
  w.key("scale").value(static_cast<uint64_t>(config.scale));
  w.key("layouts").begin_array();
  for (const binary::Layout l : config.layouts) {
    w.value(std::string(layout_name(l)));
  }
  w.end_array();
  w.key("sites").begin_array();
  for (const FaultSite s : config.sites) w.value(std::string(site_name(s)));
  w.end_array();
  w.key("trials").value(static_cast<uint64_t>(config.trials));
  w.key("seed").value(config.seed);
  w.key("max_instructions").value(config.max_instructions);
  w.end_object();

  w.key("total");
  counts_json(w, total);

  w.key("by_layout").begin_object(kPretty);
  for (const auto& [name, counts] : by_layout) {
    w.key(name);
    counts_json(w, counts);
  }
  w.end_object();

  w.key("by_site").begin_object(kPretty);
  for (const auto& [name, counts] : by_site) {
    w.key(name);
    counts_json(w, counts);
  }
  w.end_object();

  w.key("by_kind").begin_object();
  for (const auto& [name, count] : by_kind) w.key(name).value(count);
  w.end_object();

  w.key("detect_latency").begin_object();
  w.key("count").value(latency_count);
  w.key("sum").value(latency_sum);
  w.key("max").value(latency_max);
  w.key("mean").raw_value(json_double(
      latency_count == 0 ? 0.0
                         : static_cast<double>(latency_sum) /
                               static_cast<double>(latency_count)));
  w.key("buckets").begin_array();
  for (const uint64_t b : latency_buckets) w.value(b);
  w.end_array();
  w.end_object();

  w.key("skipped").begin_array();
  for (const auto& s : skipped) w.value(s);
  w.end_array();

  w.key("trials").begin_array(kPretty);
  for (const auto& t : trials) {
    w.begin_object();
    w.key("workload").value(t.workload);
    w.key("layout").value(t.layout);
    w.key("site").value(std::string(site_name(t.site)));
    w.key("trial").value(static_cast<uint64_t>(t.trial));
    w.key("at").value(t.injected_at);
    w.key("applied").value(t.applied);
    w.key("outcome").value(std::string(outcome_name(t.outcome)));
    w.key("kind").value(std::string(kind_name(t.kind)));
    w.key("latency").value(t.latency);
    w.key("note").value(t.note);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.str() + "\n";
}

std::string CampaignReport::summary() const {
  std::ostringstream o;
  o << "faultcamp: " << total.trials << " trials, " << total.applied
    << " applied; detected " << total.detected << " (rate "
    << json_double(total.detection_rate()) << "), silent " << total.silent
    << " (rate " << json_double(total.silent_rate()) << "), benign "
    << total.benign << ", hung " << total.hung << "\n";
  for (const auto& [name, c] : by_layout) {
    o << "  " << name << ": detection " << json_double(c.detection_rate())
      << ", silent " << json_double(c.silent_rate()) << ", containment "
      << json_double(c.containment_rate()) << " (" << c.applied
      << " applied)\n";
  }
  if (latency_count != 0) {
    o << "  detect latency: mean "
      << json_double(static_cast<double>(latency_sum) /
                     static_cast<double>(latency_count))
      << " instr, max " << latency_max << " (" << latency_count
      << " samples)\n";
  }
  return o.str();
}

}  // namespace vcfr::fault
