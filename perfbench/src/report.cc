#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <sstream>

namespace perfbench {
namespace {

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::vector<double> SearchLatencies(const RunRecord& run) {
  std::vector<double> out;
  for (const CycleSample& c : run.cycles) {
    if (c.search) out.push_back(c.latency_s);
  }
  return out;
}

template <class T>
void Append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

std::vector<double> DispatchSeconds(const RunRecord& run) {
  std::vector<double> out;
  out.reserve(run.dispatches.size());
  for (const DispatchSample& d : run.dispatches) out.push_back(d.seconds);
  return out;
}

/// Seconds spent in timed calls into the library.
double TimedCallSeconds(const RunRecord& run) {
  double total = Sum(run.repair_s);
  for (const CycleSample& c : run.cycles) total += c.latency_s;
  for (const DispatchSample& d : run.dispatches) total += d.seconds;
  return total;
}

double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Accumulate(RunRecord& total, const RunRecord& run) {
  total.wall_s += run.wall_s;
  total.cpu_s += run.cpu_s;
  total.steal_s += run.steal_s;
  Append(total.cycles, run.cycles);
  Append(total.dispatches, run.dispatches);
  Append(total.repair_s, run.repair_s);
  total.cycles_checked += run.cycles_checked;
  total.infeasible_cycles += run.infeasible_cycles;
  Outcomes& o = total.outcomes;
  o.submitted += run.outcomes.submitted;
  o.completed += run.outcomes.completed;
  o.goal_missed += run.outcomes.goal_missed;
  o.rp_sum += run.outcomes.rp_sum;
  o.tx_samples += run.outcomes.tx_samples;
  o.tx_missed += run.outcomes.tx_missed;
  o.disruptive += run.outcomes.disruptive;
  o.peak_avg_rp = std::max(o.peak_avg_rp, run.outcomes.peak_avg_rp);
  ServiceTotals& s = total.service;
  s.published += run.service.published;
  s.pushed += run.service.pushed;
  s.shed += run.service.shed;
  s.batches += run.service.batches;
  s.quick += run.service.quick;
  s.repairs += run.service.repairs;
  s.full_cycles += run.service.full_cycles;
  s.deduped += run.service.deduped;
  ReplayTotals& r = total.replay;
  r.runs += run.replay.runs;
  r.export_s += run.replay.export_s;
  r.parse_s += run.replay.parse_s;
  r.resolve_s += run.replay.resolve_s;
  r.trace_bytes += run.replay.trace_bytes;
  r.cycles += run.replay.cycles;
  r.regressed += run.replay.regressed;
  ProbeTotals& p = total.probes;
  p.distribute_timed += run.probes.distribute_timed;
  p.distribute_s += run.probes.distribute_s;
  p.flow_probes += run.probes.flow_probes;
  Append(p.evaluate_cold_s, run.probes.evaluate_cold_s);
  Append(p.evaluate_warm_s, run.probes.evaluate_warm_s);
  total.search_lanes = std::max(total.search_lanes, run.search_lanes);
  total.cell_lanes = std::max(total.cell_lanes, run.cell_lanes);
}

std::vector<Metric> EndToEndMetrics(const SetupTimes& setup,
                                    const RunRecord& run, CycleClass which) {
  // Per cycle, latency per candidate scored; the median keeps the rare
  // backlog cycle that scores 10^4 candidates from outweighing the rest.
  std::vector<double> per_eval;
  for (const CycleSample& c : run.cycles) {
    if ((c.search || which == CycleClass::kFull) && c.evaluations > 0) {
      per_eval.push_back(c.latency_s / c.evaluations);
    }
  }
  const std::vector<double> dispatch = DispatchSeconds(run);
  return {
      {"setup_s", "s", Quantile(setup.setup_s, 0.5), setup.setup_s.size()},
      {"cycle_us_per_eval", "us", Quantile(per_eval, 0.5) * 1e6,
       per_eval.size()},
      {"dispatch_us_p50", "us", Quantile(dispatch, 0.5) * 1e6, dispatch.size()},
  };
}

std::vector<Metric> PerLayerMetrics(const SetupTimes& setup,
                                    const RunRecord& run, int instances,
                                    double trace_overhead_s) {
  double capture = 0.0, solve = 0.0, commit = 0.0;
  double search_solve = 0.0, cell_solve = 0.0, sharded_solve = 0.0;
  std::uint64_t evaluations = 0, search_evaluations = 0;
  std::uint64_t hits = 0, misses = 0, distribute = 0, search_distribute = 0;
  std::size_t phased = 0, shortcuts = 0, searches = 0;
  int cross_cell = 0;
  std::vector<double> imbalance;
  std::vector<double> pumped;  // storm's full cycles: Publish + Pump time
  for (const CycleSample& c : run.cycles) {
    if (c.phased) {
      ++phased;
      capture += c.capture_s;
      solve += c.solve_s;
      commit += c.commit_s;
    } else {
      pumped.push_back(c.latency_s);
    }
    evaluations += static_cast<std::uint64_t>(c.evaluations);
    hits += c.cache_hits;
    misses += c.cache_misses;
    distribute += c.distribute_calls;
    if (c.search) {
      ++searches;
      search_solve += c.solve_s;
      search_evaluations += static_cast<std::uint64_t>(c.evaluations);
      search_distribute += c.distribute_calls;
    } else {
      ++shortcuts;
    }
    cross_cell += c.cross_cell_migrations;
    if (!c.cell_solve_s.empty()) {
      const double cells = Sum(c.cell_solve_s);
      cell_solve += cells;
      sharded_solve += c.solve_s;
      const double mean = cells / static_cast<double>(c.cell_solve_s.size());
      if (mean > 0.0) {
        imbalance.push_back(
            *std::max_element(c.cell_solve_s.begin(), c.cell_solve_s.end()) /
            mean);
      }
    }
  }
  const std::size_t n_cycles = run.cycles.size();
  const ProbeTotals& p = run.probes;
  const double distribute_us =
      Ratio(p.distribute_s, static_cast<double>(p.distribute_timed)) * 1e6;

  double history = 0.0, dispatch_s = 0.0, placed = 0.0;
  std::size_t counted = 0;
  for (const DispatchSample& d : run.dispatches) {
    history += static_cast<double>(d.history_jobs);
    dispatch_s += d.seconds;
    if (d.placed >= 0) {
      placed += d.placed;
      ++counted;
    }
  }
  const std::size_t n_dispatch = run.dispatches.size();
  const ServiceTotals& svc = run.service;
  const ReplayTotals& r = run.replay;
  const Outcomes& o = run.outcomes;
  const std::vector<double> search = SearchLatencies(run);
  // p90 needs at least ten samples beyond it.
  const bool p90_valid = search.size() >= 100;

  std::vector<Metric> m;
  m.push_back({"workload.generate_s", "s", Quantile(setup.generate_s, 0.5),
               setup.generate_s.size()});
  m.push_back({"core.cycles", "count", static_cast<double>(n_cycles), n_cycles});
  m.push_back({"core.capture_s", "s", capture, phased});
  m.push_back({"core.solve_s", "s", solve, phased});
  m.push_back({"core.commit_s", "s", commit, phased});
  m.push_back({"core.us_per_evaluation", "us",
               Ratio(search_solve, static_cast<double>(search_evaluations)) *
                   1e6,
               phased > 0 ? search_evaluations : 0});
  m.push_back({"core.evaluations", "count", static_cast<double>(evaluations),
               n_cycles});
  m.push_back({"core.shortcut_cycles", "count", static_cast<double>(shortcuts),
               n_cycles});
  m.push_back({"core.cache_hits", "count", static_cast<double>(hits), n_cycles});
  m.push_back({"core.cache_misses", "count", static_cast<double>(misses),
               n_cycles});
  m.push_back({"core.cache_hit_ratio", "ratio",
               Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
               hits + misses});
  m.push_back({"core.distribute_calls", "count", static_cast<double>(distribute),
               n_cycles});
  m.push_back({"core.distribute_us", "us", distribute_us, p.distribute_timed});
  m.push_back({"core.flow_probes_per_call", "count",
               Ratio(static_cast<double>(p.flow_probes),
                     static_cast<double>(p.distribute_timed)),
               p.distribute_timed});
  m.push_back({"core.distribute_share", "ratio",
               phased > 0 ? Ratio(static_cast<double>(search_distribute) *
                                      distribute_us * 1e-6,
                                  search_solve)
                          : 0.0,
               phased > 0 ? searches : 0});
  m.push_back({"core.evaluate_us_cold", "us",
               p.evaluate_cold_s.empty()
                   ? 0.0
                   : Quantile(p.evaluate_cold_s, 0.5) * 1e6,
               p.evaluate_cold_s.size()});
  m.push_back({"core.evaluate_us_warm", "us",
               p.evaluate_warm_s.empty()
                   ? 0.0
                   : Quantile(p.evaluate_warm_s, 0.5) * 1e6,
               p.evaluate_warm_s.size()});
  m.push_back({"core.cell_solve_s", "s", cell_solve, imbalance.size()});
  m.push_back({"core.shard_overhead_s", "s",
               imbalance.empty() ? 0.0 : sharded_solve - cell_solve,
               imbalance.size()});
  m.push_back({"core.cell_imbalance", "ratio",
               imbalance.empty() ? 0.0 : Quantile(imbalance, 0.5),
               imbalance.size()});
  m.push_back({"core.cross_cell_migrations", "count",
               static_cast<double>(cross_cell), imbalance.size()});
  m.push_back({"core.cycle_ms_p50", "ms",
               search.empty() ? 0.0 : Quantile(search, 0.5) * 1e3,
               search.size()});
  m.push_back({"core.cycle_ms_p90", "ms",
               p90_valid ? Quantile(search, 0.9) * 1e3 : 0.0,
               p90_valid ? search.size() : 0});
  m.push_back({"core.tx_sla_miss", "ratio", Ratio(o.tx_missed, o.tx_samples),
               static_cast<std::size_t>(o.tx_samples)});
  m.push_back({"core.job_goal_miss", "ratio",
               Ratio(static_cast<double>(o.goal_missed),
                     static_cast<double>(o.completed)),
               o.completed});
  m.push_back({"core.job_rp_mean", "RP",
               Ratio(o.rp_sum, static_cast<double>(o.completed)), o.completed});
  m.push_back({"core.dispatches", "count", static_cast<double>(n_dispatch),
               n_dispatch});
  const std::vector<double> dispatch = DispatchSeconds(run);
  // p99 needs at least ten samples beyond it.
  const bool p99_valid = dispatch.size() >= 1000;
  m.push_back({"core.dispatch_us_p99", "us",
               p99_valid ? Quantile(dispatch, 0.99) * 1e6 : 0.0,
               p99_valid ? dispatch.size() : 0});
  m.push_back({"core.dispatch_history_jobs", "count",
               Ratio(history, static_cast<double>(n_dispatch)), n_dispatch});
  m.push_back({"core.dispatch_ns_per_job", "ns",
               Ratio(dispatch_s, history) * 1e9, n_dispatch});
  m.push_back({"core.dispatch_placed", "count",
               Ratio(placed, static_cast<double>(counted)), counted});
  m.push_back({"svc.events", "count", static_cast<double>(svc.published),
               svc.published});
  m.push_back({"svc.shed", "count", static_cast<double>(svc.shed),
               svc.published});
  m.push_back({"svc.quick", "count", static_cast<double>(svc.quick),
               svc.batches});
  m.push_back({"svc.repairs", "count", static_cast<double>(svc.repairs),
               svc.batches});
  m.push_back({"svc.full_cycles", "count", static_cast<double>(svc.full_cycles),
               svc.batches});
  m.push_back({"svc.deduped", "count", static_cast<double>(svc.deduped),
               svc.batches});
  m.push_back({"svc.full_cycle_ms_p50", "ms",
               pumped.empty() ? 0.0 : Quantile(pumped, 0.5) * 1e3,
               pumped.size()});
  m.push_back({"obs.trace_mb", "MB", static_cast<double>(r.trace_bytes) * 1e-6,
               static_cast<std::size_t>(r.runs)});
  m.push_back({"obs.export_s", "s", r.export_s, static_cast<std::size_t>(r.runs)});
  m.push_back({"replay.parse_s", "s", r.parse_s, static_cast<std::size_t>(r.runs)});
  m.push_back({"replay.resolve_s", "s", r.resolve_s,
               static_cast<std::size_t>(r.cycles)});
  m.push_back({"replay.cycles", "count", static_cast<double>(r.cycles),
               static_cast<std::size_t>(r.runs)});
  m.push_back({"replay.regressed_cycles", "count",
               static_cast<double>(r.regressed), static_cast<std::size_t>(r.cycles)});
  m.push_back({"replay.total_s", "s", r.export_s + r.parse_s + r.resolve_s,
               static_cast<std::size_t>(r.cycles)});
  m.push_back({"sim.other_s", "s", run.wall_s - TimedCallSeconds(run),
               static_cast<std::size_t>(instances)});
  m.push_back({"bench.wall_s", "s", run.wall_s,
               static_cast<std::size_t>(instances)});
  m.push_back({"bench.cpu_s", "s", run.cpu_s,
               static_cast<std::size_t>(instances)});
  m.push_back({"bench.instances", "count", static_cast<double>(instances),
               static_cast<std::size_t>(instances)});
  m.push_back({"bench.trace_overhead_s", "s", trace_overhead_s, 2});
  return m;
}

std::vector<Check> RunChecks(const std::string& workload, const RunRecord& run) {
  std::vector<Check> checks;
  auto add = [&](std::string name, bool ok, std::string detail) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  };
  std::ostringstream feasible;
  feasible << run.infeasible_cycles << " of " << run.cycles_checked
           << " committed placements infeasible";
  add("feasible_placements", run.cycles_checked > 0 && run.infeasible_cycles == 0,
      feasible.str());
  add("one_lane", run.search_lanes == kLanes && run.cell_lanes <= kLanes,
      "search lanes " + std::to_string(run.search_lanes) + ", cell lanes " +
          std::to_string(run.cell_lanes));
  const Outcomes& o = run.outcomes;
  if (workload == "exp1-paper") {
    add("all_jobs_complete",
        o.completed == o.submitted && o.submitted == run.dispatches.size(),
        std::to_string(o.completed) + "/" + std::to_string(o.submitted));
    add("no_disruptive_changes", o.disruptive == 0,
        std::to_string(o.disruptive) + " suspends+resumes+migrations");
    add("peak_hypothetical_rp", std::abs(o.peak_avg_rp - 0.63) <= 0.005,
        "peak average hypothetical RP " + FormatNumber(o.peak_avg_rp) +
            " (0.63 +/- 0.005)");
  } else if (workload == "alibaba-500") {
    std::ostringstream hash;
    hash << "WorkloadHash 0x" << std::hex << run.workload_hash;
    add("workload_hash", run.workload_hash != 0, hash.str());
    add("tx_sampled", o.tx_samples > 0,
        std::to_string(o.tx_missed) + "/" + std::to_string(o.tx_samples) +
            " tx samples above goal");
  } else if (workload == "storm") {
    const ServiceTotals& s = run.service;
    add("published_accounted", s.published == s.pushed + s.shed,
        std::to_string(s.published) + " published, " + std::to_string(s.pushed) +
            " pushed, " + std::to_string(s.shed) + " shed");
    add("batches_accounted", s.quick + s.repairs + s.full_cycles == s.batches,
        std::to_string(s.quick) + " quick + " + std::to_string(s.repairs) +
            " repair + " + std::to_string(s.full_cycles) + " full vs " +
            std::to_string(s.batches) + " batches");
    const ReplayTotals& r = run.replay;
    add("trace_parses", r.parsed, r.parsed ? "ok" : r.error);
    add("replay_zero_diffs", r.parsed && r.regressed == 0 && r.cycles > 0,
        std::to_string(r.regressed) + " of " + std::to_string(r.cycles) +
            " replayed cycles regressed");
    add("trace_rewrite_identical", r.rewrite_identical,
        "parse -> write reproduces the export byte for byte");
  }
  return checks;
}

std::size_t Attempted(const RunRecord& run) {
  return run.cycles.size() + run.dispatches.size() + run.repair_s.size();
}

std::size_t Failed(const RunRecord& run) {
  std::size_t failed = static_cast<std::size_t>(run.infeasible_cycles) +
                       static_cast<std::size_t>(run.replay.regressed) +
                       run.service.shed;
  if (run.replay.runs > 0 && !run.replay.parsed) failed += run.cycles.size();
  return failed;
}

std::string FormatNumber(double value) {
  char buf[32];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string ResultJson(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i > 0 ? ", " : "") << '"' << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? FormatNumber(m.value) : "null")
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
