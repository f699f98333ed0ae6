#include "workload/scenario.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <sstream>
#include <utility>

#include "batch/job_metrics.h"
#include "batch/job_queue.h"
#include "common/check.h"
#include "core/apc_controller.h"
#include "obs/trace_export.h"
#include "sched/edf_scheduler.h"
#include "sched/static_partition.h"
#include "sim/simulation.h"
#include "web/queuing_model.h"

namespace mwp::workload {
namespace {

/// Transactional apps take ids [1, num_tx_apps]; batch jobs start here.
constexpr AppId kFirstBatchJobId = 1'000;

/// Independent sub-seeds for every stochastic source, derived in one fixed
/// order so GenerateWorkload and RunScenario sample identical streams and
/// adding a source never perturbs the others.
struct ScenarioSeeds {
  std::vector<std::uint64_t> tx;
  std::uint64_t batch_arrivals = 0;
  std::uint64_t job_shapes = 0;
};

ScenarioSeeds DeriveSeeds(const ScenarioSpec& spec) {
  Rng root(spec.seed);
  ScenarioSeeds seeds;
  seeds.tx.reserve(static_cast<std::size_t>(spec.num_tx_apps));
  for (int i = 0; i < spec.num_tx_apps; ++i) {
    seeds.tx.push_back(root.engine()());
  }
  seeds.batch_arrivals = root.engine()();
  seeds.job_shapes = root.engine()();
  return seeds;
}

/// App i's diurnal spec: the shared shape time-shifted by i·stagger (a phase
/// subtraction per harmonic, so the daily volume is untouched).
DiurnalSpec PerAppDiurnal(const ScenarioSpec& spec, int app_index) {
  DiurnalSpec d = spec.tx_diurnal;
  const double shift = spec.tx_phase_stagger * app_index;
  for (DiurnalHarmonic& h : d.harmonics) {
    h.phase -= 2.0 * std::numbers::pi * h.cycles_per_period * shift / d.period;
  }
  return d;
}

/// Sum of several rate profiles — the static partition manages one
/// aggregate transactional app, so its λ(t) is the sum over the scenario's
/// apps (equivalent total demand under a shared per-request cost).
class AggregateRate : public ArrivalRateProfile {
 public:
  explicit AggregateRate(
      std::vector<std::shared_ptr<const ArrivalRateProfile>> parts)
      : parts_(std::move(parts)) {}

  double RateAt(Seconds t) const override {
    double sum = 0.0;
    for (const auto& p : parts_) sum += p->RateAt(t);
    return sum;
  }

 private:
  std::vector<std::shared_ptr<const ArrivalRateProfile>> parts_;
};

TransactionalAppSpec CalibrateTxSpec(const ScenarioSpec& spec, AppId id,
                                     const std::string& name,
                                     double calibration_rate,
                                     MHz saturation) {
  const QueuingModel model = QueuingModel::Calibrate(
      calibration_rate, spec.tx_response_goal, spec.tx_max_utility, saturation,
      spec.tx_stability_fraction);
  TransactionalAppSpec tx;
  tx.id = id;
  tx.name = name;
  tx.memory_per_instance = spec.tx_memory_per_instance;
  tx.response_time_goal = model.params().response_time_goal;
  tx.demand_per_request = model.params().demand_per_request;
  tx.min_response_time = model.params().min_response_time;
  tx.saturation_allocation = model.params().saturation_allocation;
  tx.max_instances = 0;
  return tx;
}

MHz PerAppSaturation(const ScenarioSpec& spec) {
  const MHz total = spec.node.total_cpu() * spec.num_nodes;
  return spec.tx_saturation_cluster_fraction * total / spec.num_tx_apps;
}

std::string Fingerprint(const JobQueue& queue) {
  std::ostringstream fp;
  for (const Job* job : queue.All()) {
    fp << job->id() << ':' << static_cast<int>(job->status()) << ':'
       << (job->placed() ? job->node() : -1) << ':'
       << std::llround(job->work_done()) << ';';
  }
  return fp.str();
}

MHz BatchAllocation(JobQueue& queue) {
  MHz total = 0.0;
  for (const Job* job : queue.Placed()) total += job->allocated_speed();
  return total;
}

template <typename Integer>
void AppendInteger(std::string& out, Integer value) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  MWP_CHECK(ec == std::errc());
  out.append(buf, ptr);
}

/// Renders `workload` one line at a time into one reused buffer and hands
/// each line to `sink`; the lines concatenated are SerializeWorkload's text.
template <typename Sink>
void RenderWorkload(const ScenarioWorkload& workload, Sink&& sink) {
  std::string line;
  std::string tag;
  const auto episodes = [&](const std::vector<BurstEpisode>& list) {
    for (const BurstEpisode& e : list) {
      line.assign(tag);
      line += ' ';
      obs::AppendDouble(line, e.start);
      line += ' ';
      obs::AppendDouble(line, e.duration);
      line += '\n';
      sink(line);
    }
  };
  for (std::size_t i = 0; i < workload.tx_bursts.size(); ++i) {
    tag = "txburst ";
    AppendInteger(tag, i);
    episodes(workload.tx_bursts[i]);
  }
  tag = "batchburst";
  episodes(workload.batch_bursts);
  for (const ScenarioJob& j : workload.jobs) {
    line.clear();
    line += "job ";
    AppendInteger(line, j.id);
    for (const double v :
         {j.submit_time, j.work, j.max_speed, j.memory, j.goal_factor}) {
      line += ' ';
      obs::AppendDouble(line, v);
    }
    line += '\n';
    sink(line);
  }
}

}  // namespace

const char* ToString(ScenarioMode mode) {
  switch (mode) {
    case ScenarioMode::kApc:
      return "APC dynamic sharing";
    case ScenarioMode::kStaticPartition:
      return "static partition";
    case ScenarioMode::kEdf:
      return "EDF whole cluster";
  }
  return "?";
}

void ScenarioSpec::Validate() const {
  MWP_CHECK_MSG(num_nodes >= 2, "scenario needs at least two nodes");
  MWP_CHECK_MSG(control_cycle > 0.0 && duration > 0.0,
                "control cycle and duration must be positive");
  MWP_CHECK_MSG(num_tx_apps >= 1, "scenario needs a transactional workload");
  MWP_CHECK_MSG(max_jobs >= 0, "max_jobs must be non-negative");
  MWP_CHECK_MSG(tx_saturation_cluster_fraction > 0.0 &&
                    tx_saturation_cluster_fraction <= 1.0,
                "tx_saturation_cluster_fraction must lie in (0, 1]");
  MWP_CHECK_MSG(static_tx_nodes > 0 && static_tx_nodes < num_nodes,
                "static_tx_nodes must leave nodes on both sides");
  tx_diurnal.Validate();
  batch_arrivals.Validate();
  jobs.Validate();
}

ScenarioSpec AlibabaScenarioSpec(int num_nodes, std::uint64_t seed) {
  MWP_CHECK(num_nodes >= 2);
  // Reference calibration is a 100-node cluster; workload volume scales
  // linearly with the cluster, per-job demand does not.
  const double scale = num_nodes / 100.0;

  ScenarioSpec spec;
  spec.name = "alibaba";
  spec.num_nodes = num_nodes;
  spec.seed = seed;
  spec.duration = 14'400.0;

  // Transactional side: two services with a strong day/night fundamental,
  // secondary half-day and 8-hour harmonics, and occasional flash events —
  // the diurnal shape of the trace's online services (§17 mapping).
  spec.num_tx_apps = 2;
  spec.tx_diurnal.daily_volume = 50.0 * 86'400.0 * scale;  // λ0 = 50·s req/s
  spec.tx_diurnal.period = 86'400.0;
  spec.tx_diurnal.harmonics = {
      {1, 0.45, -std::numbers::pi / 2.0},
      {2, 0.12, std::numbers::pi / 3.0},
      {3, 0.05, 0.0},
  };
  spec.tx_diurnal.burst_rate_multiplier = 1.8;
  spec.tx_diurnal.bursts = {/*mean_gap=*/10'800.0, /*mean_duration=*/600.0,
                            /*min_duration=*/120.0, /*max_duration=*/1'800.0};
  spec.tx_phase_stagger = 21'600.0;

  // Batch side: baseline submission pressure around half the cluster's
  // capacity (so storms genuinely contend with the transactional
  // reservation), with ~6x storms lasting one to ten minutes, every hour on
  // average.
  spec.max_jobs = 3'000;
  spec.batch_arrivals.mean_interarrival = 7.0 / scale;
  spec.batch_arrivals.burst_rate_multiplier = 6.0;
  spec.batch_arrivals.bursts = {/*mean_gap=*/3'600.0, /*mean_duration=*/240.0,
                                /*min_duration=*/60.0,
                                /*max_duration=*/600.0};

  // Per-job demand: heavy-tailed work (tail index 1.7 — most jobs minutes,
  // the tail hours), lognormal memory, positive CPU:memory coupling.
  spec.jobs.work = {/*alpha=*/1.7, /*lower=*/2.4e6, /*upper=*/1.2e9};
  spec.jobs.memory = {/*log_mean=*/7.496, /*log_stddev=*/0.9};  // ~1.8 GB median
  spec.jobs.cpu_memory_correlation = 0.35;
  spec.jobs.min_memory = 256.0;
  spec.jobs.max_memory = 12'288.0;
  spec.jobs.speeds = {{1'560.0, 0.35}, {2'340.0, 0.40}, {3'900.0, 0.25}};
  spec.jobs.goal_factor_min = 1.5;
  spec.jobs.goal_factor_max = 4.0;

  // The static comparator dedicates 40% of the cluster to the online side —
  // the trace's rough online/offline machine split.
  spec.static_tx_nodes = std::max(1, num_nodes * 2 / 5);
  return spec;
}

ScenarioWorkload GenerateWorkload(const ScenarioSpec& spec) {
  spec.Validate();
  const ScenarioSeeds seeds = DeriveSeeds(spec);

  ScenarioWorkload workload;
  workload.tx_bursts.reserve(static_cast<std::size_t>(spec.num_tx_apps));
  for (int i = 0; i < spec.num_tx_apps; ++i) {
    const DiurnalRate profile(PerAppDiurnal(spec, i),
                              seeds.tx[static_cast<std::size_t>(i)],
                              spec.duration);
    workload.tx_bursts.push_back(profile.episodes());
  }

  MmppArrivalProcess arrivals(spec.batch_arrivals, seeds.batch_arrivals,
                              spec.duration);
  workload.batch_bursts = arrivals.episodes();

  HeavyTailJobSampler sampler(spec.jobs, Rng(seeds.job_shapes));
  for (int k = 0; k < spec.max_jobs; ++k) {
    const Seconds t = arrivals.NextArrival();
    if (t >= spec.duration) break;
    const SampledJob sampled = sampler.Sample();
    workload.jobs.push_back({kFirstBatchJobId + k, t, sampled.work,
                             sampled.max_speed, sampled.memory,
                             sampled.goal_factor});
  }
  return workload;
}

std::string SerializeWorkload(const ScenarioWorkload& workload) {
  std::string text;
  RenderWorkload(workload, [&text](const std::string& line) { text += line; });
  return text;
}

std::uint64_t WorkloadHash(const ScenarioWorkload& workload) {
  // FNV-1a, 64-bit, over SerializeWorkload's bytes as they are rendered.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  RenderWorkload(workload, [&hash](const std::string& line) {
    for (const char c : line) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
  });
  return hash;
}

std::vector<std::pair<std::string, double>> ScenarioCalibrationParams(
    const ScenarioSpec& spec) {
  std::vector<std::pair<std::string, double>> params;
  params.emplace_back("nodes", spec.num_nodes);
  params.emplace_back("duration", spec.duration);
  params.emplace_back("num_tx_apps", spec.num_tx_apps);
  params.emplace_back("tx_daily_volume", spec.tx_diurnal.daily_volume);
  params.emplace_back("tx_period", spec.tx_diurnal.period);
  params.emplace_back("tx_burst_multiplier",
                      spec.tx_diurnal.burst_rate_multiplier);
  params.emplace_back("tx_burst_mean_gap", spec.tx_diurnal.bursts.mean_gap);
  params.emplace_back("tx_burst_min", spec.tx_diurnal.bursts.min_duration);
  params.emplace_back("tx_burst_max", spec.tx_diurnal.bursts.max_duration);
  params.emplace_back("tx_phase_stagger", spec.tx_phase_stagger);
  params.emplace_back("tx_saturation_fraction",
                      spec.tx_saturation_cluster_fraction);
  params.emplace_back("tx_stability_fraction", spec.tx_stability_fraction);
  params.emplace_back("batch_mean_interarrival",
                      spec.batch_arrivals.mean_interarrival);
  params.emplace_back("batch_burst_multiplier",
                      spec.batch_arrivals.burst_rate_multiplier);
  params.emplace_back("batch_burst_mean_gap",
                      spec.batch_arrivals.bursts.mean_gap);
  params.emplace_back("batch_burst_min",
                      spec.batch_arrivals.bursts.min_duration);
  params.emplace_back("batch_burst_max",
                      spec.batch_arrivals.bursts.max_duration);
  params.emplace_back("work_alpha", spec.jobs.work.alpha);
  params.emplace_back("work_lower", spec.jobs.work.lower);
  params.emplace_back("work_upper", spec.jobs.work.upper);
  params.emplace_back("mem_log_mean", spec.jobs.memory.log_mean);
  params.emplace_back("mem_log_stddev", spec.jobs.memory.log_stddev);
  params.emplace_back("cpu_mem_correlation", spec.jobs.cpu_memory_correlation);
  params.emplace_back("goal_factor_min", spec.jobs.goal_factor_min);
  params.emplace_back("goal_factor_max", spec.jobs.goal_factor_max);
  params.emplace_back("max_jobs", spec.max_jobs);
  return params;
}

ScenarioResult RunScenario(const ScenarioSpec& spec, ScenarioMode mode) {
  spec.Validate();
  const ClusterSpec cluster = ClusterSpec::Uniform(spec.num_nodes, spec.node);
  const ScenarioSeeds seeds = DeriveSeeds(spec);
  const ScenarioWorkload workload = GenerateWorkload(spec);
  const MHz total_cpu = cluster.total_cpu();

  // Per-app diurnal profiles, sampled from the same sub-seeds the generator
  // used — the run consumes exactly the hashed stream.
  std::vector<std::shared_ptr<const ArrivalRateProfile>> tx_rates;
  double total_base_rate = 0.0;
  for (int i = 0; i < spec.num_tx_apps; ++i) {
    tx_rates.push_back(std::make_shared<DiurnalRate>(
        PerAppDiurnal(spec, i), seeds.tx[static_cast<std::size_t>(i)],
        spec.duration));
    total_base_rate += spec.tx_diurnal.base_rate();
  }

  JobQueue queue;
  Simulation sim;
  ScenarioResult result;
  result.workload_hash = WorkloadHash(workload);

  const VmCostModel costs = VmCostModel::PaperMeasured();
  std::unique_ptr<ApcController> apc;
  std::unique_ptr<StaticPartition> partition;
  std::unique_ptr<EdfScheduler> edf;

  switch (mode) {
    case ScenarioMode::kApc: {
      ApcController::Config cfg;
      cfg.control_cycle = spec.control_cycle;
      cfg.costs = costs;
      cfg.shard_cell_size = spec.shard_cell_size;
      cfg.optimizer.search_threads = spec.search_threads;
      cfg.trace = spec.trace;
      cfg.trace_run_id = spec.trace_run_id;
      cfg.trace_full = spec.trace_full;
      apc = std::make_unique<ApcController>(&cluster, &queue, cfg);
      for (int i = 0; i < spec.num_tx_apps; ++i) {
        apc->AddTransactionalApp(
            CalibrateTxSpec(spec, i + 1, "tx-" + std::to_string(i),
                            spec.tx_diurnal.base_rate(), PerAppSaturation(spec)),
            tx_rates[static_cast<std::size_t>(i)]);
      }
      break;
    }
    case ScenarioMode::kStaticPartition: {
      // One aggregate app over the summed rate: equivalent total demand
      // under a shared per-request cost, which is all the partition's
      // capacity-capped response model reads.
      partition = std::make_unique<StaticPartition>(
          &cluster, &queue,
          CalibrateTxSpec(spec, 1, "tx-aggregate", total_base_rate,
                          spec.tx_saturation_cluster_fraction * total_cpu),
          spec.static_tx_nodes, costs);
      break;
    }
    case ScenarioMode::kEdf: {
      BaselineScheduler::Config cfg;
      cfg.costs = costs;
      edf = std::make_unique<EdfScheduler>(&cluster, &queue, cfg);
      break;
    }
  }

  const auto aggregate_rate = std::make_shared<AggregateRate>(tx_rates);

  // Submit the materialized workload.
  std::size_t submitted = 0;
  for (const ScenarioJob& job : workload.jobs) {
    sim.ScheduleAt(job.submit_time, [&, job](Simulation& s) {
      JobProfile profile =
          JobProfile::SingleStage(job.work, job.max_speed, job.memory);
      queue.Submit(std::make_unique<Job>(
          job.id, "ht-job-" + std::to_string(job.id), profile,
          JobGoal::FromFactor(job.submit_time, job.goal_factor,
                              profile.min_execution_time())));
      ++submitted;
      if (apc != nullptr) apc->OnJobSubmitted(s);
      if (partition != nullptr) partition->OnJobSubmitted(s);
      if (edf != nullptr) edf->OnJobSubmitted(s);
    });
  }

  if (apc != nullptr) apc->Attach(sim, 0.0);

  // Non-APC modes sample the transactional side and utilization once per
  // control period (the APC's own cycles provide the same series).
  if (apc == nullptr) {
    sim.SchedulePeriodic(spec.control_cycle, spec.control_cycle,
                         [&](Simulation& s) {
                           const MHz batch = BatchAllocation(queue);
                           MHz allocated = batch;
                           if (partition != nullptr) {
                             const double rate =
                                 aggregate_rate->RateAt(s.now());
                             const Seconds rt =
                                 partition->TxResponseTime(rate);
                             result.tx_response_times.Add(rt);
                             ++result.tx_samples;
                             if (!(rt <= spec.tx_response_goal)) {
                               ++result.tx_sla_violations;
                             }
                             allocated += partition->tx_allocation();
                           }
                           result.batch_share.Add(batch / total_cpu);
                           result.cluster_utilization.Add(allocated /
                                                          total_cpu);
                         });
  }

  sim.RunUntil(spec.duration);
  if (apc != nullptr) apc->AdvanceJobsTo(sim.now());
  if (partition != nullptr) partition->AdvanceJobsTo(sim.now());
  if (edf != nullptr) edf->AdvanceJobsTo(sim.now());

  if (apc != nullptr) {
    for (const CycleStats& c : apc->cycles()) {
      for (const Seconds rt : c.tx_response_times) {
        result.tx_response_times.Add(rt);
        ++result.tx_samples;
        if (!(rt <= spec.tx_response_goal)) ++result.tx_sla_violations;
      }
      result.cluster_utilization.Add(c.cluster_utilization);
      result.batch_share.Add(c.batch_allocation / total_cpu);
      result.disruptive_changes += c.suspends + c.resumes + c.migrations;
    }
    result.placement_changes = apc->total_placement_changes();
  } else {
    const SchedulerChangeCounts& changes =
        partition != nullptr ? partition->batch_scheduler().changes()
                             : edf->changes();
    result.placement_changes = changes.starts + changes.stops +
                               changes.suspends + changes.resumes +
                               changes.migrations;
    result.disruptive_changes = changes.disruptive();
  }

  result.jobs_submitted = submitted;
  result.jobs_completed = queue.num_completed();
  for (const JobOutcomeRecord& r : CollectOutcomes(queue)) {
    result.job_rp.Add(r.achieved_utility);
  }
  result.placement_fingerprint = Fingerprint(queue);
  result.end_time = sim.now();
  return result;
}

}  // namespace mwp::workload
