// alibaba-500: the Alibaba-calibrated scenario (src/workload) at 500 nodes
// under the sharded APC, driven like RunScenario's APC mode with every call
// timed. The helpers below restate RunScenario's private set-up (sub-seed
// derivation, per-app diurnal phase shift, tx calibration); the driver
// equivalence test pins them to the library's.
#include <cmath>
#include <numbers>
#include <optional>

#include "common/rng.h"
#include "drivers.h"
#include "web/queuing_model.h"
#include "workload/diurnal.h"
#include "workload/scenario.h"

namespace perfbench {

namespace wl = mwp::workload;

wl::ScenarioSpec AlibabaBenchSpec(const DriverOptions& options) {
  // The preset as the library ships it, including its 3,000-submission cap
  // (reached after ~70 of the 240 simulated minutes at 500 nodes). Lifting
  // the cap lets batch storms build backlogs of hundreds of queued jobs,
  // and a single sharded cycle then scores ~10^5 candidates (minutes on one
  // lane) at some seeds; see README.md, "Defects found".
  wl::ScenarioSpec spec =
      wl::AlibabaScenarioSpec(options.smoke ? 50 : 500, options.seed);
  if (options.smoke) spec.duration = 7'200.0;
  spec.shard_cell_size = 25;
  spec.search_threads = kLanes;
  return spec;
}

namespace {

/// RunScenario draws its sub-seeds from the spec seed in a fixed order, tx
/// apps first; only theirs are needed here (GenerateWorkload derives the
/// batch seeds itself).
std::vector<std::uint64_t> TxSeeds(const wl::ScenarioSpec& spec) {
  mwp::Rng root(spec.seed);
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < spec.num_tx_apps; ++i) seeds.push_back(root.engine()());
  return seeds;
}

wl::DiurnalSpec PerAppDiurnal(const wl::ScenarioSpec& spec, int app_index) {
  wl::DiurnalSpec d = spec.tx_diurnal;
  const double shift = spec.tx_phase_stagger * app_index;
  for (wl::DiurnalHarmonic& h : d.harmonics) {
    h.phase -= 2.0 * std::numbers::pi * h.cycles_per_period * shift / d.period;
  }
  return d;
}

mwp::TransactionalAppSpec TxSpec(const wl::ScenarioSpec& spec, int app_index) {
  const mwp::MHz saturation = spec.tx_saturation_cluster_fraction *
                              spec.node.total_cpu() * spec.num_nodes /
                              spec.num_tx_apps;
  const mwp::QueuingModel model = mwp::QueuingModel::Calibrate(
      spec.tx_diurnal.base_rate(), spec.tx_response_goal, spec.tx_max_utility,
      saturation, spec.tx_stability_fraction);
  mwp::TransactionalAppSpec tx;
  tx.id = app_index + 1;
  tx.name = "tx-" + std::to_string(app_index);
  tx.memory_per_instance = spec.tx_memory_per_instance;
  tx.response_time_goal = model.params().response_time_goal;
  tx.demand_per_request = model.params().demand_per_request;
  tx.min_response_time = model.params().min_response_time;
  tx.saturation_allocation = model.params().saturation_allocation;
  tx.max_instances = 0;
  return tx;
}

class AlibabaInstance : public WorkloadInstance {
 public:
  AlibabaInstance(const DriverOptions& options, mwp::obs::TraceRecorder* trace)
      : spec_(AlibabaBenchSpec(options)),
        cluster_(mwp::ClusterSpec::Uniform(spec_.num_nodes, spec_.node)) {
    const Clock::time_point start = Clock::now();
    workload_ = wl::GenerateWorkload(spec_);
    generate_s_ = std::chrono::duration<double>(Clock::now() - start).count();
    workload_hash_ = wl::WorkloadHash(workload_);

    const std::vector<std::uint64_t> tx_seeds = TxSeeds(spec_);
    config_ = OneLaneConfig();
    config_.control_cycle = spec_.control_cycle;
    config_.costs = mwp::VmCostModel::PaperMeasured();
    config_.shard_cell_size = spec_.shard_cell_size;
    config_.trace = trace;
    config_.trace_run_id = options.run_id;
    controller_.emplace(&cluster_, &queue_, config_);
    for (int i = 0; i < spec_.num_tx_apps; ++i) {
      controller_->AddTransactionalApp(
          TxSpec(spec_, i),
          std::make_shared<wl::DiurnalRate>(
              PerAppDiurnal(spec_, i), tx_seeds[static_cast<std::size_t>(i)],
              spec_.duration));
    }
    context_.config = &config_;
    context_.inject = options.inject;

    for (const wl::ScenarioJob& job : workload_.jobs) {
      sim_.ScheduleAt(job.submit_time, [this, job](mwp::Simulation& s) {
        const mwp::JobProfile profile =
            mwp::JobProfile::SingleStage(job.work, job.max_speed, job.memory);
        queue_.Submit(std::make_unique<mwp::Job>(
            job.id, "ht-job-" + std::to_string(job.id), profile,
            mwp::JobGoal::FromFactor(job.submit_time, job.goal_factor,
                                     profile.min_execution_time())));
        TimedDispatch(*controller_, s, queue_, *tracer_, *record_);
      });
    }
    sim_.SchedulePeriodic(0.0, spec_.control_cycle, [this](mwp::Simulation& s) {
      TimedCycle(*controller_, s, context_, *tracer_, *record_);
    });
  }

  double generate_s() const override { return generate_s_; }

  void Run(Tracer& tracer, RunRecord& record) override {
    tracer_ = &tracer;
    record_ = &record;
    record.workload_hash = workload_hash_;
    RecordLanes(config_, cluster_, record);
    sim_.RunUntil(spec_.duration);
    controller_->AdvanceJobsTo(sim_.now());
  }

  void Finish(Tracer&, RunRecord& record) override {
    RecordOutcomes(queue_, *controller_, record);
  }

 private:
  wl::ScenarioSpec spec_;
  mwp::ClusterSpec cluster_;
  wl::ScenarioWorkload workload_;
  std::uint64_t workload_hash_ = 0;
  double generate_s_ = 0.0;
  mwp::JobQueue queue_;
  mwp::Simulation sim_;
  mwp::ApcController::Config config_;
  std::optional<mwp::ApcController> controller_;
  CycleContext context_;
  Tracer* tracer_ = nullptr;
  RunRecord* record_ = nullptr;
};

}  // namespace

std::unique_ptr<WorkloadInstance> MakeAlibaba(const DriverOptions& options,
                                              mwp::obs::TraceRecorder* trace) {
  return std::make_unique<AlibabaInstance>(options, trace);
}

}  // namespace perfbench
