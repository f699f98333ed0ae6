// exp1-paper: the paper's Experiment One (§5.1), driven like RunExperiment1's
// direct (non-service) path with every call timed.
#include <algorithm>
#include <optional>

#include "batch/arrival_process.h"
#include "batch/job_factory.h"
#include "common/rng.h"
#include "drivers.h"
#include "exp/experiment1.h"

namespace perfbench {
namespace {

class Exp1Instance : public WorkloadInstance {
 public:
  Exp1Instance(const DriverOptions& options, mwp::obs::TraceRecorder* trace)
      : num_jobs_(options.smoke ? 40 : 800),
        cluster_(mwp::ClusterSpec::Uniform(options.smoke ? 5 : 25,
                                           mwp::PaperNode())) {
    config_ = OneLaneConfig();
    config_.control_cycle = kControlCycle;
    config_.costs = mwp::VmCostModel::PaperMeasured();
    config_.trace = trace;
    config_.trace_run_id = options.run_id;
    controller_.emplace(&cluster_, &queue_, config_);
    context_.config = &config_;
    context_.evaluate_probe = true;
    context_.inject = options.inject;

    const Clock::time_point start = Clock::now();
    factory_ = mwp::IdenticalJobFactory::PaperExperimentOne();
    mwp::PoissonArrivalProcess arrivals(mwp::Rng(options.seed),
                                        kMeanInterarrival);
    arrival_times_.reserve(static_cast<std::size_t>(num_jobs_));
    for (int i = 0; i < num_jobs_; ++i) {
      arrival_times_.push_back(arrivals.NextArrival());
    }
    generate_s_ = std::chrono::duration<double>(Clock::now() - start).count();

    // Same events in the same order as RunExperiment1: every arrival, then
    // the periodic cycle (ApcController::Attach's schedule).
    for (const mwp::Seconds t : arrival_times_) {
      sim_.ScheduleAt(t, [this](mwp::Simulation& s) {
        queue_.Submit(factory_->Create(s.now()));
        TimedDispatch(*controller_, s, queue_, *tracer_, *record_);
      });
    }
    sim_.SchedulePeriodic(0.0, kControlCycle, [this](mwp::Simulation& s) {
      TimedCycle(*controller_, s, context_, *tracer_, *record_);
    });
  }

  double generate_s() const override { return generate_s_; }

  void Run(Tracer& tracer, RunRecord& record) override {
    tracer_ = &tracer;
    record_ = &record;
    RecordLanes(config_, cluster_, record);
    // Same horizon rule as RunExperiment1.
    const mwp::Seconds ideal =
        num_jobs_ * 17'600.0 / (cluster_.num_nodes() * 3.0);
    const mwp::Seconds horizon =
        std::max(num_jobs_ * kMeanInterarrival, ideal) * 4.0;
    while (queue_.num_completed() < static_cast<std::size_t>(num_jobs_) &&
           sim_.now() < horizon) {
      sim_.RunUntil(sim_.now() + kControlCycle);
    }
    controller_->AdvanceJobsTo(sim_.now());
  }

  void Finish(Tracer&, RunRecord& record) override {
    RecordOutcomes(queue_, *controller_, record);
  }

 private:
  static constexpr mwp::Seconds kControlCycle = 600.0;
  static constexpr mwp::Seconds kMeanInterarrival = 260.0;

  int num_jobs_;
  mwp::ClusterSpec cluster_;
  mwp::JobQueue queue_;
  mwp::Simulation sim_;
  mwp::ApcController::Config config_;
  std::optional<mwp::ApcController> controller_;
  CycleContext context_;
  std::unique_ptr<mwp::JobFactory> factory_;
  std::vector<mwp::Seconds> arrival_times_;
  double generate_s_ = 0.0;
  Tracer* tracer_ = nullptr;
  RunRecord* record_ = nullptr;
};

}  // namespace

std::unique_ptr<WorkloadInstance> MakeExp1(const DriverOptions& options,
                                           mwp::obs::TraceRecorder* trace) {
  return std::make_unique<Exp1Instance>(options, trace);
}

}  // namespace perfbench
