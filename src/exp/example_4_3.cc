#include "exp/example_4_3.h"

#include "batch/job.h"
#include "batch/job_queue.h"
#include "cluster/cluster.h"
#include "common/check.h"
#include "sim/simulation.h"

namespace mwp {

Example43Result RunExample43(const Example43Config& config) {
  MWP_CHECK(config.scenario == 1 || config.scenario == 2);

  const ClusterSpec cluster = ClusterSpec::Uniform(
      1, NodeSpec{/*num_cpus=*/1, /*cpu_speed_mhz=*/1000.0,
                  /*memory_mb=*/2000.0});

  JobQueue queue;
  Simulation sim;

  // Table 1. Relative goals are measured from each job's start (submission)
  // time; J2's factor is 4 in S1 and 3 in S2.
  struct Spec {
    Seconds start;
    Megacycles work;
    MHz max_speed;
    double factor;
  };
  const double j2_factor = config.scenario == 1 ? 4.0 : 3.0;
  const std::vector<Spec> specs = {
      {0.0, 4000.0, 1000.0, 5.0},
      {1.0, 2000.0, 500.0, j2_factor},
      {2.0, 4000.0, 500.0, 1.0},
  };

  ApcController::Config cfg;
  cfg.control_cycle = 1.0;
  cfg.costs = VmCostModel::Free();  // the example's arithmetic ignores costs
  cfg.record_job_details = true;
  ApcController controller(&cluster, &queue, cfg);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Spec& s = specs[i];
    sim.ScheduleAt(s.start, [&queue, s, i](Simulation&) {
      JobProfile profile =
          JobProfile::SingleStage(s.work, s.max_speed, /*memory=*/750.0);
      queue.Submit(std::make_unique<Job>(
          static_cast<AppId>(i + 1),
          std::string("J").append(std::to_string(i + 1)), profile,
          JobGoal::FromFactor(s.start, s.factor,
                              profile.min_execution_time())));
    });
  }

  controller.Attach(sim, /*first_cycle=*/0.0);
  sim.RunUntil(static_cast<Seconds>(config.cycles));
  controller.AdvanceJobsTo(sim.now());

  Example43Result result;
  result.cycles = controller.cycles();
  result.outcomes = CollectOutcomes(queue);
  return result;
}

}  // namespace mwp
