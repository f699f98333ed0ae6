// Cross-commit pin for whole simulated runs: what the controllers capture
// from the job queue and what they dispatch, cycle after cycle.
//
// The golden traces replay recorded optimizer inputs, so they cannot see a
// change that moves what a run captures or dispatches. Each fingerprint here
// folds one whole run; the expected values were printed by the commit that
// introduced this test. A change that keeps every decision bit-identical
// reproduces them.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "batch/arrival_process.h"
#include "batch/job_factory.h"
#include "common/rng.h"
#include "core/apc_controller.h"
#include "obs/trace_export.h"
#include "sim/simulation.h"
#include "svc/controller_service.h"
#include "svc/event_adapters.h"
#include "web/workload_generator.h"
#include "workload/scenario.h"

namespace mwp {
namespace {

/// FNV-1a 64.
class Fnv1a {
 public:
  void Bytes(std::string_view bytes) {
    for (const char c : bytes) Byte(static_cast<unsigned char>(c));
  }
  void Word(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) Byte((v >> (8 * byte)) & 0xFFU);
  }
  void Double(double v) { Word(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  void Byte(std::uint64_t b) {
    h_ ^= b;
    h_ *= 0x100000001B3ULL;
  }
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

struct StormRun {
  std::uint64_t fingerprint = 0;
  std::size_t cycles = 0;
  std::uint64_t quick_dispatches = 0;
  std::uint64_t repairs = 0;
  std::size_t completed = 0;
  int crashed_jobs = 0;
};

/// A storm-shaped ControllerService sim run (examples/event_storm at test
/// scale): 10 nodes, one tx app whose load shifts, 3,000 jobs of 15 s at
/// 2/s through quick dispatch, one fault/restore episode and periodic
/// ticks, traced in full. Hashes every cycle's trace record — optimizer
/// input, decision and summary, with the wall-clock solver times masked —
/// and every job's completion-time bits and crash count.
StormRun RunStorm() {
  constexpr int kNodes = 10;
  constexpr int kJobs = 3'000;
  constexpr Seconds kInterarrival = 0.5;
  constexpr Seconds kCycle = 120.0;
  const Seconds horizon = kJobs * kInterarrival + 4.0 * kCycle;

  ClusterSpec cluster = ClusterSpec::Uniform(
      kNodes, NodeSpec{/*num_cpus=*/4, /*cpu_speed_mhz=*/3'000.0,
                       /*memory_mb=*/8'192.0});
  JobQueue queue;
  Simulation sim;
  obs::TraceRecorder recorder;
  ApcController::Config cfg;
  cfg.control_cycle = kCycle;
  cfg.optimizer.search_threads = 1;
  cfg.trace = &recorder;
  cfg.trace_run_id = "storm";
  cfg.trace_full = true;
  ApcController controller(&cluster, &queue, cfg);

  TransactionalAppSpec tx;
  tx.id = 100'000;
  tx.name = "storefront";
  tx.memory_per_instance = 1'024.0;
  tx.response_time_goal = 0.5;
  tx.demand_per_request = 250.0;
  tx.min_response_time = 0.05;
  tx.saturation_allocation = 9'000.0;
  tx.max_instances = kNodes;
  auto rate = std::make_shared<SinusoidalRate>(
      /*base=*/20.0, /*amplitude=*/15.0, /*period=*/horizon / 2.0);
  controller.AddTransactionalApp(tx, rate);

  ControllerService service(&controller, ControllerService::Config{});

  IdenticalJobFactory factory(
      JobProfile::SingleStage(/*work=*/45'000.0, /*max_speed=*/3'000.0,
                              /*memory=*/2'048.0),
      /*relative_goal_factor=*/4.0);
  PoissonArrivalProcess arrivals(Rng(42), kInterarrival);
  for (int i = 0; i < kJobs; ++i) {
    sim.ScheduleAt(arrivals.NextArrival(),
                   [&queue, &factory, &service](Simulation& s) {
                     Job& job = queue.Submit(factory.Create(s.now()));
                     PublishJobArrival(service, s, job.id());
                   });
  }
  constexpr NodeId kVictim = 1;
  sim.ScheduleAt(0.4 * horizon, [&cluster, &service](Simulation& s) {
    cluster.SetNodeOffline(kVictim);
    PublishNodeFault(service, s, kVictim);
  });
  sim.ScheduleAt(0.5 * horizon, [&cluster, &service](Simulation& s) {
    cluster.SetNodeOnline(kVictim);
    PublishNodeRestore(service, s, kVictim);
  });
  AttachServiceTimer(service, sim, /*first=*/0.0, kCycle);
  WatchTxLoadShift(service, sim, rate, /*tx_index=*/0,
                   /*sample_period=*/kCycle / 4.0, /*shift_fraction=*/0.25);

  sim.RunUntil(horizon);
  controller.AdvanceJobsTo(sim.now());

  std::vector<obs::CycleTrace> traces = recorder.Traces();
  for (obs::CycleTrace& t : traces) {
    t.solver_seconds = 0.0;
    for (Seconds& s : t.cell_solver_seconds) s = 0.0;
  }
  std::ostringstream jsonl;
  obs::WriteTraceJsonl(jsonl, obs::TraceContext{}, traces);
  Fnv1a h;
  h.Bytes(jsonl.str());
  StormRun run;
  for (const Job* job : std::as_const(queue).All()) {
    h.Word(static_cast<std::uint64_t>(job->id()));
    h.Double(job->completion_time().value_or(-1.0));
    h.Word(static_cast<std::uint64_t>(job->crash_count()));
    run.crashed_jobs += job->crash_count() > 0;
  }
  run.fingerprint = h.value();
  run.cycles = traces.size();
  run.quick_dispatches = service.counters().quick_dispatches;
  run.repairs = service.counters().repairs;
  run.completed = queue.num_completed();
  return run;
}

/// Folds one scenario run: the end-state placement fingerprint, the
/// batch_share series and every completed job's RP.
void HashScenario(const workload::ScenarioResult& r, Fnv1a& h) {
  h.Bytes(r.placement_fingerprint);
  h.Word(r.batch_share.count());
  h.Double(r.batch_share.sum());
  h.Double(r.batch_share.mean());
  h.Double(r.batch_share.variance());
  h.Double(r.batch_share.min());
  h.Double(r.batch_share.max());
  h.Word(r.jobs_completed);
  for (const double rp : r.job_rp.values()) h.Double(rp);
}

/// RunScenario on the 12-node Alibaba preset, folded by HashScenario.
std::uint64_t ScenarioFingerprint(workload::ScenarioMode mode) {
  const workload::ScenarioResult r =
      workload::RunScenario(workload::AlibabaScenarioSpec(12, 42), mode);
  EXPECT_GT(r.jobs_completed, 200u) << workload::ToString(mode);
  Fnv1a h;
  HashScenario(r, h);
  return h.value();
}

TEST(ControllerRunFingerprintTest, StormServiceRunDecidesAsRecorded) {
  const StormRun run = RunStorm();
  std::printf(
      "storm: fingerprint=0x%016llx cycles=%zu quick=%llu repairs=%llu "
      "completed=%zu crashed_jobs=%d\n",
      static_cast<unsigned long long>(run.fingerprint), run.cycles,
      static_cast<unsigned long long>(run.quick_dispatches),
      static_cast<unsigned long long>(run.repairs), run.completed,
      run.crashed_jobs);
  EXPECT_EQ(run.fingerprint, 0xe034713399f1ae5dULL);
  // The run exercises every path the pin is for.
  EXPECT_EQ(run.cycles, 38u);
  EXPECT_EQ(run.quick_dispatches, 3'000u);
  EXPECT_EQ(run.repairs, 1u);
  EXPECT_EQ(run.completed, 3'000u);
  EXPECT_EQ(run.crashed_jobs, 4);
}

TEST(ControllerRunFingerprintTest, AlibabaStaticAndEdfRunsDecideAsRecorded) {
  const std::uint64_t stat =
      ScenarioFingerprint(workload::ScenarioMode::kStaticPartition);
  const std::uint64_t edf = ScenarioFingerprint(workload::ScenarioMode::kEdf);
  std::printf("alibaba-12: static=0x%016llx edf=0x%016llx\n",
              static_cast<unsigned long long>(stat),
              static_cast<unsigned long long>(edf));
  EXPECT_EQ(stat, 0xa6e825bed1c1d647ULL);
  EXPECT_EQ(edf, 0x7267a7081c24789eULL);
}

TEST(ControllerRunFingerprintTest, AlibabaApcShardedRunDecidesAsRecorded) {
  // The APC on the sharded path (four 25-node cells) at 100 nodes, with
  // arrival and completion dispatch between its cycles. Folds HashScenario
  // plus every tx response-time sample and the SLA count.
  workload::ScenarioSpec spec = workload::AlibabaScenarioSpec(100, 42);
  spec.shard_cell_size = 25;
  const workload::ScenarioResult r =
      workload::RunScenario(spec, workload::ScenarioMode::kApc);
  Fnv1a h;
  HashScenario(r, h);
  h.Word(r.tx_response_times.count());
  for (const double rt : r.tx_response_times.values()) h.Double(rt);
  h.Word(static_cast<std::uint64_t>(r.tx_sla_violations));
  std::printf(
      "alibaba-100 apc: fingerprint=0x%016llx completed=%zu/%zu "
      "tx_samples=%d sla_violations=%d\n",
      static_cast<unsigned long long>(h.value()), r.jobs_completed,
      r.jobs_submitted, r.tx_samples, r.tx_sla_violations);
  EXPECT_EQ(h.value(), 0xddfc32b20b2f64fcULL);
}

}  // namespace
}  // namespace mwp
