// Event-storm walkthrough for the event-driven controller service (src/svc).
//
// Floods the service's inbox with every kind of control event and shows the
// classification at work: Poisson job arrivals ride the quick-dispatch fast
// path, node faults take the bounded-churn repair path, node restores and
// transactional load shifts force full event-triggered cycles, and the
// periodic timer keeps the paper's baseline cadence underneath. Prints the
// service's decision counters and the event-to-decision latency
// distribution (p50/p95/p99 from the obs histogram), and can record a
// schema-v2 trace for the replay harness:
//
//   ./event_storm [--jobs 200] [--nodes 10] [--interarrival 2]
//                 [--cycle 120] [--seed 42] [--horizon 4000]
//                 [--trace-out storm.jsonl] [--trace-full]
//                 [--run-id storm-s42]
//
// Event-triggered cycles are tagged trigger="event" in the trace; periodic
// tick cycles stay untagged, exactly like a periodic-controller recording.
#include <iostream>
#include <memory>
#include <string>

#include "batch/arrival_process.h"
#include "batch/job_factory.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/apc_controller.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "sim/simulation.h"
#include "svc/controller_service.h"
#include "svc/event_adapters.h"
#include "web/workload_generator.h"

static int Main(const mwp::CommandLine& cli) {
  using namespace mwp;
  const int num_jobs = static_cast<int>(cli.GetInt("jobs", 200));
  const int num_nodes = static_cast<int>(cli.GetInt("nodes", 10));
  const Seconds interarrival = cli.GetDouble("interarrival", 2.0);
  const Seconds cycle = cli.GetDouble("cycle", 120.0);
  const Seconds horizon = cli.GetDouble("horizon", 4000.0);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.GetInt("seed", 42));
  const std::string trace_out = cli.GetString("trace-out", "");
  const bool trace_full = cli.GetBool("trace-full", false);
  const std::string run_id =
      cli.GetString("run-id", "storm-s" + std::to_string(seed));
  cli.RejectUnknownFlags();

  ClusterSpec cluster = ClusterSpec::Uniform(
      num_nodes, NodeSpec{/*num_cpus=*/4, /*cpu_speed_mhz=*/3000.0,
                          /*memory_mb=*/8192.0});
  JobQueue queue;
  Simulation sim;
  obs::MetricsRegistry metrics;
  obs::TraceRecorder recorder;

  ApcController::Config cfg;
  cfg.control_cycle = cycle;
  cfg.metrics = &metrics;
  if (!trace_out.empty()) {
    cfg.trace = &recorder;
    cfg.trace_run_id = run_id;
    cfg.trace_full = trace_full;
  }
  ApcController controller(&cluster, &queue, cfg);

  // One transactional app whose diurnal-ish load swings past the shift
  // watcher's threshold several times over the horizon.
  TransactionalAppSpec tx;
  tx.id = 100'000;
  tx.name = "storefront";
  tx.memory_per_instance = 1024.0;
  tx.response_time_goal = 0.5;
  tx.demand_per_request = 250.0;
  tx.min_response_time = 0.05;
  tx.saturation_allocation = 9000.0;
  tx.max_instances = num_nodes;
  auto rate = std::make_shared<SinusoidalRate>(/*base=*/20.0,
                                               /*amplitude=*/15.0,
                                               /*period=*/horizon / 2.0);
  controller.AddTransactionalApp(tx, rate);

  ControllerService::Config svc_cfg;
  svc_cfg.metrics = &metrics;
  ControllerService service(&controller, svc_cfg);

  // Storm sources. Jobs are small (30 s at full speed) so arrivals dominate.
  auto factory = std::make_unique<IdenticalJobFactory>(
      JobProfile::SingleStage(/*work=*/90'000.0, /*max_speed=*/3000.0,
                              /*memory=*/2048.0),
      /*relative_goal_factor=*/4.0);
  PoissonArrivalProcess arrivals(Rng(seed), interarrival);
  for (int i = 0; i < num_jobs; ++i) {
    const Seconds t = arrivals.NextArrival();
    if (t > horizon) break;
    sim.ScheduleAt(t, [&queue, &factory, &service](Simulation& s) {
      Job& job = queue.Submit(factory->Create(s.now()));
      PublishJobArrival(service, s, job.id());
    });
  }

  // A couple of fault/restore episodes mid-storm.
  for (int episode = 0; episode < 2; ++episode) {
    const NodeId victim = static_cast<NodeId>(episode + 1);
    const Seconds down = horizon * (0.25 + 0.35 * episode);
    const Seconds up = down + horizon * 0.1;
    sim.ScheduleAt(down, [&cluster, &service, victim](Simulation& s) {
      cluster.SetNodeOffline(victim);
      PublishNodeFault(service, s, victim);
    });
    sim.ScheduleAt(up, [&cluster, &service, victim](Simulation& s) {
      cluster.SetNodeOnline(victim);
      PublishNodeRestore(service, s, victim);
    });
  }

  AttachServiceTimer(service, sim, /*first=*/0.0, cycle);
  WatchTxLoadShift(service, sim, rate, /*tx_index=*/0,
                   /*sample_period=*/cycle / 4.0, /*shift_fraction=*/0.25);

  sim.RunUntil(horizon);
  controller.AdvanceJobsTo(sim.now());

  if (!trace_out.empty()) {
    const auto traces = recorder.Traces();
    if (obs::ExportTrace(
            trace_out,
            obs::MakeTraceContext("event_storm", seed, cycle, run_id),
            traces)) {
      std::cout << "Wrote " << traces.size() << " cycle traces to "
                << trace_out << "\n\n";
    } else {
      std::cerr << "Failed to write trace to " << trace_out << '\n';
      return 1;
    }
  }

  const ControllerService::Counters& c = service.counters();
  Table summary({"service counter", "value"});
  summary.AddRow({"decision batches", std::to_string(c.batches)});
  summary.AddRow({"full cycles", std::to_string(c.full_cycles)});
  summary.AddRow({"repairs", std::to_string(c.repairs)});
  summary.AddRow({"quick dispatches", std::to_string(c.quick_dispatches)});
  summary.AddRow({"events deduplicated", std::to_string(c.deduped)});
  summary.AddRow({"events shed", std::to_string(service.inbox().dropped())});
  summary.AddRow({"jobs completed", std::to_string(queue.num_completed())});
  std::cout << summary.ToText() << '\n';

  const obs::Histogram& lat =
      metrics.histogram("svc.event_to_decision_seconds");
  Table latency({"event-to-decision latency", "seconds"});
  latency.AddRow({"p50", FormatNumber(lat.Quantile(0.50), 6)});
  latency.AddRow({"p95", FormatNumber(lat.Quantile(0.95), 6)});
  latency.AddRow({"p99", FormatNumber(lat.Quantile(0.99), 6)});
  std::cout << latency.ToText();
  std::cout << "\nArrivals ride quick dispatch; faults take the bounded "
               "repair path; restores,\nload shifts and ticks run full "
               "cycles (event cycles are tagged in the trace).\n";
  return 0;
}

int main(int argc, char** argv) { return mwp::RunMain(argc, argv, Main); }
