// storm: the event-driven ControllerService in sim mode, scaled up from
// examples/event_storm. Job arrivals ride quick dispatch, node faults take
// the repair path, and ticks, restores and tx load shifts run full cycles.
// The driver publishes and pumps each event itself (the library's event
// adapters do the same without a timer), then exports the run's full trace,
// parses it back and replays every cycle — the CI replay gate.
#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "batch/arrival_process.h"
#include "batch/job_factory.h"
#include "common/rng.h"
#include "drivers.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "replay/replay.h"
#include "replay/trace_reader.h"
#include "svc/controller_service.h"
#include "svc/event_adapters.h"
#include "web/workload_generator.h"

namespace perfbench {

namespace {

using mwp::ControlEvent;
using mwp::ControlEventKind;

struct StormSpec {
  int nodes = 25;
  int jobs = 20'000;
  mwp::Seconds interarrival = 0.5;  ///< 2 arrivals per second
  mwp::Seconds cycle = 120.0;
  mwp::Seconds horizon = 0.0;
  std::uint64_t seed = 42;
};

StormSpec StormBenchSpec(const DriverOptions& options) {
  StormSpec spec;
  if (options.smoke) {
    spec.nodes = 10;
    spec.jobs = 400;
  }
  spec.seed = options.seed;
  // Long enough for every arrival to land (far past the mean span).
  spec.horizon = spec.jobs * spec.interarrival * 1.05 + 6.0 * spec.cycle;
  return spec;
}

class StormInstance : public WorkloadInstance {
 public:
  StormInstance(const DriverOptions& options, mwp::obs::TraceRecorder* trace,
                bool library_adapters)
      : spec_(StormBenchSpec(options)),
        options_(options),
        cluster_(mwp::ClusterSpec::Uniform(
            spec_.nodes, mwp::NodeSpec{/*num_cpus=*/4, /*cpu_speed_mhz=*/3000.0,
                                       /*memory_mb=*/8192.0})),
        trace_(trace != nullptr ? trace : &own_trace_) {
    const Clock::time_point start = Clock::now();
    mwp::PoissonArrivalProcess arrivals(mwp::Rng(spec_.seed),
                                        spec_.interarrival);
    for (int i = 0; i < spec_.jobs; ++i) {
      const mwp::Seconds t = arrivals.NextArrival();
      if (t > spec_.horizon) break;
      arrival_times_.push_back(t);
    }
    generate_s_ = std::chrono::duration<double>(Clock::now() - start).count();

    config_ = OneLaneConfig();
    config_.control_cycle = spec_.cycle;
    config_.metrics = &metrics_;
    config_.trace = trace_;
    config_.trace_run_id = options.run_id;
    config_.trace_full = true;
    controller_.emplace(&cluster_, &queue_, config_);

    // The example's storefront: its load swings past the shift watcher's
    // threshold several times over the horizon.
    mwp::TransactionalAppSpec tx;
    tx.id = 100'000;
    tx.name = "storefront";
    tx.memory_per_instance = 1024.0;
    tx.response_time_goal = 0.5;
    tx.demand_per_request = 250.0;
    tx.min_response_time = 0.05;
    tx.saturation_allocation = 9000.0;
    tx.max_instances = spec_.nodes;
    rate_ = std::make_shared<mwp::SinusoidalRate>(
        /*base=*/20.0, /*amplitude=*/15.0, /*period=*/spec_.horizon / 2.0);
    controller_->AddTransactionalApp(tx, rate_);

    mwp::ControllerService::Config service_config;
    service_config.metrics = &metrics_;
    service_.emplace(&*controller_, service_config);

    // Jobs are small (30 s at full speed) so arrivals dominate.
    factory_ = std::make_unique<mwp::IdenticalJobFactory>(
        mwp::JobProfile::SingleStage(/*work=*/90'000.0, /*max_speed=*/3000.0,
                                     /*memory=*/2048.0),
        /*relative_goal_factor=*/4.0);

    if (library_adapters) {
      ScheduleWithAdapters();
    } else {
      ScheduleTimed();
    }
  }

  double generate_s() const override { return generate_s_; }

  void Run(Tracer& tracer, RunRecord& record) override {
    tracer_ = &tracer;
    record_ = &record;
    RecordLanes(config_, cluster_, record);
    sim_.RunUntil(spec_.horizon);
    controller_->AdvanceJobsTo(sim_.now());
  }

  /// Outcomes, service counters, cycle counters and feasibility of every
  /// recorded decision, then the timed export → parse → replay.
  void Finish(Tracer& tracer, RunRecord& record) override {
    RecordOutcomes(queue_, *controller_, record);
    ServiceTotals& svc = record.service;
    const mwp::ControllerService::Counters& c = service_->counters();
    svc.pushed = service_->inbox().pushed();
    svc.shed = service_->inbox().dropped();
    svc.batches = c.batches;
    svc.quick = c.quick_dispatches;
    svc.repairs = c.repairs;
    svc.full_cycles = c.full_cycles;
    svc.deduped = c.deduped;

    const std::vector<mwp::obs::CycleTrace> traces = trace_->Traces();
    for (std::size_t i = 0; i < record.cycles.size(); ++i) {
      const mwp::obs::CycleTrace& t = traces.at(cycle_trace_index_[i]);
      CycleSample& sample = record.cycles[i];
      sample.search = !t.shortcut;
      sample.evaluations = t.evaluations;
      sample.cache_hits = t.cache_hits;
      sample.cache_misses = t.cache_misses;
      sample.distribute_calls = t.distribute_calls;
    }
    CheckDecisions(traces, record);
    ReplayTrace(tracer, traces, record.replay);
  }

 private:
  /// Publish + Pump of one event, timed from outside.
  double PublishAndPump(const ControlEvent& event, std::uint64_t group) {
    ++record_->service.published;
    return tracer_->Time("svc.publish", group,
                         [&] { service_->Publish(event); }) +
           tracer_->Time("svc.pump", group, [&] { service_->Pump(sim_); });
  }

  ControlEvent Event(ControlEventKind kind) const {
    ControlEvent e;
    e.kind = kind;
    e.time = sim_.now();
    return e;
  }

  /// A tick, restore or load shift: a full cycle (a search or a shortcut).
  void TimedFullCycle(const ControlEvent& event) {
    const std::uint64_t group = tracer_->NewGroup();
    const std::size_t cycles_before = controller_->cycles().size();
    double seconds = 0.0;
    tracer_->Time("cycle", group,
                  [&] { seconds = PublishAndPump(event, group); });
    if (controller_->cycles().size() > cycles_before) {
      CycleSample sample;
      sample.latency_s = seconds;
      record_->cycles.push_back(sample);
      cycle_trace_index_.push_back(controller_->cycles().size() - 1);
    }
  }

  void ScheduleTimed() {
    for (const mwp::Seconds t : arrival_times_) {
      sim_.ScheduleAt(t, [this](mwp::Simulation& s) {
        mwp::Job& job = queue_.Submit(factory_->Create(s.now()));
        const std::uint64_t group = tracer_->NewGroup();
        DispatchSample sample;
        sample.history_jobs = queue_.size();
        ControlEvent e = Event(ControlEventKind::kJobArrival);
        e.job = job.id();
        std::size_t awaiting = 0;
        tracer_->Time("arrival", group, [&] {
          if (tracer_->recording()) {
            tracer_->Exclude("bench.count", group, [&] {
              awaiting = queue_.AwaitingPlacement().size();
            });
          }
          sample.seconds = PublishAndPump(e, group);
          if (tracer_->recording()) {
            tracer_->Exclude("bench.count", group, [&] {
              sample.placed = static_cast<int>(
                  awaiting - queue_.AwaitingPlacement().size());
            });
          }
        });
        record_->dispatches.push_back(sample);
      });
    }
    for (int episode = 0; episode < 2; ++episode) {
      const mwp::NodeId victim = static_cast<mwp::NodeId>(episode + 1);
      const mwp::Seconds down = spec_.horizon * (0.25 + 0.35 * episode);
      sim_.ScheduleAt(down, [this, victim](mwp::Simulation&) {
        cluster_.SetNodeOffline(victim);
        ControlEvent e = Event(ControlEventKind::kNodeFault);
        e.node = victim;
        const std::uint64_t group = tracer_->NewGroup();
        tracer_->Time("fault", group, [&] {
          record_->repair_s.push_back(PublishAndPump(e, group));
        });
      });
      sim_.ScheduleAt(down + spec_.horizon * 0.1,
                      [this, victim](mwp::Simulation&) {
                        cluster_.SetNodeOnline(victim);
                        ControlEvent e = Event(ControlEventKind::kNodeRestore);
                        e.node = victim;
                        TimedFullCycle(e);
                      });
    }
    sim_.SchedulePeriodic(0.0, spec_.cycle, [this](mwp::Simulation&) {
      TimedFullCycle(Event(ControlEventKind::kTimerTick));
    });
    // WatchTxLoadShift's rule: publish when the rate moved more than the
    // threshold since the last shift.
    last_rate_ = rate_->RateAt(0.0);
    sim_.SchedulePeriodic(0.0, spec_.cycle / 4.0, [this](mwp::Simulation& s) {
      const double r = rate_->RateAt(s.now());
      if (std::abs(r - last_rate_) / std::max(last_rate_, 1e-9) <=
          kShiftFraction) {
        return;
      }
      last_rate_ = r;
      ControlEvent e = Event(ControlEventKind::kTxLoadShift);
      e.tx_index = 0;
      e.arrival_rate = r;
      TimedFullCycle(e);
    });
  }

  /// The same world driven through the library's event adapters, untimed:
  /// the reference the equivalence test holds the timed drive against.
  void ScheduleWithAdapters() {
    mwp::ControllerService& service = *service_;
    for (const mwp::Seconds t : arrival_times_) {
      sim_.ScheduleAt(t, [this, &service](mwp::Simulation& s) {
        mwp::Job& job = queue_.Submit(factory_->Create(s.now()));
        mwp::PublishJobArrival(service, s, job.id());
      });
    }
    for (int episode = 0; episode < 2; ++episode) {
      const mwp::NodeId victim = static_cast<mwp::NodeId>(episode + 1);
      const mwp::Seconds down = spec_.horizon * (0.25 + 0.35 * episode);
      sim_.ScheduleAt(down, [this, &service, victim](mwp::Simulation& s) {
        cluster_.SetNodeOffline(victim);
        mwp::PublishNodeFault(service, s, victim);
      });
      sim_.ScheduleAt(down + spec_.horizon * 0.1,
                      [this, &service, victim](mwp::Simulation& s) {
                        cluster_.SetNodeOnline(victim);
                        mwp::PublishNodeRestore(service, s, victim);
                      });
    }
    mwp::AttachServiceTimer(service, sim_, /*first=*/0.0, spec_.cycle);
    mwp::WatchTxLoadShift(service, sim_, rate_, /*tx_index=*/0,
                          /*sample_period=*/spec_.cycle / 4.0, kShiftFraction);
  }

  /// Every recorded decision must be feasible for its recorded input. With
  /// Inject::kInfeasible the first cycle with a job sees it placed twice.
  void CheckDecisions(const std::vector<mwp::obs::CycleTrace>& traces,
                      RunRecord& record) const {
    for (const mwp::obs::CycleTrace& t : traces) {
      if (!t.input.has_value() || !t.decision.has_value()) continue;
      const mwp::replay::ReconstructedCycle cycle(*t.input);
      const mwp::PlacementSnapshot& snapshot = cycle.snapshot();
      mwp::PlacementMatrix p(snapshot.num_entities(), snapshot.num_nodes());
      for (const mwp::obs::TracePlacementCell& cell : t.decision->placement) {
        p.at(cell.entity, cell.node) = cell.count;
      }
      if (options_.inject == Inject::kInfeasible &&
          record.infeasible_cycles == 0 && snapshot.num_jobs() > 0) {
        p.at(0, 0) += 1;
        p.at(0, 1) += 1;
      }
      ++record.cycles_checked;
      if (!snapshot.IsFeasible(p)) ++record.infeasible_cycles;
    }
  }

  /// Export, parse back and replay; then check parse → write reproduces the
  /// export byte for byte (not timed). With Inject::kTraceByte one byte of
  /// the export is flipped between writing and parsing.
  void ReplayTrace(Tracer& tracer, const std::vector<mwp::obs::CycleTrace>& traces,
                   ReplayTotals& out) const {
    out.runs = 1;
    const std::uint64_t group = tracer.NewGroup();
    const mwp::obs::TraceContext context = mwp::obs::MakeTraceContext(
        "storm", spec_.seed, spec_.cycle, options_.run_id);
    std::string exported;
    out.export_s = tracer.Time("obs.export", group, [&] {
      std::ostringstream os;
      mwp::obs::WriteTraceJsonl(os, context, traces);
      exported = os.str();
    });
    out.trace_bytes = exported.size();
    std::string text = exported;
    if (options_.inject == Inject::kTraceByte && !text.empty()) {
      char& byte = text[text.size() / 2];
      byte = (byte >= '0' && byte <= '8') ? static_cast<char>(byte + 1)
                                          : static_cast<char>(byte ^ 0x01);
    }
    std::optional<mwp::replay::ParsedTrace> parsed;
    out.parse_s = tracer.Time("replay.parse", group, [&] {
      parsed = mwp::replay::ParseTraceJsonl(text, &out.error);
    });
    out.parsed = parsed.has_value();
    if (!parsed) return;
    mwp::replay::ReplayOptions replay_options;
    replay_options.search_threads = kLanes;
    mwp::replay::ReplayReport report;
    out.resolve_s = tracer.Time("replay.resolve", group, [&] {
      report = mwp::replay::ReplayTrace(*parsed, replay_options);
    });
    out.cycles = report.replayed_cycles;
    out.regressed = report.regressed_cycles;
    std::ostringstream rewritten;
    mwp::obs::WriteTraceJsonl(rewritten, parsed->context, parsed->cycles);
    out.rewrite_identical = rewritten.str() == exported;
  }

  static constexpr double kShiftFraction = 0.25;

  StormSpec spec_;
  DriverOptions options_;
  mwp::ClusterSpec cluster_;
  mwp::obs::TraceRecorder own_trace_;
  mwp::obs::TraceRecorder* trace_;
  mwp::obs::MetricsRegistry metrics_;
  std::vector<mwp::Seconds> arrival_times_;
  double generate_s_ = 0.0;
  mwp::JobQueue queue_;
  mwp::Simulation sim_;
  mwp::ApcController::Config config_;
  std::optional<mwp::ApcController> controller_;
  std::shared_ptr<mwp::SinusoidalRate> rate_;
  std::optional<mwp::ControllerService> service_;
  std::unique_ptr<mwp::JobFactory> factory_;
  double last_rate_ = 0.0;
  /// Index into the controller's cycles of each recorded cycle sample.
  std::vector<std::size_t> cycle_trace_index_;
  Tracer* tracer_ = nullptr;
  RunRecord* record_ = nullptr;
};

}  // namespace

std::unique_ptr<WorkloadInstance> MakeStorm(const DriverOptions& options,
                                            mwp::obs::TraceRecorder* trace) {
  return std::make_unique<StormInstance>(options, trace, false);
}

std::unique_ptr<WorkloadInstance> MakeStormReference(
    const DriverOptions& options, mwp::obs::TraceRecorder* trace) {
  return std::make_unique<StormInstance>(options, trace, true);
}

}  // namespace perfbench
