// perfbench: one workload of the end-to-end benchmark, timed from outside.
//
//   perfbench --workload exp1-paper|alibaba-500|storm --seed N --seconds S
//             --trace 0|1 [--smoke] [--inject none|infeasible|trace-byte]
//             [--out-dir DIR]
//
// A run is a fixed ensemble of instances of the workload: instance 0 at the
// given seed, the others at seeds derived from it (InstanceSeed), their
// number fixed by --seconds and the workload's nominal instance time. The
// run sets instance 0 up several times (set-up time is the median), runs
// every instance untraced (--trace 0) or traced with spans and probe calls
// (--trace 1, after one untraced run of instance 0 for the tracing
// overhead), and pools their samples. Prints a readable report — per
// instance its seed, deterministic counts, host noise context and checks,
// then every metric with its unit and sample count — and, as the last line,
// one JSON object: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. Exits 1 when a check fails and 3 when a search ran on more than
// one lane (no result line then).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "drivers.h"
#include "measure.h"
#include "report.h"

namespace perfbench {
namespace {

using Factory = std::unique_ptr<WorkloadInstance> (*)(const DriverOptions&,
                                                      mwp::obs::TraceRecorder*);

struct WorkloadDef {
  const char* name;
  Factory make;
  int setup_reps;  ///< set-ups per run; the median is reported
  /// Nominal seconds of one instance on one lane; sizes the ensemble.
  double instance_s;
  CycleClass cycles;
};

constexpr WorkloadDef kWorkloads[] = {
    {"exp1-paper", &MakeExp1, 101, 4.0, CycleClass::kSearch},
    {"alibaba-500", &MakeAlibaba, 21, 2.0, CycleClass::kSearch},
    {"storm", &MakeStorm, 41, 3.5, CycleClass::kFull},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  bool smoke = false;
  Inject inject = Inject::kNone;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args& args, std::string& error) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      args.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--inject") {
      if (value == "infeasible") {
        args.inject = Inject::kInfeasible;
      } else if (value == "trace-byte") {
        args.inject = Inject::kTraceByte;
      } else if (value != "none") {
        error = "unknown --inject " + value;
        return false;
      }
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      error = "unknown flag " + flag;
      return false;
    }
  }
  if (args.workload.empty() || !have_seed || args.seconds < 1 ||
      args.trace < 0) {
    error = "need --workload, --seed, --seconds >= 1 and --trace 0|1";
    return false;
  }
  return true;
}

/// Sets the workload up `reps` times, recording each set-up's time, and
/// keeps the last instance.
std::unique_ptr<WorkloadInstance> SetUp(const WorkloadDef& def,
                                        const DriverOptions& options,
                                        int reps, SetupTimes& times) {
  std::unique_ptr<WorkloadInstance> instance;
  for (int i = 0; i < reps; ++i) {
    instance.reset();
    const Clock::time_point start = Clock::now();
    instance = def.make(options, nullptr);
    times.setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    times.generate_s.push_back(instance->generate_s());
  }
  return instance;
}

/// The timed section: Run on both clocks, minus the benchmark's own work
/// inside it; then Finish.
RunRecord Execute(WorkloadInstance& instance, Tracer& tracer) {
  RunRecord record;
  const double excluded_wall = tracer.excluded_wall_s();
  const double excluded_cpu = tracer.excluded_cpu_s();
  const double steal0 = HostStealSeconds();
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  instance.Run(tracer, record);
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  const double cpu = ProcessCpuSeconds() - cpu0;
  record.steal_s = HostStealSeconds() - steal0;
  record.wall_s = wall - (tracer.excluded_wall_s() - excluded_wall);
  record.cpu_s = cpu - (tracer.excluded_cpu_s() - excluded_cpu);
  instance.Finish(tracer, record);
  return record;
}

/// One instance's seed, deterministic counts and host noise context.
std::string Describe(const RunRecord& run, std::uint64_t seed,
                     const HostContext& host) {
  std::size_t search = 0;
  long long evaluations = 0;
  int cross_cell = 0;
  std::vector<double> search_ms;
  for (const CycleSample& c : run.cycles) {
    search += c.search ? 1 : 0;
    evaluations += c.evaluations;
    cross_cell += c.cross_cell_migrations;
    if (c.search) search_ms.push_back(c.latency_s * 1e3);
  }
  std::vector<double> dispatch_us;
  for (const DispatchSample& d : run.dispatches) {
    dispatch_us.push_back(d.seconds * 1e6);
  }
  std::ostringstream os;
  os << "seed " << seed << ": " << run.cycles.size() << " cycles (" << search
     << " search, " << run.cycles.size() - search << " shortcut), "
     << evaluations << " evaluations, " << run.dispatches.size()
     << " dispatches, " << cross_cell << " cross-cell migrations, tx "
     << run.outcomes.tx_missed << "/" << run.outcomes.tx_samples
     << " above goal; search cycle p50 "
     << FormatNumber(Quantile(search_ms, 0.5)) << " ms, dispatch p50 "
     << FormatNumber(Quantile(dispatch_us, 0.5)) << " us; wall "
     << FormatNumber(run.wall_s) << " s, cpu "
     << FormatNumber(run.cpu_s) << " s, host steal "
     << FormatNumber(run.steal_s) << " s, load " << host.loadavg_1m
     << ", nproc " << host.nproc << ", lanes " << run.search_lanes << "/"
     << run.cell_lanes << ", build " << host.build_type;
  return os.str();
}

std::string NoiseJson(const RunRecord& run, std::uint64_t seed, bool traced,
                      const HostContext& host) {
  std::ostringstream os;
  os << "{\"seed\": " << seed << ", \"traced\": " << (traced ? "true" : "false")
     << ", \"wall_s\": " << FormatNumber(run.wall_s)
     << ", \"cpu_s\": " << FormatNumber(run.cpu_s)
     << ", \"steal_s\": " << FormatNumber(run.steal_s)
     << ", \"loadavg_1m\": " << FormatNumber(host.loadavg_1m)
     << ", \"nproc\": " << host.nproc
     << ", \"search_lanes\": " << run.search_lanes
     << ", \"cell_lanes\": " << run.cell_lanes << ", \"build_type\": \""
     << host.build_type << "\"}";
  return os.str();
}

void PrintMetrics(std::ostream& os, const char* title,
                  const std::vector<Metric>& metrics) {
  os << title << '\n';
  for (const Metric& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-28s %20s %-6s n=%zu\n",
                  m.name.c_str(), FormatNumber(m.value).c_str(), m.unit.c_str(),
                  m.samples);
    os << line;
  }
}

struct InstanceRun {
  std::uint64_t seed = 0;
  bool traced = false;
  RunRecord record;
};

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, args, error)) {
    std::cerr << "perfbench: " << error << '\n';
    return 2;
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (args.workload == w.name) def = &w;
  }
  if (def == nullptr) {
    std::cerr << "perfbench: unknown workload " << args.workload << '\n';
    return 2;
  }
  const int instances =
      args.smoke ? 1
                 : std::max(1, static_cast<int>(std::lround(
                                   args.seconds / def->instance_s)));
  auto options_for = [&](int k) {
    DriverOptions options;
    options.seed = InstanceSeed(args.seed, k);
    options.smoke = args.smoke;
    options.inject = args.inject;
    options.run_id = args.workload + "-s" + std::to_string(options.seed);
    return options;
  };

  // Instance 0: set up several times, then run untraced. With --trace 1
  // this run is only the baseline of the tracing overhead.
  SetupTimes setup;
  std::vector<InstanceRun> runs;
  {
    std::unique_ptr<WorkloadInstance> instance =
        SetUp(*def, options_for(0), args.smoke ? 3 : def->setup_reps, setup);
    Tracer tracer(/*record_spans=*/false);
    runs.push_back({args.seed, false, Execute(*instance, tracer)});
  }
  Tracer tracer(/*record_spans=*/args.trace == 1);
  std::size_t first_instance_spans = 0;  // written to the run record
  for (int k = args.trace == 1 ? 0 : 1; k < instances; ++k) {
    const DriverOptions options = options_for(k);
    const std::unique_ptr<WorkloadInstance> instance =
        def->make(options, nullptr);
    runs.push_back({options.seed, args.trace == 1, Execute(*instance, tracer)});
    if (k == 0) first_instance_spans = tracer.span_count();
  }
  const HostContext host = ReadHostContext();
  for (const InstanceRun& run : runs) {
    if (run.record.search_lanes != kLanes || run.record.cell_lanes > kLanes) {
      std::cerr << "perfbench: rejected run: search lanes "
                << run.record.search_lanes << ", cell lanes "
                << run.record.cell_lanes << " (must be " << kLanes << ")\n";
      return 3;
    }
  }

  std::cout << "perfbench " << args.workload << " seed " << args.seed << ", "
            << instances << " instance(s)" << (args.smoke ? " (smoke)" : "")
            << '\n';
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  RunRecord pooled;
  for (const InstanceRun& run : runs) {
    std::cout << (run.traced ? "traced " : "untraced ")
              << Describe(run.record, run.seed, host) << '\n';
    for (const Check& c : RunChecks(args.workload, run.record)) {
      correct = correct && c.ok;
      std::cout << "  " << (c.ok ? "ok   " : "FAIL ") << c.name << ": "
                << c.detail << '\n';
    }
    attempted += Attempted(run.record);
    failed += Failed(run.record);
    if (run.traced == (args.trace == 1)) Accumulate(pooled, run.record);
  }
  const std::vector<Metric> metrics =
      args.trace == 1
          ? PerLayerMetrics(setup, pooled, instances,
                            runs[1].record.wall_s - runs[0].record.wall_s)
          : EndToEndMetrics(setup, pooled, def->cycles);
  PrintMetrics(std::cout,
               args.trace == 1 ? "per-layer metrics (traced ensemble)"
                               : "end-to-end metrics (untraced ensemble)",
               metrics);
  if (args.trace == 1) {
    std::cout << "spans: count, total s, self s\n";
    for (const auto& [name, t] : tracer.Totals()) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-20s %8zu %14s %14s\n", name.c_str(),
                    t.count, FormatNumber(t.total_s).c_str(),
                    FormatNumber(t.self_s).c_str());
      std::cout << line;
    }
  }

  const std::string result = ResultJson(correct, attempted, failed, metrics);
  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + args.workload + "-s" +
                             std::to_string(args.seed) + "-t" +
                             std::to_string(args.trace);
    std::ofstream record(stem + ".json");
    record << "{\"workload\": \"" << args.workload << "\", \"seed\": "
           << args.seed << ", \"instances\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      record << (i > 0 ? ", " : "")
             << NoiseJson(runs[i].record, runs[i].seed, runs[i].traced, host);
    }
    record << "], \"result\": " << result << "}\n";
    if (args.trace == 1) {
      // Instance 0's spans only: storm records ~100k spans per instance.
      std::ofstream spans(stem + ".spans.jsonl");
      tracer.WriteJsonl(spans, first_instance_spans);
    }
  }
  std::cout << result << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
