#include "tests/obs/trace_wire_corpus.h"

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/rng.h"

namespace mwp::obs {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// A double in [lo, hi), or now and then NaN, +inf, -inf or -0 (which the
/// JSONL writer spells null, null, null and -0).
double Num(Rng& rng, double lo, double hi) {
  const double roll = rng.Uniform01();
  if (roll < 0.02) return kNaN;
  if (roll < 0.03) return kInf;
  if (roll < 0.04) return -kInf;
  if (roll < 0.05) return -0.0;
  return rng.Uniform(lo, hi);
}

/// An int in [lo, hi], or now and then the type's extremes.
int Int(Rng& rng, int lo, int hi) {
  const double roll = rng.Uniform01();
  if (roll < 0.02) return std::numeric_limits<int>::max();
  if (roll < 0.04) return std::numeric_limits<int>::min();
  return static_cast<int>(rng.UniformInt(lo, hi));
}

/// A full-width 64-bit value, or now and then 0 or the maximum.
std::uint64_t Word(Rng& rng) {
  const double roll = rng.Uniform01();
  if (roll < 0.1) return 0;
  if (roll < 0.2) return std::numeric_limits<std::uint64_t>::max();
  return rng.engine()();
}

/// A string that is empty, plain, or carries one of the writer's escapes.
std::string Text(Rng& rng, const std::string& stem) {
  switch (rng.UniformInt(0, 5)) {
    case 0:
      return "";
    case 1:
      return stem + "\"quoted\"";
    case 2:
      return stem + "\\back\\slash\\";
    case 3:
      return stem + "\nnew\nline";
    case 4:
      return "\t" + stem + "\ttab";
    default:
      return stem + std::to_string(rng.UniformInt(0, 99));
  }
}

std::vector<double> Nums(Rng& rng, int max_len, double lo, double hi) {
  std::vector<double> v(static_cast<std::size_t>(rng.UniformInt(0, max_len)));
  for (double& x : v) x = Num(rng, lo, hi);
  return v;
}

std::vector<NodeId> Nodes(Rng& rng, int max_len) {
  std::vector<NodeId> v(static_cast<std::size_t>(rng.UniformInt(0, max_len)));
  for (NodeId& n : v) n = Int(rng, -1, 8);
  return v;
}

CycleInputRecord RandomInput(Rng& rng) {
  CycleInputRecord in;
  in.now = Num(rng, 0.0, 1e6);
  in.control_cycle = Num(rng, 1.0, 1000.0);
  const int num_nodes = static_cast<int>(rng.UniformInt(0, 3));
  for (int n = 0; n < num_nodes; ++n) {
    in.nodes.push_back({Int(rng, 1, 8), Num(rng, 500.0, 4000.0),
                        Num(rng, 1024.0, 16384.0), Int(rng, 0, 2),
                        Num(rng, 0.1, 1.0)});
  }
  const int num_jobs = static_cast<int>(rng.UniformInt(0, 3));
  for (int j = 0; j < num_jobs; ++j) {
    TraceJobInput job;
    job.id = Int(rng, -1, 100);
    job.submit_time = Num(rng, 0.0, 1e5);
    job.desired_start = Num(rng, 0.0, 1e5);
    job.completion_goal = Num(rng, 0.0, 1e6);
    job.work_done = Num(rng, 0.0, 1e6);
    job.status = Int(rng, 0, 4);
    job.current_node = Int(rng, -1, num_nodes);
    job.overhead_until = Num(rng, 0.0, 100.0);
    job.place_overhead = Num(rng, 0.0, 100.0);
    job.migrate_overhead = Num(rng, 0.0, 100.0);
    job.memory = Num(rng, 128.0, 8192.0);
    job.max_speed = Num(rng, 100.0, 4000.0);
    job.min_speed = Num(rng, 0.0, 100.0);
    const int num_stages = static_cast<int>(rng.UniformInt(0, 3));
    for (int s = 0; s < num_stages; ++s) {
      job.stages.push_back({Num(rng, 1.0, 1e6), Num(rng, 100.0, 4000.0),
                            Num(rng, 0.0, 100.0), Num(rng, 128.0, 8192.0)});
    }
    in.jobs.push_back(std::move(job));
  }
  const int num_tx = static_cast<int>(rng.UniformInt(0, 2));
  for (int t = 0; t < num_tx; ++t) {
    TraceTxInput tx;
    tx.id = Int(rng, 101, 200);
    tx.name = Text(rng, "tx");
    tx.memory = Num(rng, 128.0, 4096.0);
    tx.response_time_goal = Num(rng, 0.01, 2.0);
    tx.demand_per_request = Num(rng, 0.1, 20.0);
    tx.min_response_time = Num(rng, 0.001, 0.01);
    tx.saturation = Num(rng, 0.1, 1.0);
    tx.max_instances = Int(rng, 0, 5);
    tx.arrival_rate = Num(rng, 0.0, 2000.0);
    tx.current_nodes = Nodes(rng, 3);
    in.tx_apps.push_back(std::move(tx));
  }
  TraceSolverOptions& o = in.options;
  o.max_sweeps = Int(rng, 0, 4);
  o.max_changes_per_node = Int(rng, 0, 16);
  o.max_wishes_tried = Int(rng, 0, 16);
  o.max_migrations_tried = Int(rng, 0, 6);
  o.max_evaluations = Int(rng, 0, 1000);
  o.tie_tolerance = Num(rng, 0.0, 0.1);
  o.grid = Nums(rng, 3, 0.0, 1.0);
  o.level_tolerance = Num(rng, 1e-6, 1e-3);
  o.probe_delta = Num(rng, 1e-4, 1e-2);
  o.bisection_iters = Int(rng, 0, 64);
  o.batch_aggregate = rng.Uniform01() < 0.5;
  if (rng.Uniform01() < 0.5) {
    o.cell_size = Int(rng, 1, 50);
    o.partition_seed = Word(rng);
    o.max_cross_cell_moves = Int(rng, 0, 16);
  }
  if (rng.Uniform01() < 0.5) {
    o.objective = Int(rng, 1, 2);
    o.karma_weight = Num(rng, 0.0, 1.0);
    o.karma_cap = Num(rng, 0.0, 16.0);
    o.karma_earn_rate = Num(rng, 0.0, 2.0);
    o.pf_epsilon = Num(rng, 1e-9, 1e-3);
  }
  const int num_pins = static_cast<int>(rng.UniformInt(0, 2));
  for (int p = 0; p < num_pins; ++p) {
    in.pins.push_back({Int(rng, -1, 200), Nodes(rng, 3)});
  }
  const int num_separations = static_cast<int>(rng.UniformInt(0, 2));
  for (int s = 0; s < num_separations; ++s) {
    in.separations.emplace_back(Int(rng, -1, 100), Int(rng, 101, 200));
  }
  if (rng.Uniform01() < 0.5) {
    in.fairness_credits = Nums(rng, 4, 0.0, 8.0);
  }
  return in;
}

CycleDecisionRecord RandomDecision(Rng& rng) {
  CycleDecisionRecord d;
  const int cells = static_cast<int>(rng.UniformInt(0, 4));
  for (int c = 0; c < cells; ++c) {
    d.placement.push_back({Int(rng, 0, 5), Int(rng, 0, 3), Int(rng, 1, 3)});
  }
  d.allocations = Nums(rng, 4, 0.0, 1e4);
  return d;
}

CycleTrace RandomCycle(Rng& rng, int cycle) {
  CycleTrace t;
  t.run_id = Text(rng, "run");
  t.cycle = cycle;
  t.time = Num(rng, 0.0, 1e6);
  t.rp_before = Nums(rng, 4, -2.0, 2.0);
  t.rp_after = Nums(rng, 4, -2.0, 2.0);
  t.avg_job_rp = Num(rng, 0.0, 1.0);
  t.min_job_rp = Num(rng, 0.0, 1.0);
  t.num_jobs = Int(rng, 0, 50);
  t.running_jobs = Int(rng, 0, 50);
  t.queued_jobs = Int(rng, 0, 50);
  t.suspended_jobs = Int(rng, 0, 50);
  t.batch_allocation = Num(rng, 0.0, 1e5);
  t.tx_allocation = Num(rng, 0.0, 1e5);
  t.cluster_utilization = Num(rng, 0.0, 1.0);
  t.starts = Int(rng, 0, 10);
  t.stops = Int(rng, 0, 10);
  t.suspends = Int(rng, 0, 10);
  t.resumes = Int(rng, 0, 10);
  t.migrations = Int(rng, 0, 10);
  t.failed_operations = Int(rng, 0, 3);
  t.evaluations = Int(rng, 0, 1000);
  t.shortcut = rng.Uniform01() < 0.3;
  t.solver_seconds = Num(rng, 0.0, 10.0);
  t.cache_hits = Word(rng);
  t.cache_misses = Word(rng);
  t.distribute_calls = Word(rng);
  if (rng.Uniform01() < 0.5) {
    t.num_cells = Int(rng, 1, 8);
    t.cross_cell_migrations = Int(rng, 0, 8);
    t.cell_solver_seconds = Nums(rng, 4, 0.0, 1.0);
  }
  t.trigger = Text(rng, "event");
  t.node_health = {Int(rng, 0, 10), Int(rng, 0, 10), Int(rng, 0, 10),
                   Num(rng, 0.0, 1e5), Num(rng, 0.0, 1e5)};
  t.tx_utilities = Nums(rng, 3, -1.0, 1.0);
  t.tx_allocations = Nums(rng, 3, 0.0, 1e4);
  if (rng.Uniform01() < 0.6) {
    t.input = RandomInput(rng);
    t.decision = RandomDecision(rng);
  }
  return t;
}

}  // namespace

std::vector<WireTrace> WireCorpus(int count) {
  Rng rng(20261017);
  std::vector<WireTrace> corpus;
  corpus.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    WireTrace trace;
    TraceContext& c = trace.context;
    c.experiment = Text(rng, "exp");
    c.seed = Word(rng);
    c.control_cycle = Num(rng, 1.0, 1000.0);
    c.build_type = Text(rng, "Release");
    c.git_sha = Text(rng, "cafef00d");
    c.run_id = Text(rng, "sweep");
    if (rng.Uniform01() < 0.3) {
      const int entries = static_cast<int>(rng.UniformInt(1, 4));
      for (int e = 0; e < entries; ++e) {
        // Calibration parameters are finite.
        c.scenario.emplace_back(Text(rng, "param") + std::to_string(e),
                                rng.Uniform(-1e3, 1e3));
      }
    }
    const int num_cycles = static_cast<int>(rng.UniformInt(0, 3));
    for (int k = 0; k < num_cycles; ++k) {
      trace.cycles.push_back(RandomCycle(rng, k));
    }
    corpus.push_back(std::move(trace));
  }
  return corpus;
}

}  // namespace mwp::obs
