// Model validation: the §3.3 analytic response-time model vs a discrete
// request-level simulation.
//
// The placement controller trusts t(ω) = t_min + c/(ω − λc). This example
// sweeps server utilization and prints the analytic prediction against the
// measured mean response time of an exact processor-sharing simulation of
// individual requests — including a non-exponential request mix, where the
// PS queue's insensitivity property is what keeps the formula valid.
//
//   ./model_validation [--rate 50] [--demand 10] [--requests 60000]
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "web/queuing_model.h"
#include "web/request_simulator.h"

int main(int argc, char** argv) {
  using namespace mwp;
  const CommandLine cli(argc, argv);

  RequestSimConfig base;
  base.arrival_rate = cli.GetDouble("rate", 50.0);
  base.mean_demand = cli.GetDouble("demand", 10.0);
  base.fixed_latency = cli.GetDouble("latency", 0.05);
  base.total_requests =
      static_cast<std::size_t>(cli.GetInt("requests", 60'000));
  base.warmup_requests = base.total_requests / 10;
  base.seed = cli.GetSeed(17);
  cli.RejectUnknownFlags();

  const MHz stability = base.arrival_rate * base.mean_demand;
  std::cout << "Server model: lambda = " << base.arrival_rate
            << " req/s, mean demand = " << base.mean_demand
            << " Mc, stability boundary = " << FormatNumber(stability, 0)
            << " MHz\n\n";

  Table t({"utilization", "capacity [MHz]", "analytic t [s]",
           "simulated t [s] (Exp)", "simulated t [s] (Hyper)", "error (Exp)"});
  for (double rho : {0.2, 0.35, 0.5, 0.65, 0.8, 0.9}) {
    RequestSimConfig cfg = base;
    cfg.capacity = stability / rho;
    const double analytic =
        cfg.fixed_latency + cfg.mean_demand / (cfg.capacity - stability);

    cfg.demand_distribution = DemandDistribution::kExponential;
    const auto exp_run = SimulateRequests(cfg);
    cfg.demand_distribution = DemandDistribution::kHyperexp2;
    const auto hyper_run = SimulateRequests(cfg);

    t.AddRow({FormatNumber(rho, 2), FormatNumber(cfg.capacity, 0),
              FormatNumber(analytic, 4),
              FormatNumber(exp_run.mean_response_time, 4),
              FormatNumber(hyper_run.mean_response_time, 4),
              FormatNumber(100.0 *
                               std::abs(exp_run.mean_response_time - analytic) /
                               analytic,
                           1) +
                  "%"});
  }
  std::cout << t.ToText();
  std::cout << "\nThe processor-sharing station's mean response time depends "
               "on the demand\ndistribution only through its mean "
               "(insensitivity), so one analytic curve\nserves the placement "
               "controller for any request mix.\n";
  return 0;
}
