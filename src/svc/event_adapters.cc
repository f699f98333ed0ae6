#include "svc/event_adapters.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace mwp {

namespace {

ControlEvent MakeEvent(ControlEventKind kind, Seconds time) {
  ControlEvent e;
  e.kind = kind;
  e.time = time;
  return e;
}

}  // namespace

void AttachServiceTimer(ControllerService& service, Simulation& sim,
                        Seconds first, Seconds period) {
  MWP_CHECK(period > 0.0);
  sim.SchedulePeriodic(first, period, [&service](Simulation& s) {
    service.Publish(MakeEvent(ControlEventKind::kTimerTick, s.now()));
    service.Pump(s);
  });
}

void PublishJobArrival(ControllerService& service, Simulation& sim,
                       AppId job) {
  ControlEvent e = MakeEvent(ControlEventKind::kJobArrival, sim.now());
  e.job = job;
  service.Publish(e);
  service.Pump(sim);
}

void PublishNodeFault(ControllerService& service, Simulation& sim,
                      NodeId node) {
  ControlEvent e = MakeEvent(ControlEventKind::kNodeFault, sim.now());
  e.node = node;
  service.Publish(e);
  service.Pump(sim);
}

void PublishNodeRestore(ControllerService& service, Simulation& sim,
                        NodeId node) {
  ControlEvent e = MakeEvent(ControlEventKind::kNodeRestore, sim.now());
  e.node = node;
  service.Publish(e);
  service.Pump(sim);
}

EventHandle WatchTxLoadShift(ControllerService& service, Simulation& sim,
                             std::shared_ptr<const ArrivalRateProfile> rate,
                             int tx_index, Seconds sample_period,
                             double shift_fraction, Seconds first) {
  MWP_CHECK(rate != nullptr);
  MWP_CHECK(sample_period > 0.0);
  MWP_CHECK(shift_fraction > 0.0);
  // The reference rate is the one in force at the last shift decision (or
  // the first sample); drifting past the threshold re-anchors it.
  auto last_rate = std::make_shared<double>(rate->RateAt(first));
  return sim.SchedulePeriodic(
      first, sample_period,
      [&service, rate, tx_index, shift_fraction,
       last_rate](Simulation& s) {
        const double r = rate->RateAt(s.now());
        const double reference = std::max(*last_rate, 1e-9);
        if (std::abs(r - *last_rate) / reference <= shift_fraction) return;
        *last_rate = r;
        ControlEvent e = MakeEvent(ControlEventKind::kTxLoadShift, s.now());
        e.tx_index = tx_index;
        e.arrival_rate = r;
        service.Publish(e);
        service.Pump(s);
      });
}

}  // namespace mwp
