// Job arrival processes.
//
// The paper submits jobs with exponentially distributed inter-arrival times
// (mean 260 s in Experiment One; 50..400 s sweeps in Experiment Two). The
// ArrivalProcess abstraction yields successive submission timestamps.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace mwp {

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Time of the next arrival strictly after the previous one.
  virtual Seconds NextArrival() = 0;
};

/// Poisson arrivals: exponential inter-arrival times with a fixed mean.
class PoissonArrivalProcess : public ArrivalProcess {
 public:
  PoissonArrivalProcess(Rng rng, Seconds mean_interarrival,
                        Seconds start_time = 0.0);

  Seconds NextArrival() override;

  /// Change the mean mid-run (Experiment Three slows submissions near the
  /// end of the experiment; the diurnal scenarios shift it every phase).
  /// Takes effect on the very next arrival: the pre-sampled pending gap is
  /// rescaled deterministically from the same Rng stream.
  void set_mean_interarrival(Seconds mean);

 private:
  Rng rng_;
  Seconds mean_;
  Seconds last_time_;
  /// Next inter-arrival gap, pre-sampled so a rate change can rescale it
  /// (Exp(m_old) * m_new/m_old ~ Exp(m_new)) instead of applying one
  /// arrival late.
  Seconds pending_gap_ = 0.0;
};

}  // namespace mwp
