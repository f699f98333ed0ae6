// Time-like raw doubles in a header (AUD-C3); dimensionless names are
// exempt.
struct Stats {
  double mean_response_time = 0.0;  // AUD-C3
  double speed_factor = 1.0;        // exempt: dimensionless
};
void Wait(double timeout);          // AUD-C3
