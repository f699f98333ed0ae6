// Unseeded entropy (AUD-D3) and a raw standard engine (AUD-D5) outside
// common/rng.h.
#include <random>
int Seed() {
  std::random_device rd;            // AUD-D3
  std::mt19937_64 engine(rd());     // AUD-D5
  return rand() % 7;                // AUD-D3
}
long Clock() { return time(nullptr); }  // AUD-D3
