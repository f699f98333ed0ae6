// A wall-clock read outside src/obs/stopwatch.h (AUD-D3).
#include <chrono>
double Now() {
  auto t = std::chrono::steady_clock::now();  // AUD-D3
  return t.time_since_epoch().count();
}
