// A raw assert (AUD-C1); static_assert is fine.
#include <cassert>
void Check(int n) {
  assert(n > 0);  // AUD-C1
  static_assert(sizeof(int) == 4);  // fine
}
