// iostream in a hot-path module (AUD-C2).
#include <iostream>
void Report(int n) { std::cout << n << "\n"; }
