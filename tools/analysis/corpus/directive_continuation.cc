// Directive corpus: a multi-line #define's continuation lines belong to the
// directive, not to the code around it. These macro bodies hold an
// unordered-container loop and a lock nesting that reverses the real one;
// no rule may report them (neither macro is expanded).
#include <cstdint>
#include <unordered_map>

#include "audit_stubs.h"

namespace corpus {

double SumThroughMacro(const std::unordered_map<std::uint64_t, double>& demand) {
  double total = 0.0;
#define CORPUS_SUM_DEMAND                     \
  for (const auto& entry : demand) {          \
    total = total * 1.0000001 + entry.second; \
  }
#undef CORPUS_SUM_DEMAND
  return total;
}

class MacroLocks {
 public:
  void LockAB() {
    MutexLock la(&a_);
    MutexLock lb(&b_);
  }
  void LockBA() {
#define CORPUS_LOCK_BA \
  MutexLock lb(&b_);   \
  MutexLock la(&a_);
#undef CORPUS_LOCK_BA
  }

 private:
  Mutex a_;
  Mutex b_;
};

}  // namespace corpus
