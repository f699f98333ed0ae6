// Clang thread-safety annotations and an annotated mutex wrapper.
//
// The optimizer's parallel candidate search (PR 1) and the out-of-band fault
// repair paths (PR 2) put shared mutable state on the hot path; a data race
// there corrupts lexicographic-RPF results silently — it shows up as SLA
// noise, not a crash. Clang's `-Wthread-safety` analysis turns the locking
// discipline into a compile-time contract: every field names the capability
// that guards it, and an access without that capability is a build error.
//
// The macros expand to Clang attributes under Clang and to nothing under GCC
// (which compiles the tree in CI's primary lanes but has no equivalent
// analysis), so annotating costs nothing where it cannot be checked.
//
// libstdc++'s std::mutex carries no capability attribute, so annotations
// naming a std::mutex member would be rejected by the analysis. `mwp::Mutex`
// wraps std::mutex as a named capability and `mwp::MutexLock` is the
// annotated scoped holder — the pattern from the Clang thread-safety docs.
// Both are zero-overhead shims over the standard types.
#pragma once

#include <mutex>

#if defined(__clang__)
#define MWP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MWP_THREAD_ANNOTATION(x)
#endif

/// Declares a class to be a capability (lockable) for the analysis.
#define MWP_CAPABILITY(x) MWP_THREAD_ANNOTATION(capability(x))

/// Declares an RAII class whose lifetime acquires/releases a capability.
#define MWP_SCOPED_CAPABILITY MWP_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be accessed while holding capability `x`.
#define MWP_GUARDED_BY(x) MWP_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field whose *pointee* may only be accessed while holding `x`.
#define MWP_PT_GUARDED_BY(x) MWP_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the listed capabilities to be held on entry.
#define MWP_REQUIRES(...) \
  MWP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities and holds them on return.
#define MWP_ACQUIRE(...) \
  MWP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities.
#define MWP_RELEASE(...) \
  MWP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Caller must NOT hold the listed capabilities (deadlock prevention).
#define MWP_EXCLUDES(...) MWP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Declares a global acquisition order: this mutex must be acquired before
/// the listed ones. Clang's analysis checks it at lock sites, and
/// tools/analysis/determinism_audit.py folds the declared edges into its
/// lock-order graph (rule AUD-L2) so a contradicting observed nesting
/// anywhere in the tree fails the lint gate.
#define MWP_ACQUIRED_BEFORE(...) \
  MWP_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define MWP_RETURN_CAPABILITY(x) MWP_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Use only with a
/// comment explaining why the access is safe.
#define MWP_NO_THREAD_SAFETY_ANALYSIS \
  MWP_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace mwp {

/// std::mutex as a named capability. Prefer MutexLock for scoped holds; the
/// raw Lock/Unlock pair exists for the rare hand-over-hand case.
class MWP_CAPABILITY("mutex") Mutex {
 public:
  constexpr Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MWP_ACQUIRE() { mu_.lock(); }
  void Unlock() MWP_RELEASE() { mu_.unlock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// Scoped capability holder over Mutex. Exposes the underlying
/// std::unique_lock for condition-variable waits; a wait re-acquires the
/// lock before returning, so the capability is held at every point user
/// code observes.
class MWP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MWP_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() MWP_RELEASE() {}
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// For std::condition_variable::wait only.
  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace mwp
