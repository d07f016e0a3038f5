// Clang thread-safety annotations and the annotated lock primitives.
//
// The fleet's determinism story (DESIGN.md §7) rests on "shards never
// share mutable state except through the fan-out's work counter". That
// invariant was previously enforced only at runtime (the tsan preset);
// these macros promote it to compile time: when the compiler is Clang,
// `-Wthread-safety -Werror` rejects any access to a TLC_GUARDED_BY
// field without its mutex held. Under GCC the macros expand to nothing
// and the wrappers are zero-cost shims over the std primitives.
//
// tlclint's `naked-mutex` rule requires `fleet/`, `transport/` and
// `epc/ofcs*` to use these wrappers instead of raw std::mutex, so new
// shared state cannot bypass the analysis by accident.
//
// Follows the Abseil/LLVM pattern:
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define TLC_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define TLC_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Field is protected by the given mutex; reads and writes require it.
#define TLC_GUARDED_BY(x) TLC_THREAD_ANNOTATION(guarded_by(x))

/// Pointer target is protected by the given mutex.
#define TLC_PT_GUARDED_BY(x) TLC_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the mutex(es) to be held by the caller.
#define TLC_REQUIRES(...) \
  TLC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function must be called WITHOUT the mutex(es) held.
#define TLC_EXCLUDES(...) TLC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function acquires the mutex(es) and does not release them.
#define TLC_ACQUIRE(...) \
  TLC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the mutex(es).
#define TLC_RELEASE(...) \
  TLC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function conditionally acquires the mutex (returns `ret` on success).
#define TLC_TRY_ACQUIRE(ret, ...) \
  TLC_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

/// Declares a lockable type (class-level attribute).
#define TLC_CAPABILITY(name) TLC_THREAD_ANNOTATION(capability(name))

/// Declares an RAII type whose lifetime equals a critical section.
#define TLC_SCOPED_CAPABILITY TLC_THREAD_ANNOTATION(scoped_lockable)

/// Returns a reference to the capability guarding the annotated object.
#define TLC_RETURN_CAPABILITY(x) TLC_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables analysis inside one function. Use only with a
/// comment explaining why the analysis cannot see the invariant.
#define TLC_NO_THREAD_SAFETY_ANALYSIS \
  TLC_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace tlc::util {

/// std::mutex with Clang capability annotations. BasicLockable, so it
/// also works directly with std::condition_variable_any (see CondVar).
class TLC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TLC_ACQUIRE() { mu_.lock(); }
  void unlock() TLC_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() TLC_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

 private:
  std::mutex mu_;
};

/// RAII lock over Mutex; replaces std::lock_guard / std::unique_lock in
/// the annotated subsystems.
class TLC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TLC_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() TLC_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. Waits directly on the Mutex
/// (condition_variable_any accepts any BasicLockable); like
/// absl::CondVar::Wait, the internal unlock/relock during the wait is
/// invisible to the analysis, so wait() simply REQUIRES the mutex.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, reacquires before returning.
  /// Caller must re-check its predicate (spurious wakeups).
  void wait(Mutex& mu) TLC_REQUIRES(mu) { cv_.wait(mu); }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace tlc::util
