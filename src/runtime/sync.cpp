#include "runtime/sync.hpp"

#include "schedule/schedule_point.hpp"

namespace ht {

void ProgramLock::acquire(ThreadContext& ctx) {
  // Lock acquisition is an instrumentation point (deterministic per thread).
  ++ctx.point_index;
  if (mu_.try_lock()) {
    HT_TSAN_ACQUIRE(this);
    return;
  }
  Runtime& rt = *ctx.runtime;
  rt.begin_blocking(ctx);
  if (schedule::virtualized()) {
    // Blocking in the OS would wedge the virtual CPU; spin at wait points so
    // the scheduler can run the holder to its release.
    while (!mu_.try_lock()) schedule::wait_point();
  } else {
    mu_.lock();
  }
  try {
    rt.end_blocking(ctx);
  } catch (...) {
    // Quarantined while parked (ThreadQuarantined unwinds us): the mutex is
    // already ours and no release(ctx) will ever run, so drop it raw here or
    // every healthy thread wedges on it. Invariant: a throwing acquire never
    // leaves the lock held.
    mu_.unlock();
    throw;
  }
  HT_TSAN_ACQUIRE(this);
}

void ProgramLock::abandon() { mu_.unlock(); }

void ProgramLock::release(ThreadContext& ctx) {
  ctx.runtime->psro(ctx);  // deterministic release-counter bump + flush
  HT_TSAN_RELEASE(this);
  mu_.unlock();
}

ProgramBarrier::ProgramBarrier(int parties) : parties_(parties) {
  HT_ASSERT(parties >= 1, "barrier needs at least one party");
}

void ProgramBarrier::arrive_and_wait(ThreadContext& ctx) {
  Runtime& rt = *ctx.runtime;
  rt.psro(ctx);  // arrival has release semantics
  HT_TSAN_RELEASE(this);
  rt.begin_blocking(ctx);
  {
    std::unique_lock<std::mutex> g(mu_);
    const std::uint64_t gen = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
    } else if (schedule::virtualized()) {
      // Same no-OS-blocking rule as ProgramLock::acquire.
      while (generation_ == gen) {
        g.unlock();
        schedule::wait_point();
        g.lock();
      }
    } else {
      cv_.wait(g, [&] { return generation_ != gen; });
    }
  }
  HT_TSAN_ACQUIRE(this);  // departure sees every arriving thread's writes
  rt.end_blocking(ctx);
}

}  // namespace ht
