// Access-API contract tests: instrumentation-point discipline (the replayer
// depends on every API advancing point indices identically), lock elision in
// replay, enforcer access counting, and stats plumbing.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "tracking/hybrid_tracker.hpp"
#include "tracking/null_tracker.hpp"
#include "workload/apis.hpp"

namespace ht {
namespace {

TEST(DirectApi, AdvancesPointIndexPerInstrumentationPoint) {
  Runtime rt;
  NullTracker tracker(rt);
  DirectApi<NullTracker> api(rt, tracker);
  api.begin_thread(0);
  ThreadContext& ctx = api.context();

  TrackedVar<std::uint64_t> v;
  v.init(tracker, ctx, 0);
  ProgramLock lock;

  const std::uint64_t p0 = ctx.point_index;
  (void)api.load(v);      // +1
  api.store(v, 1);        // +1
  api.lock(lock);         // +1
  api.unlock(lock);       // +1 (PSRO)
  api.poll();             // +1
  EXPECT_EQ(ctx.point_index, p0 + 5);
  api.end_thread();
}

TEST(ReplayApi, MirrorsPointIndexDiscipline) {
  // A recording with no events: replay must advance through the same number
  // of points without touching any event machinery.
  Recording rec;
  rec.threads.resize(1);
  Replayer rp(rec);
  ReplayApi api(rp);
  api.begin_thread(0);

  TrackedVar<std::uint64_t> v;
  v.raw_store(7);
  ProgramLock lock;

  EXPECT_EQ(api.load(v), 7u);
  api.store(v, 9);
  EXPECT_EQ(v.raw_load(), 9u);
  api.lock(lock);    // elided: must not actually acquire
  api.lock(lock);    // would deadlock if real
  api.unlock(lock);  // PSRO point: bumps replay release counter
  EXPECT_EQ(rp.release_counter(0), 1u);
  api.end_thread();
  EXPECT_EQ(rp.release_counter(0), 2u);  // thread-end bump
}

TEST(EnforcerApi, CountsAccessesWithinRegion) {
  Runtime rt;
  HybridTracker<> tracker(rt, HybridConfig{});
  RsEnforcer<HybridTracker<>> enf(rt, tracker);
  EnforcerApi<HybridTracker<>> api(rt, enf);
  api.begin_thread(0);
  ThreadContext& ctx = api.context();

  TrackedVar<std::uint64_t> v;
  v.init(tracker, ctx, 0);

  api.region([&] {
    EXPECT_EQ(ctx.region_access_count, 0u);
    (void)api.load(v);
    EXPECT_EQ(ctx.region_access_count, 1u);
    api.store(v, 2);
    EXPECT_EQ(ctx.region_access_count, 2u);
  });
  EXPECT_FALSE(ctx.in_region);
  EXPECT_EQ(ctx.undo_log, nullptr);
  api.end_thread();
}

TEST(EnforcerApi, RegionWritesAreUndoLogged) {
  Runtime rt;
  HybridTracker<> tracker(rt, HybridConfig{});
  RsEnforcer<HybridTracker<>> enf(rt, tracker);
  EnforcerApi<HybridTracker<>> api(rt, enf);
  api.begin_thread(0);
  ThreadContext& ctx = api.context();

  TrackedVar<std::uint64_t> v;
  v.init(tracker, ctx, 5);
  api.region([&] {
    api.store(v, 6);
    ASSERT_NE(ctx.undo_log, nullptr);
    EXPECT_EQ(ctx.undo_log->size(), 1u);
  });
  EXPECT_EQ(v.raw_load(), 6u);  // committed
  api.end_thread();
}

TEST(DirectApi, StatsSnapshotTracksContext) {
  Runtime rt;
  HybridTracker<true> tracker(rt, HybridConfig{});
  DirectApi<HybridTracker<true>> api(rt, tracker);
  api.begin_thread(0);
  TrackedVar<std::uint64_t> v;
  v.init(tracker, api.context(), 0);
  api.store(v, 1);
  api.store(v, 2);
  const TransitionStats snap = api.take_stats();
  EXPECT_EQ(snap.opt_same + snap.elision_hits, 2u);
  api.end_thread();
}

TEST(RunThreads, MergesStatsAndChecksums) {
  Runtime rt;
  NullTracker tracker(rt);
  const auto r = run_threads(
      3, [&](ThreadId) { return DirectApi<NullTracker>(rt, tracker); },
      [](auto&, ThreadId) {}, [](auto&, ThreadId tid) {
        return static_cast<std::uint64_t>(tid) + 100;
      });
  ASSERT_EQ(r.checksums.size(), 3u);
  EXPECT_EQ(r.checksums[0], 100u);
  EXPECT_EQ(r.checksums[2], 102u);
  EXPECT_GE(r.seconds, 0.0);
}

// Registers with the runtime and reports the id it got, so a test can check
// the driver's registration order without any tracker in the way.
class IdProbeApi {
 public:
  IdProbeApi(Runtime& rt, std::vector<ThreadId>& ids) : rt_(&rt), ids_(&ids) {}
  void begin_thread(ThreadId tid) {
    ctx_ = &rt_->register_thread();
    (*ids_)[tid] = ctx_->id;
  }
  void end_thread() { rt_->unregister_thread(*ctx_); }
  void begin_wait() { rt_->begin_blocking(*ctx_); }
  void end_wait() { rt_->end_blocking(*ctx_); }
  TransitionStats take_stats() const { return ctx_->stats; }
  void reset_stats() {}

 private:
  Runtime* rt_;
  std::vector<ThreadId>* ids_;
  ThreadContext* ctx_ = nullptr;
};

TEST(RunThreads, RuntimeIdsEqualSpawnIndices) {
  // Lower spawn indices take longer to build their API, so without ordered
  // registration the last-spawned thread would register first. The recorder
  // keys logs by runtime id and the replayer by spawn index, so the two must
  // agree (DESIGN.md §4.4).
  constexpr int kThreads = 4;
  Runtime rt;
  std::vector<ThreadId> ids(kThreads, kNoThread);
  (void)run_threads(
      kThreads,
      [&](ThreadId tid) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            10 * (kThreads - static_cast<int>(tid))));
        return IdProbeApi(rt, ids);
      },
      [](auto&, ThreadId) {}, [](auto&, ThreadId) { return std::uint64_t{0}; });
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(ids[static_cast<std::size_t>(t)], static_cast<ThreadId>(t));
  }
}

}  // namespace
}  // namespace ht
