// Runtime substrate tests: registration, safe points, PSRO release-counter
// discipline, the coordination protocol (explicit / implicit / mutual), and
// blocking semantics.
#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "test_util.hpp"

namespace ht {
namespace {

using testing::BlockedThread;

TEST(ThreadRegistry, AssignsDenseIds) {
  Runtime rt;
  ThreadContext& a = rt.register_thread();
  ThreadContext& b = rt.register_thread();
  EXPECT_EQ(a.id, 0u);
  EXPECT_EQ(b.id, 1u);
  EXPECT_EQ(rt.registry().high_water(), 2u);
  EXPECT_EQ(&rt.registry().context(1), &b);
}

TEST(ThreadRegistry, FastPathWordsMatchIds) {
  Runtime rt;
  ThreadContext& a = rt.register_thread();
  EXPECT_EQ(a.fast_wr_ex_opt, StateWord::wr_ex_opt(a.id).raw());
  EXPECT_EQ(a.fast_rd_ex_opt, StateWord::rd_ex_opt(a.id).raw());
}

TEST(Runtime, RdShCounterIsMonotonic) {
  Runtime rt;
  const std::uint32_t a = rt.next_rd_sh_counter();
  const std::uint32_t b = rt.next_rd_sh_counter();
  EXPECT_LT(a, b);
  EXPECT_GE(a, 1u);  // fresh threads (rd_sh_count == 0) must see every c as new
}

TEST(Runtime, PsroBumpsReleaseCounterAndPointIndex) {
  Runtime rt;
  ThreadContext& ctx = rt.register_thread();
  const std::uint64_t p0 = ctx.point_index;
  rt.psro(ctx);
  rt.psro(ctx);
  EXPECT_EQ(ctx.release_counter_relaxed(), 2u);
  EXPECT_EQ(ctx.point_index, p0 + 2);
  EXPECT_EQ(ctx.stats.psros, 2u);
}

TEST(Runtime, PollRespondsToPendingRequests) {
  Runtime rt;
  ThreadContext& owner = rt.register_thread();
  ThreadContext& requester = rt.register_thread();

  // The requester's round trip completes once the owner polls.
  std::atomic<bool> done{false};
  std::thread req([&] {
    const auto r = rt.coordinate(requester, owner.id);
    EXPECT_FALSE(r.implicit);
    EXPECT_GE(r.src_release, 1u);  // responding bumped the counter
    done.store(true);
  });
  while (!done.load()) {
    rt.poll(owner);
    std::this_thread::yield();
  }
  req.join();
  EXPECT_GE(owner.stats.responding_safepoints, 1u);
  EXPECT_GE(owner.release_counter_relaxed(), 1u);
}

TEST(Runtime, ImplicitCoordinationWithBlockedThread) {
  Runtime rt;
  ThreadContext& requester = rt.register_thread();
  BlockedThread blocked(rt);

  const auto r = rt.coordinate(requester, blocked.ctx().id);
  EXPECT_TRUE(r.implicit);
  // Blocking flushed and bumped before parking.
  EXPECT_GE(r.src_release, 1u);
}

TEST(Runtime, ImplicitCoordinationBumpsEpochNotState) {
  Runtime rt;
  ThreadContext& requester = rt.register_thread();
  BlockedThread blocked(rt);

  const std::uint64_t s0 =
      blocked.ctx().owner_side.status.load(std::memory_order_relaxed);
  (void)rt.coordinate(requester, blocked.ctx().id);
  const std::uint64_t s1 =
      blocked.ctx().owner_side.status.load(std::memory_order_relaxed);
  EXPECT_TRUE(ThreadStatus::is_blocked(s1));
  EXPECT_EQ(ThreadStatus::epoch(s1), ThreadStatus::epoch(s0) + 1);
}

TEST(Runtime, EndBlockingSurvivesConcurrentEpochBumps) {
  Runtime rt;
  ThreadContext& requester = rt.register_thread();
  BlockedThread blocked(rt);
  for (int i = 0; i < 5; ++i) (void)rt.coordinate(requester, blocked.ctx().id);
  blocked.wake();  // must not assert or lose the RUNNING transition
  const std::uint64_t s =
      blocked.ctx().owner_side.status.load(std::memory_order_relaxed);
  EXPECT_FALSE(ThreadStatus::is_blocked(s));
}

TEST(Runtime, UnregisteredThreadAnswersImplicitly) {
  Runtime rt;
  ThreadContext& requester = rt.register_thread();
  ThreadContext& leaver = rt.register_thread();
  rt.unregister_thread(leaver);
  const auto r = rt.coordinate(requester, leaver.id);
  EXPECT_TRUE(r.implicit);
  EXPECT_GE(r.src_release, 1u);  // exit bump
}

TEST(Runtime, MutualExplicitCoordinationDoesNotDeadlock) {
  // Two running threads coordinate with each other simultaneously; each must
  // answer the other from within its own wait loop (Fig 1 line 18).
  Runtime rt;
  std::atomic<ThreadContext*> ctxs[2] = {nullptr, nullptr};
  std::atomic<int> ready{0};
  std::thread a([&] {
    ThreadContext& me = rt.register_thread();
    ctxs[0].store(&me);
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    (void)rt.coordinate(me, ctxs[1].load()->id);
    rt.unregister_thread(me);
  });
  std::thread b([&] {
    ThreadContext& me = rt.register_thread();
    ctxs[1].store(&me);
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    (void)rt.coordinate(me, ctxs[0].load()->id);
    rt.unregister_thread(me);
  });
  a.join();
  b.join();
  SUCCEED();
}

TEST(Runtime, CoordinateAllOthersCoversEveryRegisteredThread) {
  Runtime rt;
  ThreadContext& self = rt.register_thread();
  BlockedThread b1(rt), b2(rt), b3(rt);
  EXPECT_FALSE(rt.coordinate_all_others(self));  // all implicit
  EXPECT_EQ(self.stats.coordination_rounds, 3u);
}

TEST(Runtime, RespondRunsHooksInOrder) {
  Runtime rt;
  ThreadContext& owner = rt.register_thread();
  ThreadContext& requester = rt.register_thread();

  // Order contract (DESIGN.md §4.3): bump the release counter, then flush,
  // so a thread acquiring a flushed state reads the post-bump counter; the
  // response-log hook also runs after the bump.
  static thread_local std::vector<std::string> trace;
  trace.clear();
  owner.flush_self = &owner;
  owner.flush_fn = [](void*, ThreadContext& c) {
    trace.push_back("flush@" + std::to_string(c.release_counter_relaxed()));
  };
  owner.resp_log_self = &owner;
  owner.resp_log_fn = [](void*, ThreadContext& c) {
    trace.push_back("log@" + std::to_string(c.release_counter_relaxed()));
  };

  std::atomic<bool> done{false};
  std::thread req([&] {
    (void)rt.coordinate(requester, owner.id);
    done.store(true);
  });
  // Drive the owner from this thread; hooks run on the owner's thread (this
  // one), so the thread_local trace is visible here.
  while (!done.load()) {
    rt.poll(owner);
    std::this_thread::yield();
  }
  req.join();
  ASSERT_GE(trace.size(), 2u);
  EXPECT_EQ(trace[0], "flush@1");  // flush after bump
  EXPECT_EQ(trace[1], "log@1");    // log after bump
}

// Every other flush site also bumps before it flushes (DESIGN.md §4.3), so
// each flush hook sees the counter its own bump produced.
TEST(Runtime, FlushHookSeesBumpedCounterAtEverySite) {
  Runtime rt;
  ThreadContext& ctx = rt.register_thread();
  std::vector<std::uint64_t> seen;
  ctx.flush_self = &seen;
  ctx.flush_fn = [](void* self, ThreadContext& c) {
    static_cast<std::vector<std::uint64_t>*>(self)->push_back(
        c.release_counter_relaxed());
  };
  rt.psro(ctx);
  rt.begin_blocking(ctx);
  rt.end_blocking(ctx);
  rt.unregister_thread(ctx);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(ctx.release_counter_relaxed(), 3u);
}

TEST(Runtime, BlockingIsARespondingSafePoint) {
  Runtime rt;
  ThreadContext& ctx = rt.register_thread();
  int flushes = 0;
  ctx.flush_self = &flushes;
  ctx.flush_fn = [](void* self, ThreadContext&) {
    ++*static_cast<int*>(self);
  };
  rt.begin_blocking(ctx);
  EXPECT_EQ(flushes, 1);
  EXPECT_EQ(ctx.release_counter_relaxed(), 1u);
  rt.end_blocking(ctx);
}

TEST(Runtime, PsroRejectedInsideRegion) {
  Runtime rt;
  ThreadContext& ctx = rt.register_thread();
  ctx.in_region = true;
  EXPECT_DEATH(rt.psro(ctx), "PSRO inside an SBRS region");
  ctx.in_region = false;
}

}  // namespace
}  // namespace ht
