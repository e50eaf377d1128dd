// Batched coordination rounds (DESIGN.md §13): one mailbox round trip covers
// a whole single-owner group of conflicting transitions, the owner's single
// flush-and-bump stamps every object's edge, and recordings made with
// batching stay structurally valid, lint-clean, and replayable.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>

#include "analysis/hb_engine/hb_engine.hpp"
#include "analysis/trace_lint.hpp"
#include "recorder/recorder.hpp"
#include "recorder/recording_io.hpp"
#include "recorder/recording_validate.hpp"
#include "recorder/replayer.hpp"
#include "test_util.hpp"
#include "tracking/hybrid_tracker.hpp"
#include "workload/apis.hpp"
#include "workload/workload.hpp"

namespace ht {
namespace {

using testing::BlockedThread;

TEST(CoordBatch, ImplicitAgainstBlockedOwnerCountsOneRound) {
  Runtime rt;
  ThreadContext& me = rt.register_thread();
  BlockedThread owner(rt);
  const std::uint64_t before =
      owner.ctx().owner_side.release_counter.load(std::memory_order_acquire);
  const Runtime::CoordResult r = rt.coordinate_batch(me, owner.ctx().id, 5);
  EXPECT_TRUE(r.implicit);
  EXPECT_GE(r.src_release, before);
  EXPECT_EQ(me.stats.coordination_rounds, 1u);
  EXPECT_EQ(me.stats.coord_batch_rounds, 1u);
  EXPECT_EQ(me.stats.coord_batch_objects, 5u);
}

TEST(CoordBatch, ExplicitMailboxRoundStampsPostBumpCounter) {
  Runtime rt;
  ThreadContext& me = rt.register_thread();
  std::atomic<bool> ready{false};
  std::atomic<bool> done{false};
  std::thread owner_thread([&] {
    ThreadContext& oc = rt.register_thread();
    ready.store(true, std::memory_order_release);
    while (!done.load(std::memory_order_acquire)) {
      rt.poll(oc);
      std::this_thread::yield();
    }
    rt.unregister_thread(oc);
  });
  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();
  // Owner id: contexts register in order, me == 0, owner == 1.
  const Runtime::CoordResult r = rt.coordinate_batch(me, 1, 3);
  EXPECT_FALSE(r.implicit);
  EXPECT_GE(r.src_release, 1u);  // the answering flush bumped at least once
  EXPECT_EQ(me.stats.coordination_rounds, 1u);
  EXPECT_EQ(me.stats.coord_batch_rounds, 1u);
  EXPECT_EQ(me.stats.coord_batch_objects, 3u);
  done.store(true, std::memory_order_release);
  owner_thread.join();
}

TEST(CoordBatch, PoolExhaustionDegradesToScalarRound) {
  Runtime rt;
  ThreadContext& me = rt.register_thread();
  BlockedThread owner(rt);
  owner.wake();  // running owner: the scalar fallback must ticket explicitly
  std::atomic<bool> done{false};
  std::thread responder([&] {
    while (!done.load(std::memory_order_acquire)) {
      rt.poll(owner.ctx());
      std::this_thread::yield();
    }
  });
  // Exhaust the requester-side node pool so coordinate_batch cannot post.
  for (auto& n : me.batch_pool.nodes) {
    n.consumed.store(false, std::memory_order_relaxed);
  }
  const Runtime::CoordResult r = rt.coordinate_batch(me, owner.ctx().id, 4);
  done.store(true, std::memory_order_release);
  responder.join();
  EXPECT_FALSE(r.implicit);
  // One round trip answered all four objects; the fallback must not
  // double-count rounds.
  EXPECT_EQ(me.stats.coordination_rounds, 1u);
  EXPECT_EQ(me.stats.coord_batch_rounds, 1u);
  EXPECT_EQ(me.stats.coord_batch_objects, 4u);
  for (auto& n : me.batch_pool.nodes) {
    n.consumed.store(true, std::memory_order_relaxed);
  }
  owner.block_again();
}

TEST(CoordBatch, HybridStoreBatchSettlesGroupWithOneImplicitRound) {
  Runtime rt;
  HybridTracker<true> tracker(rt);
  constexpr std::size_t kN = 8;
  ThreadContext& owner_ctx = rt.register_thread();
  std::vector<TrackedVar<std::uint64_t>> vars(kN);
  for (auto& v : vars) v.init(tracker, owner_ctx, 7);
  rt.begin_blocking(owner_ctx);  // group resolves implicitly

  ThreadContext& me = rt.register_thread();
  tracker.attach_thread(me);
  TrackedVar<std::uint64_t>* ptrs[kN];
  std::uint64_t vals[kN];
  for (std::size_t i = 0; i < kN; ++i) {
    ptrs[i] = &vars[i];
    vals[i] = 100 + i;
  }
  const std::uint64_t point_before = me.point_index;
  store_batch(tracker, me, ptrs, vals, kN);

  // ONE instrumentation point, ONE coordination round, kN conflicts settled.
  EXPECT_EQ(me.point_index, point_before + 1);
  EXPECT_EQ(me.stats.coordination_rounds, 1u);
  EXPECT_EQ(me.stats.coord_batch_rounds, 1u);
  EXPECT_EQ(me.stats.coord_batch_objects, kN);
  EXPECT_EQ(me.stats.opt_confl_implicit + me.stats.opt_confl_explicit, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(vars[i].raw_load(), 100 + i);
    const StateWord s = vars[i].meta().load_state();
    EXPECT_EQ(s.tid(), me.id) << "object " << i << " state " << s.to_string();
  }
  rt.end_blocking(owner_ctx);
}

TEST(CoordBatch, OptimisticStoreBatchAgainstRunningOwnerIsExplicit) {
  Runtime rt;
  OptimisticTracker<true> tracker(rt);
  constexpr std::size_t kN = 6;
  std::vector<TrackedVar<std::uint64_t>> vars(kN);
  std::atomic<bool> ready{false};
  std::atomic<bool> done{false};
  std::thread owner_thread([&] {
    ThreadContext& oc = rt.register_thread();
    for (auto& v : vars) v.init(tracker, oc, 1);
    ready.store(true, std::memory_order_release);
    while (!done.load(std::memory_order_acquire)) {
      rt.poll(oc);
      std::this_thread::yield();
    }
    rt.unregister_thread(oc);
  });
  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();

  ThreadContext& me = rt.register_thread();
  TrackedVar<std::uint64_t>* ptrs[kN];
  std::uint64_t vals[kN];
  for (std::size_t i = 0; i < kN; ++i) {
    ptrs[i] = &vars[i];
    vals[i] = 200 + i;
  }
  store_batch(tracker, me, ptrs, vals, kN);
  done.store(true, std::memory_order_release);
  owner_thread.join();

  EXPECT_EQ(me.stats.coord_batch_rounds, 1u);
  EXPECT_EQ(me.stats.coord_batch_objects, kN);
  EXPECT_EQ(me.stats.opt_confl_explicit, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(vars[i].raw_load(), 200 + i);
    EXPECT_TRUE(testing::state_is(vars[i].meta(), StateKind::kWrExOpt, me.id));
  }
}

TEST(CoordBatch, MixedOwnersSplitIntoPerOwnerGroups) {
  Runtime rt;
  HybridTracker<true> tracker(rt);
  ThreadContext& a = rt.register_thread();
  ThreadContext& b = rt.register_thread();
  std::vector<TrackedVar<std::uint64_t>> vars(8);
  for (std::size_t i = 0; i < 4; ++i) vars[i].init(tracker, a, 0);
  for (std::size_t i = 4; i < 8; ++i) vars[i].init(tracker, b, 0);
  rt.begin_blocking(a);
  rt.begin_blocking(b);

  ThreadContext& me = rt.register_thread();
  tracker.attach_thread(me);
  TrackedVar<std::uint64_t>* ptrs[8];
  std::uint64_t vals[8];
  for (std::size_t i = 0; i < 8; ++i) {
    ptrs[i] = &vars[i];
    vals[i] = i;
  }
  store_batch(tracker, me, ptrs, vals, 8);

  // Conflicts partition by owner: one batched round per distinct owner,
  // 2 rounds for 8 conflicts (instead of 8 unbatched).
  EXPECT_EQ(me.stats.coord_batch_rounds, 2u);
  EXPECT_EQ(me.stats.coord_batch_objects, 8u);
  EXPECT_EQ(me.stats.coordination_rounds, 2u);
  EXPECT_EQ(me.stats.opt_confl_implicit + me.stats.opt_confl_explicit, 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(vars[i].raw_load(), i);
    EXPECT_EQ(vars[i].meta().load_state().tid(), me.id);
  }
  rt.end_blocking(a);
  rt.end_blocking(b);
}

TEST(CoordBatch, DuplicateObjectsInOneBatchResolveAfterGroupLands) {
  // A duplicate of a group member reads this thread's own Int during pass 1
  // and must defer to the scalar loop AFTER the group lands — a same-batch
  // self-deadlock here would hang the test.
  Runtime rt;
  HybridTracker<true> tracker(rt);
  ThreadContext& owner_ctx = rt.register_thread();
  TrackedVar<std::uint64_t> v;
  v.init(tracker, owner_ctx, 3);
  rt.begin_blocking(owner_ctx);

  ThreadContext& me = rt.register_thread();
  tracker.attach_thread(me);
  TrackedVar<std::uint64_t>* ptrs[3] = {&v, &v, &v};
  const std::uint64_t vals[3] = {10, 11, 12};
  store_batch(tracker, me, ptrs, vals, 3);
  EXPECT_EQ(v.raw_load(), 12u);  // last store in batch order wins
  EXPECT_EQ(v.meta().load_state().tid(), me.id);
  rt.end_blocking(owner_ctx);
}

// --- recording soundness under batching -----------------------------------

WorkloadConfig batchxfer_config(std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.name = "batchxfer";
  cfg.threads = 4;
  cfg.ops_per_thread = 6'000;
  cfg.accesses_per_region = 8;
  cfg.readshare_p100k = 5'000;
  cfg.sharedgen_p100k = 2'000;
  cfg.batchxfer_p100k = 30'000;
  cfg.hot_objects = 16;
  cfg.base_seed = seed;
  return cfg;
}

TEST(CoordBatch, BatchedRecordingValidatesLintsAnalyzesAndReplays) {
  const WorkloadConfig cfg = batchxfer_config(11);
  WorkloadData data(cfg);

  Runtime rt;
  DependenceRecorder recorder(rt);
  using Tracker = HybridTracker<true, DependenceRecorder>;
  Tracker tracker(rt, HybridConfig{}, &recorder);
  const WorkloadRunResult recorded = run_workload(cfg, data, [&](ThreadId) {
    return DirectApi<Tracker>(rt, tracker, &recorder);
  });
  ASSERT_EQ(recorded.quarantined, 0);
  // The contended profile actually exercised batching.
  EXPECT_GT(recorded.stats.coord_batch_rounds, 0u);
  EXPECT_GT(recorded.stats.coord_batch_objects,
            recorded.stats.coord_batch_rounds);

  const Recording recording =
      recorder.take_recording(static_cast<ThreadId>(cfg.threads));

  // recording_validate: structurally well-formed.
  const ValidationResult v = validate_recording(recording);
  EXPECT_TRUE(v.ok()) << v.to_string();

  // trace_lint + trace_analyze equivalents over the saved file. The name is
  // per process so concurrent runs sharing a temp dir never read each
  // other's half-written file.
  const std::string path = ::testing::TempDir() + "coord_batch_recording." +
                           std::to_string(::getpid()) + ".bin";
  ASSERT_TRUE(save_recording(recording, path));
  const analysis::FileLintResult lint = analysis::lint_recording_file(path);
  EXPECT_TRUE(lint.load.complete());
  EXPECT_TRUE(lint.lint.structure.ok()) << lint.lint.structure.to_string();
  EXPECT_TRUE(lint.lint.issues.empty());
  const analysis::RecordingAnalysisReport report =
      analysis::analyze_recording_file(path);
  EXPECT_EQ(report.exit_code(), kExitOk) << report.to_string();
  std::remove(path.c_str());

  // Replay: every batched point's edges precede its raw stores, so loaded
  // values are deterministic.
  Replayer replayer(recording);
  const WorkloadRunResult replayed =
      run_workload(cfg, data, [&](ThreadId) { return ReplayApi(replayer); });
  for (int t = 0; t < cfg.threads; ++t) {
    EXPECT_EQ(recorded.checksums[static_cast<std::size_t>(t)],
              replayed.checksums[static_cast<std::size_t>(t)])
        << "thread " << t << " diverged (recording: " << recording.summary()
        << ")";
  }
}

}  // namespace
}  // namespace ht
