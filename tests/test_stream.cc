// The task + arena execution layer: asynchronous task groups on the pool,
// nested launches that idle workers help, exception ordering, and pooled
// workspaces.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "device/arena.hh"
#include "device/launch.hh"

namespace {

using szi::dev::Arena;
using szi::dev::PooledBuffer;
using szi::dev::TaskGroup;
using szi::dev::ThreadPool;
using szi::dev::Workspace;

/// Distinct thread ids seen by a set of concurrent callers.
class ThreadSet {
 public:
  void add() {
    std::lock_guard lk(mu_);
    ids_.insert(std::this_thread::get_id());
  }
  [[nodiscard]] std::size_t size() {
    std::lock_guard lk(mu_);
    return ids_.size();
  }

 private:
  std::mutex mu_;
  std::set<std::thread::id> ids_;
};

TEST(TaskGroup, RunsEveryTaskOnce) {
  ThreadPool pool(4);
  TaskGroup g(pool);
  std::vector<std::atomic<int>> hits(200);
  for (std::size_t i = 0; i < hits.size(); ++i) g.run([&hits, i] { hits[i]++; });
  EXPECT_EQ(g.size(), hits.size());
  g.wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskGroup, OneWorkerRunsUnclaimedTasksInsideWait) {
  ThreadPool pool(1);
  TaskGroup g(pool);
  std::vector<int> order;
  std::vector<std::thread::id> who;
  for (int i = 0; i < 5; ++i)
    g.run([&, i] {
      order.push_back(i);
      who.push_back(std::this_thread::get_id());
    });
  // No thread exists to claim anything: nothing has run yet.
  EXPECT_TRUE(order.empty());
  g.wait(2);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  g.wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  for (const auto& id : who) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(TaskGroup, WaitForPrefixIgnoresLaterTasks) {
  ThreadPool pool(2);
  TaskGroup g(pool);
  std::atomic<bool> release{false};
  std::atomic<bool> first_ran{false};
  g.run([&] { first_ran = true; });
  g.run([&] {
    while (!release.load()) std::this_thread::yield();
  });
  // Task 1 spins until released; wait(1) must not wait for it.
  g.wait(1);
  EXPECT_TRUE(first_ran.load());
  release = true;
  g.wait();
}

TEST(TaskGroup, RunReturnsBeforeTaskCompletes) {
  ThreadPool pool(2);
  TaskGroup g(pool);
  std::atomic<bool> release{false};
  std::atomic<bool> ran{false};
  g.run([&] {
    while (!release.load()) std::this_thread::yield();
    ran = true;
  });
  // If run() were synchronous this would spin forever before the checks.
  EXPECT_FALSE(ran.load());
  release = true;
  g.wait();
  EXPECT_TRUE(ran.load());
}

TEST(TaskGroup, IdleWorkersClaimTasks) {
  ThreadPool pool(4);
  TaskGroup g(pool);
  ThreadSet threads;
  std::atomic<int> started{0};
  // Each task holds its thread until a second task has started elsewhere,
  // so the group finishes only if more than one thread runs its tasks.
  for (int i = 0; i < 4; ++i)
    g.run([&] {
      threads.add();
      started++;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started.load() < 2 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    });
  g.wait();
  EXPECT_GT(threads.size(), 1u);
}

TEST(TaskGroup, RethrowsLowestIndexFailureAfterEveryTaskRan) {
  for (const unsigned workers : {1u, 4u}) {
    ThreadPool pool(workers);
    TaskGroup g(pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 40; ++i)
      g.run([&, i] {
        ran++;
        if (i == 7) throw std::runtime_error("task 7");
        if (i == 3) throw std::invalid_argument("task 3");
        if (i == 30) throw std::logic_error("task 30");
      });
    try {
      g.wait();
      ADD_FAILURE() << "no failure rethrown at " << workers << " workers";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "task 3");
    }
    EXPECT_EQ(ran.load(), 40) << workers << " workers";
  }
}

TEST(TaskGroup, PrefixWaitRethrowsOnlyFailuresInsideThePrefix) {
  ThreadPool pool(3);
  TaskGroup g(pool);
  g.run([] {});
  g.run([] {});
  g.run([] { throw std::runtime_error("task 2"); });
  EXPECT_NO_THROW(g.wait(2));
  EXPECT_THROW(g.wait(3), std::runtime_error);
  // The failure stays recorded: a later full wait reports it again.
  EXPECT_THROW(g.wait(), std::runtime_error);
}

TEST(TaskGroup, DestructorWaitsAndSwallowsFailures) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  {
    TaskGroup g(pool);
    for (int i = 0; i < 16; ++i)
      g.run([&, i] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ran++;
        if (i == 5) throw std::runtime_error("swallowed");
      });
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(TaskGroup, NestedLaunchInsideTaskRunsOnSeveralThreads) {
  ThreadPool pool(4);
  TaskGroup g(pool);
  ThreadSet threads;
  std::atomic<int> n{0};
  std::atomic<int> started{0};
  // One task, one nested launch: the other three workers are idle and must
  // help. Each index waits (bounded) for a second index to start so one
  // thread cannot finish the launch alone.
  g.run([&] {
    pool.parallel_for(
        64,
        [&](std::size_t) {
          threads.add();
          started++;
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (started.load() < 2 &&
                 std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
          n++;
        },
        1);
  });
  g.wait();
  EXPECT_EQ(n.load(), 64);
  EXPECT_GT(threads.size(), 1u);
}

TEST(TaskGroup, ThreeDeepNestCompletes) {
  for (const unsigned workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    std::atomic<int> leaves{0};
    {
      TaskGroup g(pool);
      for (int t = 0; t < 6; ++t)
        g.run([&] {
          pool.parallel_for(
              5,
              [&](std::size_t) {
                pool.parallel_for(
                    7,
                    [&](std::size_t) {
                      pool.parallel_for(3, [&](std::size_t) { leaves++; }, 1);
                    },
                    1);
              },
              1);
        });
      g.wait();
    }
    EXPECT_EQ(leaves.load(), 6 * 5 * 7 * 3) << workers << " workers";
  }
}

TEST(TaskGroup, GroupsAndLaunchesShareThePool) {
  // Two groups and a top-level launch running at once exercise the one
  // job queue; each must see exactly its own result.
  ThreadPool pool(3);
  const std::size_t n = 50000;
  std::vector<std::uint32_t> va(n), vb(n), vc(n);
  TaskGroup a(pool), b(pool);
  for (std::size_t t = 0; t < 10; ++t) {
    a.run([&, t] {
      pool.parallel_for(n / 10, [&](std::size_t i) { va[t * n / 10 + i] = 1; },
                        64);
    });
    b.run([&, t] {
      for (std::size_t i = 0; i < n / 10; ++i) vb[t * n / 10 + i] = 2;
    });
  }
  pool.parallel_for(n, [&](std::size_t i) { vc[i] = 3; }, 64);
  a.wait();
  b.wait();
  EXPECT_EQ(std::accumulate(va.begin(), va.end(), std::uint64_t{0}), n);
  EXPECT_EQ(std::accumulate(vb.begin(), vb.end(), std::uint64_t{0}), 2 * n);
  EXPECT_EQ(std::accumulate(vc.begin(), vc.end(), std::uint64_t{0}), 3 * n);
}

TEST(Arena, RoundsUpAndReusesBlocks) {
  Arena a;
  std::size_t cap = 0;
  std::byte* p = a.acquire(1000, cap);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(cap, 1000u);
  a.release(p, cap);

  // Same bucket: the freed block must come back (LIFO reuse).
  std::size_t cap2 = 0;
  std::byte* q = a.acquire(cap, cap2);
  EXPECT_EQ(q, p);
  EXPECT_EQ(cap2, cap);
  a.release(q, cap2);

  const auto st = a.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.outstanding, 0u);
}

TEST(Arena, TrimFreesIdleBlocks) {
  Arena a;
  std::size_t cap = 0;
  std::byte* p = a.acquire(4096, cap);
  a.release(p, cap);
  EXPECT_GT(a.stats().pooled_bytes, 0u);
  a.trim();
  EXPECT_EQ(a.stats().pooled_blocks, 0u);
  EXPECT_EQ(a.stats().pooled_bytes, 0u);
}

TEST(Workspace, SpansAreDistinctAndWritable) {
  Arena a;
  Workspace ws(a);
  auto x = ws.make<std::uint32_t>(1000);
  auto y = ws.make<std::uint32_t>(1000);
  ASSERT_EQ(x.size(), 1000u);
  ASSERT_EQ(y.size(), 1000u);
  // Distinct blocks: writing one never touches the other.
  for (std::size_t i = 0; i < 1000; ++i) x[i] = 7;
  for (std::size_t i = 0; i < 1000; ++i) y[i] = 9;
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(x[i], 7u);
}

TEST(Workspace, ResetReturnsBlocksForReuse) {
  Arena a;
  Workspace ws(a);
  auto x = ws.make<std::uint8_t>(10000);
  std::uint8_t* first = x.data();
  ws.reset();
  EXPECT_EQ(a.stats().outstanding, 0u);

  // Same-size request after reset reuses the exact block (pool hit).
  auto y = ws.make<std::uint8_t>(10000);
  EXPECT_EQ(y.data(), first);
  EXPECT_GE(a.stats().hits, 1u);
}

TEST(Workspace, DestructorReleasesEverything) {
  Arena a;
  {
    Workspace ws(a);
    (void)ws.make<double>(512);
    (void)ws.make<double>(2048);
    EXPECT_EQ(a.stats().outstanding, 2u);
  }
  EXPECT_EQ(a.stats().outstanding, 0u);
}

TEST(PooledBufferTest, ConcurrentAcquireReleaseFromKernels) {
  Arena a;
  const std::size_t n = 2000;
  std::vector<std::uint64_t> sums(n);
  szi::dev::launch_linear(
      n,
      [&](std::size_t i) {
        PooledBuffer buf(a, 256 * sizeof(std::uint32_t));
        auto scratch = buf.as<std::uint32_t>(256);
        for (std::size_t j = 0; j < 256; ++j)
          scratch[j] = static_cast<std::uint32_t>(i + j);
        std::uint64_t s = 0;
        for (std::size_t j = 0; j < 256; ++j) s += scratch[j];
        sums[i] = s;
      },
      16);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(sums[i], 256 * i + (255 * 256) / 2);
  EXPECT_EQ(a.stats().outstanding, 0u);
}

TEST(Arena, TracksHeldAndHighWaterBytes) {
  Arena a;
  std::size_t cap1 = 0, cap2 = 0;
  std::byte* p = a.acquire(5000, cap1);
  std::byte* q = a.acquire(50000, cap2);
  auto st = a.stats();
  EXPECT_EQ(st.outstanding_bytes, cap1 + cap2);
  EXPECT_EQ(st.held_bytes, cap1 + cap2);
  EXPECT_EQ(st.high_water_bytes, cap1 + cap2);

  a.release(p, cap1);
  a.release(q, cap2);
  st = a.stats();
  EXPECT_EQ(st.outstanding_bytes, 0u);
  // Released blocks stay pooled: the OS footprint (held) is unchanged, and
  // the peak never drops on release.
  EXPECT_EQ(st.held_bytes, cap1 + cap2);
  EXPECT_EQ(st.high_water_bytes, cap1 + cap2);

  // A pool hit recycles held bytes: no new footprint, no new peak.
  std::size_t cap3 = 0;
  std::byte* r = a.acquire(cap2, cap3);
  EXPECT_EQ(a.stats().held_bytes, cap1 + cap2);
  EXPECT_EQ(a.stats().high_water_bytes, cap1 + cap2);
  a.release(r, cap3);

  a.trim();
  st = a.stats();
  EXPECT_EQ(st.held_bytes, 0u);
  EXPECT_EQ(st.high_water_bytes, cap1 + cap2);  // trim never lowers the peak

  a.reset_high_water();
  EXPECT_EQ(a.stats().high_water_bytes, 0u);  // restarts from held (now 0)
}

TEST(Arena, TrimAllReleasesPooledAcrossGlobalArenas) {
  {
    Workspace ws(Arena::instance());
    (void)ws.make<float>(4096);
    Workspace ws3(Arena::shard(3));
    (void)ws3.make<float>(4096);
  }
  const auto before = Arena::aggregate_stats();
  EXPECT_GT(before.pooled_bytes, 0u);
  EXPECT_GT(before.held_bytes, 0u);
  EXPECT_GT(before.high_water_bytes, 0u);

  const std::size_t released = Arena::trim_all();
  EXPECT_GT(released, 0u);
  const auto after = Arena::aggregate_stats();
  EXPECT_EQ(after.pooled_bytes, 0u);
  EXPECT_EQ(after.held_bytes, before.held_bytes - released);
  EXPECT_GE(after.high_water_bytes, before.high_water_bytes);

  Arena::reset_high_water_all();
  const auto reset = Arena::aggregate_stats();
  EXPECT_EQ(reset.high_water_bytes, reset.held_bytes);
}

}  // namespace
