// Device substrate tests: pool scheduling, exception propagation, scan /
// reduce / compaction correctness, index arithmetic.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "device/compaction.hh"
#include "device/dims.hh"
#include "device/launch.hh"
#include "device/reduce.hh"
#include "device/scan.hh"
#include "device/thread_pool.hh"

namespace {

using namespace szi::dev;

TEST(Dims, LinearizeRoundTrip) {
  const Dim3 dims{7, 5, 3};
  for (std::size_t i = 0; i < dims.volume(); ++i) {
    const Coord3 c = delinearize(dims, i);
    EXPECT_EQ(linearize(dims, c.x, c.y, c.z), i);
  }
}

TEST(Dims, Rank) {
  EXPECT_EQ((Dim3{5, 1, 1}.rank()), 1);
  EXPECT_EQ((Dim3{5, 2, 1}.rank()), 2);
  EXPECT_EQ((Dim3{5, 1, 2}.rank()), 3);  // z > 1 forces rank 3
  EXPECT_EQ((Dim3{1, 1, 1}.rank()), 1);
}

TEST(Dims, GridFor) {
  const Dim3 g = grid_for({65, 8, 9}, {32, 8, 8});
  EXPECT_EQ(g, (Dim3{3, 1, 2}));
}

TEST(ThreadPool, CoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; }, 7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ManySmallLaunches) {
  ThreadPool pool(3);
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(round + 1, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(),
              static_cast<std::size_t>(round) * (round + 1) / 2);
  }
}

TEST(ThreadPool, PropagatesWorkerExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   1000,
                   [&](std::size_t i) {
                     if (i == 567) throw std::runtime_error("boom");
                   },
                   1),
               std::runtime_error);
  // Pool must stay usable after a failed launch.
  std::atomic<int> n{0};
  pool.parallel_for(100, [&](std::size_t) { n++; });
  EXPECT_EQ(n.load(), 100);
}

TEST(ThreadPool, NestedLaunchesCompleteOnBothPools) {
  ThreadPool pool(2);
  std::atomic<int> n{0};
  std::atomic<int> m{0};
  pool.parallel_for(8, [&](std::size_t) {
    // A kernel launching a kernel — on the global pool and on its own —
    // must not deadlock either pool, and every nested index runs once.
    ThreadPool::instance().parallel_for(10, [&](std::size_t) { n++; });
    pool.parallel_for(10, [&](std::size_t) { m++; });
  });
  EXPECT_EQ(n.load(), 80);
  EXPECT_EQ(m.load(), 80);
}

TEST(Scan, MatchesSerial) {
  std::vector<std::uint64_t> in(100001);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = (i * 37) % 11;
  std::vector<std::uint64_t> out(in.size());
  const auto total = exclusive_scan<std::uint64_t>(in, out, 1000);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], acc);
    acc += in[i];
  }
  EXPECT_EQ(total, acc);
}

TEST(Scan, EmptyAndSingle) {
  std::vector<int> in, out;
  EXPECT_EQ(exclusive_scan<int>(in, out), 0);
  in = {42};
  out.resize(1);
  EXPECT_EQ(exclusive_scan<int>(in, out), 42);
  EXPECT_EQ(out[0], 0);
}

TEST(Reduce, SumAndMinMax) {
  std::vector<float> v(54321);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<float>((i * 7919) % 1000) - 500.0f;
  const auto mm = minmax<float>(v);
  EXPECT_EQ(mm.min, *std::min_element(v.begin(), v.end()));
  EXPECT_EQ(mm.max, *std::max_element(v.begin(), v.end()));
  std::vector<double> dv(v.begin(), v.end());
  const auto s = reduce<double>(dv, 0.0, [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(s, std::accumulate(v.begin(), v.end(), 0.0));
}

TEST(Compaction, OrderPreserving) {
  const std::size_t n = 100000;
  std::vector<std::size_t> picked;
  std::vector<std::size_t> out(n);
  const auto total = compact_indices(
      n, [](std::size_t i) { return i % 7 == 0; },
      [&](std::size_t i, std::size_t slot) { out[slot] = i; }, 1024);
  EXPECT_EQ(total, (n + 6) / 7);
  for (std::size_t k = 0; k + 1 < total; ++k) EXPECT_LT(out[k], out[k + 1]);
  for (std::size_t k = 0; k < total; ++k) EXPECT_EQ(out[k] % 7, 0u);
}

TEST(Compaction, UnorderedCountsMatch) {
  const std::size_t n = 50000;
  std::vector<char> seen(n, 0);
  const auto total = compact_indices_unordered(
      n, [](std::size_t i) { return i % 3 == 1; },
      [&](std::size_t i, std::size_t) { seen[i] = 1; });
  EXPECT_EQ(total, n / 3 + (n % 3 >= 2 ? 1 : 0));
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i] == 1, i % 3 == 1);
}

TEST(Launch, BlocksCoverGrid) {
  std::atomic<std::size_t> count{0};
  std::vector<std::atomic<int>> hit(3 * 4 * 5);
  launch_blocks({3, 4, 5}, [&](const BlockIdx& b) {
    count++;
    hit[b.linear]++;
    EXPECT_EQ(b.linear, (b.z * 4 + b.y) * 3 + b.x);
  });
  EXPECT_EQ(count.load(), 60u);
  for (auto& h : hit) EXPECT_EQ(h.load(), 1);
}

// The decoders rely on exceptions thrown inside plain (synchronous) launch
// workers reaching the caller — e.g. huffman::decode_chunks throwing
// core::CorruptArchive from a pool worker. The TaskGroup tests cover the
// asynchronous path; these cover the sync launches.
TEST(Launch, LinearExceptionPropagatesToCaller) {
  EXPECT_THROW(
      launch_linear(
          10000,
          [](std::size_t i) {
            if (i == 8191) throw std::invalid_argument("bad element");
          },
          16),
      std::invalid_argument);
}

TEST(Launch, BlocksExceptionPropagatesToCaller) {
  EXPECT_THROW(launch_blocks({8, 8, 8},
                             [](const BlockIdx& b) {
                               if (b.linear == 300)
                                 throw std::runtime_error("bad block");
                             }),
               std::runtime_error);
}

TEST(Launch, LaunchUsableAfterWorkerException) {
  try {
    launch_linear(
        1000, [](std::size_t) { throw std::runtime_error("poison"); }, 8);
    FAIL() << "exception did not propagate";
  } catch (const std::runtime_error&) {
  }
  // The pool must survive a throwing launch: later launches run normally.
  std::atomic<std::size_t> count{0};
  launch_linear(1000, [&](std::size_t) { count++; }, 8);
  EXPECT_EQ(count.load(), 1000u);
}

}  // namespace
