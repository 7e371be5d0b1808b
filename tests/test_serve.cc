// szi::serve — the multi-tenant service must change *when* work runs,
// never *what* runs: every response here is checked byte-for-byte against
// the direct library call. The concurrency tests (concurrent submit/drain,
// backpressure, a decompress overtaking a running compress) are the tsan
// targets; the admission and failure-isolation tests pin the workers'
// control decisions. The serve_1thread and serve_4threads ctest instances
// run this suite inline and with four workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "core/cuszi.hh"
#include "datagen/datasets.hh"
#include "device/arena.hh"
#include "device/thread_pool.hh"
#include "serve/serve.hh"

namespace szi {
namespace {

using serve::ServeConfig;
using serve::Service;
using serve::Status;
using serve::Ticket;

CompressParams rel3() { return {ErrorMode::Rel, 1e-3}; }

/// A small smooth field (cheap to compress, still exercises every level).
Field small_field(std::size_t nx = 24, std::size_t ny = 20,
                  std::size_t nz = 16, float phase = 0.f) {
  Field f("serve", "synth", {nx, ny, nz});
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x)
        f.at(x, y, z) = std::sin(0.3f * float(x) + phase) +
                        std::cos(0.2f * float(y)) * float(z + 1) * 0.05f;
  return f;
}

TEST(Serve, CompressBytesIdenticalToDirectCall) {
  Service svc;
  std::vector<Field> fields;
  for (int i = 0; i < 6; ++i)
    fields.push_back(small_field(24 + 4 * std::size_t(i % 3), 20, 16,
                                 0.1f * float(i)));
  std::vector<Ticket> tickets;
  for (const auto& f : fields)
    tickets.push_back(svc.submit_compress("t0", f.view(), f.dims, rel3()));
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const auto& r = tickets[i].wait();
    ASSERT_EQ(r.status, Status::Ok) << r.error;
    const auto direct =
        cuszi_compress(fields[i].view(), fields[i].dims, rel3());
    EXPECT_EQ(r.archive, direct) << "field " << i;
    EXPECT_EQ(r.bytes_in, fields[i].bytes());
    EXPECT_EQ(r.bytes_out, direct.size());
  }
}

TEST(Serve, DecompressAndRoiMatchDirectCalls) {
  Service svc;
  const Field f = small_field();
  const auto archive = cuszi_compress(f.view(), f.dims, rel3());
  const auto direct = cuszi_decompress_f32(archive);

  auto td = svc.submit_decompress("t0", archive);
  const RoiBox box{{3, 2, 1}, {8, 6, 5}};
  auto troi = svc.submit_roi("t0", archive, box);

  const auto& rd = td.wait();
  ASSERT_EQ(rd.status, Status::Ok) << rd.error;
  EXPECT_EQ(rd.data, direct);

  const auto roi_direct = cuszi_decompress_roi_f32(archive, box);
  const auto& rr = troi.wait();
  ASSERT_EQ(rr.status, Status::Ok) << rr.error;
  EXPECT_EQ(rr.data, roi_direct.data);
}

TEST(Serve, F64RoundTripThroughService) {
  Service svc;
  std::vector<double> data(24 * 20 * 16);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = std::sin(0.01 * double(i));
  const dev::Dim3 dims{24, 20, 16};
  auto tc = svc.submit_compress_f64("t0", data, dims, rel3());
  const auto& rc = tc.wait();
  ASSERT_EQ(rc.status, Status::Ok) << rc.error;
  EXPECT_EQ(rc.archive, cuszi_compress(std::span<const double>(data), dims,
                                       rel3()));
  auto tdec = svc.submit_decompress_f64("t0", rc.archive);
  const auto& rdec = tdec.wait();
  ASSERT_EQ(rdec.status, Status::Ok) << rdec.error;
  EXPECT_EQ(rdec.data_f64, cuszi_decompress_f64(rc.archive));
}

TEST(Serve, InlineModeProducesIdenticalBytes) {
  Service svc;
  EXPECT_EQ(svc.inline_mode(),
            dev::ThreadPool::instance().worker_count() <= 1);
  const Field f = small_field();
  auto t = svc.submit_compress("t0", f.view(), f.dims, rel3());
  if (svc.inline_mode()) {
    EXPECT_TRUE(t.ready());  // completed inside submit()
  }
  const auto& r = t.wait();
  ASSERT_EQ(r.status, Status::Ok) << r.error;
  EXPECT_EQ(r.archive, cuszi_compress(f.view(), f.dims, rel3()));
  auto td = svc.submit_decompress("t0", r.archive);
  EXPECT_EQ(td.wait().data, cuszi_decompress_f32(r.archive));
}

TEST(Serve, SmallDecompressCompletesWhileBigCompressRuns) {
  if (dev::ThreadPool::instance().worker_count() < 2)
    GTEST_SKIP() << "needs two workers; inline mode runs one request at a time";
  Service svc;
  const Field big = small_field(256, 256, 256);
  const Field f = small_field();
  const auto archive = cuszi_compress(f.view(), f.dims, rel3());
  auto tc = svc.submit_compress("t0", big.view(), big.dims, rel3());
  // Let a worker take the compress before the decompress arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto td = svc.submit_decompress("t0", archive);
  while (!td.ready()) std::this_thread::yield();
  // A free worker served the decompress; it did not queue behind the
  // compress.
  EXPECT_FALSE(tc.ready());
  EXPECT_EQ(td.wait().data, cuszi_decompress_f32(archive));
  EXPECT_EQ(tc.wait().status, Status::Ok);
}

TEST(Serve, FailedRequestFailsOnlyItself) {
  Service svc;
  const Field big = small_field(96, 96, 96);
  const Field good = small_field();
  Field corrupt = small_field();  // same size class as `good`
  std::fill(corrupt.data.begin(), corrupt.data.end(), 1.f);
  // Constant field under Rel: value range 0 -> non-positive absolute bound.

  auto t0 = svc.submit_compress("t0", big.view(), big.dims, rel3());
  auto t1 = svc.submit_compress("t0", good.view(), good.dims, rel3());
  auto t2 = svc.submit_compress("t0", corrupt.view(), corrupt.dims, rel3());
  auto t3 = svc.submit_compress("t0", good.view(), good.dims, rel3());

  EXPECT_EQ(t0.wait().status, Status::Ok);
  EXPECT_EQ(t1.wait().status, Status::Ok);
  const auto& bad = t2.wait();
  EXPECT_EQ(bad.status, Status::Failed);
  EXPECT_NE(bad.error.find("error bound"), std::string::npos) << bad.error;
  const auto& after = t3.wait();
  ASSERT_EQ(after.status, Status::Ok) << after.error;
  EXPECT_EQ(after.archive, cuszi_compress(good.view(), good.dims, rel3()));
  const auto s = svc.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 4u);
}

// perfbench reads `waves` and `coalesced`: every dispatched request counts
// once, failures included, and nothing is ever batched.
TEST(Serve, StatsCountEachDispatchedRequestOnce) {
  Service svc;
  const Field f = small_field();
  Field corrupt = small_field();
  std::fill(corrupt.data.begin(), corrupt.data.end(), 1.f);
  const auto archive = cuszi_compress(f.view(), f.dims, rel3());
  std::vector<Ticket> tickets;
  tickets.push_back(svc.submit_compress("t0", f.view(), f.dims, rel3()));
  tickets.push_back(svc.submit_decompress("t0", archive));
  tickets.push_back(svc.submit_roi("t0", archive, RoiBox{{0, 0, 0}, {4, 4, 4}}));
  tickets.push_back(
      svc.submit_compress("t0", corrupt.view(), corrupt.dims, rel3()));
  tickets.push_back(svc.submit_compress("t1", f.view(), f.dims, rel3()));
  for (auto& t : tickets) (void)t.wait();
  svc.drain();
  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, 5u);
  EXPECT_EQ(s.completed, 5u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.waves, 5u);
  EXPECT_EQ(s.coalesced, 0u);
  EXPECT_EQ(s.admission_deferrals, 0u);
}

TEST(Serve, AdmissionRejectModeRejectsOverBudget) {
  ServeConfig cfg;
  cfg.workspace_budget_bytes = 1;  // nothing fits
  cfg.over_budget = ServeConfig::OverBudget::Reject;
  Service svc(cfg);
  const Field f = small_field();
  auto t = svc.submit_compress("t0", f.view(), f.dims, rel3());
  const auto& r = t.wait();
  EXPECT_EQ(r.status, Status::Rejected);
  EXPECT_NE(r.error.find("budget"), std::string::npos);
  const auto s = svc.stats();
  EXPECT_EQ(s.admission_rejects, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(svc.tenant_stats("t0").rejected, 1u);
}

TEST(Serve, AdmissionQueueModeHoldsOverBudgetButCompletesAll) {
  ServeConfig cfg;
  cfg.workspace_budget_bytes = 1;  // every request over budget
  cfg.over_budget = ServeConfig::OverBudget::Queue;
  Service svc(cfg);
  const Field big = small_field(96, 96, 96);
  const Field small = small_field();
  std::vector<Ticket> tickets;
  tickets.push_back(svc.submit_compress("t0", big.view(), big.dims, rel3()));
  for (int i = 0; i < 6; ++i)
    tickets.push_back(
        svc.submit_compress("t0", small.view(), small.dims, rel3()));
  for (auto& t : tickets) {
    const auto& r = t.wait();
    ASSERT_EQ(r.status, Status::Ok) << r.error;
  }
  svc.drain();
  const auto s = svc.stats();
  EXPECT_EQ(s.completed, 7u);
  EXPECT_EQ(s.admission_deferrals, 7u);  // each one found over budget
  // Held until nothing else was in flight: one request at a time.
  EXPECT_EQ(s.peak_inflight_estimate,
            Service::estimate_workspace_bytes(big.bytes()));
  EXPECT_EQ(tickets[1].wait().archive,
            cuszi_compress(small.view(), small.dims, rel3()));

  // A lone over-budget request still dispatches.
  Service lone(cfg);
  const auto t = lone.submit_compress("t0", small.view(), small.dims, rel3());
  EXPECT_EQ(t.wait().status, Status::Ok) << t.wait().error;
  EXPECT_EQ(lone.stats().admission_deferrals, 1u);
}

TEST(Serve, ConcurrentSubmitAndDrainFromManyTenants) {
  ServeConfig cfg;
  cfg.queue_capacity = 16;  // exercise backpressure under contention
  Service svc(cfg);
  const Field f = small_field();
  const auto archive = cuszi_compress(f.view(), f.dims, rel3());
  const auto direct = cuszi_decompress_f32(archive);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> tenants;
  for (int t = 0; t < kThreads; ++t) {
    tenants.emplace_back([&, t] {
      const std::string name = "tenant" + std::to_string(t);
      // Burst-submit before waiting: 4 x 12 requests against capacity 16
      // forces submit() through the backpressure wait.
      std::vector<std::pair<int, Ticket>> mine;
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 3 == 0)
          mine.emplace_back(i, svc.submit_decompress(name, archive));
        else
          mine.emplace_back(i, svc.submit_compress(name, f.view(), f.dims,
                                                   rel3()));
      }
      for (auto& [i, tk] : mine) {
        const auto& r = tk.wait();
        if (i % 3 == 0) {
          if (r.data != direct) ++mismatches;
        } else {
          if (r.archive != archive) ++mismatches;
        }
      }
    });
  }
  for (auto& th : tenants) th.join();
  svc.drain();
  EXPECT_EQ(mismatches.load(), 0);
  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, std::uint64_t(kThreads * kPerThread));
  EXPECT_EQ(s.completed, std::uint64_t(kThreads * kPerThread));
  EXPECT_EQ(s.failed, 0u);
  for (int t = 0; t < kThreads; ++t) {
    const auto ts = svc.tenant_stats("tenant" + std::to_string(t));
    EXPECT_EQ(ts.requests, std::uint64_t(kPerThread));
    EXPECT_GT(ts.bytes_in, 0u);
    EXPECT_GT(ts.bytes_out, 0u);
    EXPECT_GE(ts.busy_seconds, 0.0);
  }
}

TEST(Serve, PerTenantAccountingSeparatesTenants) {
  Service svc;
  const Field f = small_field();
  auto a = svc.submit_compress("alice", f.view(), f.dims, rel3());
  auto b1 = svc.submit_compress("bob", f.view(), f.dims, rel3());
  auto b2 = svc.submit_compress("bob", f.view(), f.dims, rel3());
  (void)a.wait();
  (void)b1.wait();
  (void)b2.wait();
  EXPECT_EQ(svc.tenant_stats("alice").requests, 1u);
  EXPECT_EQ(svc.tenant_stats("bob").requests, 2u);
  EXPECT_EQ(svc.tenant_stats("bob").bytes_in, 2 * f.bytes());
  EXPECT_EQ(svc.tenant_stats("nobody").requests, 0u);
  EXPECT_EQ(svc.all_tenant_stats().size(), 2u);
  EXPECT_GT(svc.stats().arena_high_water_bytes, 0u);
}

TEST(Serve, DestructionDrainsAcceptedRequests) {
  const Field f = small_field();
  std::vector<Ticket> tickets;
  {
    Service svc;
    for (int i = 0; i < 10; ++i)
      tickets.push_back(svc.submit_compress("t0", f.view(), f.dims, rel3()));
  }  // destructor must complete everything
  for (auto& t : tickets) {
    EXPECT_TRUE(t.ready());
    EXPECT_EQ(t.wait().status, Status::Ok);
  }
}

}  // namespace
}  // namespace szi
