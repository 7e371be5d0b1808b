// szi::serve — a multi-tenant compression service over the Arena
// substrate.
//
// The one-shot CLI and library entry points serve exactly one request at a
// time; a deployment sees many concurrent compress/decompress/ROI requests
// for fields of mixed sizes. The Service takes them from any number of
// tenant threads and runs them on a fixed set of workers:
//
//   submit_*()  --> bounded queue (backpressure: submit blocks when full),
//                   two FIFOs: decompress/ROI/f64 requests, then f32
//                   compresses — a worker always takes the direct FIFO's
//                   head first, so a burst of compresses never delays the
//                   cheaper, latency-sensitive reads
//   workers     --> worker_count() threads started with the service, each
//                   running one request at a time through the direct
//                   library call on a borrowed shard-local Workspace
//   admission   --> over the workspace budget a request is rejected at
//                   submit (Reject) or held at the queue head until it fits
//                   or nothing is in flight (Queue)
//
// GPU batch front ends (cuSZ+, Tian et al. 2021) coalesce requests to
// amortize kernel-launch cost; host threads pay no such cost, so every
// request is dispatched on its own and a long compress occupies one worker,
// not the service.
//
// Outputs are byte-identical to the direct library calls — the service only
// changes *when* work runs, never *what* runs (test_serve and
// bench/serve_load's worker-count sweep enforce this). At one pool worker
// the service runs inline: submit() executes the request on the caller's
// thread, with no worker threads and no queue, same bytes.
//
// Failure isolation: one bad field fails only its own request
// (Status::Failed with the exception text); every other request completes.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/compressor_iface.hh"
#include "device/arena.hh"
#include "device/dims.hh"

namespace szi::serve {

struct ServeConfig {
  /// Total queued requests across both FIFOs before submit() blocks — the
  /// backpressure bound that keeps an open-loop overload from ballooning
  /// memory. Must be >= 1.
  std::size_t queue_capacity = 1024;

  /// Workspace budget for admission control, in bytes; 0 = unlimited.
  /// Budgeted against the pooled arenas' held bytes
  /// (Arena::aggregate_stats().held_bytes) plus the estimated footprint of
  /// the requests in flight.
  std::size_t workspace_budget_bytes = 0;

  /// Over-budget behavior. Queue: trim the pools, then hold the queue head
  /// until it fits or nothing is in flight (a lone request always
  /// dispatches — holding it with nothing in flight would starve). Reject:
  /// submit() fails the request immediately with Status::Rejected, never
  /// blocking on budget.
  enum class OverBudget { Queue, Reject };
  OverBudget over_budget = OverBudget::Queue;
};

enum class Status : std::uint8_t { Ok, Rejected, Failed };

/// Completed request. Exactly one of archive/data is populated on Ok,
/// matching the request kind; `error` carries the exception text on Failed
/// and the rejection reason on Rejected.
struct Response {
  Status status = Status::Ok;
  std::string error;
  std::vector<std::byte> archive;  ///< compress output
  std::vector<float> data;         ///< f32 decompress/ROI output
  std::vector<double> data_f64;    ///< f64 decompress output
  std::size_t bytes_in = 0;
  std::size_t bytes_out = 0;
  double queue_seconds = 0;    ///< submit -> dispatch
  double service_seconds = 0;  ///< dispatch -> completion
  double total_seconds = 0;    ///< submit -> completion
};

namespace detail {
struct RequestState;
}  // namespace detail

/// Future-like handle for a submitted request. Copyable; copies share the
/// completion state. Default-constructed tickets are empty (valid() false).
class Ticket {
 public:
  Ticket() = default;

  [[nodiscard]] bool valid() const { return st_ != nullptr; }

  /// Blocks until the request completes; returns the response (stable
  /// reference, alive as long as any ticket copy).
  const Response& wait() const;

  /// Non-blocking completion check.
  [[nodiscard]] bool ready() const;

 private:
  friend class Service;
  explicit Ticket(std::shared_ptr<detail::RequestState> st)
      : st_(std::move(st)) {}
  std::shared_ptr<detail::RequestState> st_;
};

/// Per-tenant accounting, returned by Service::tenant_stats().
struct TenantStats {
  std::uint64_t requests = 0;   ///< accepted (Ok + Failed)
  std::uint64_t rejected = 0;   ///< admission-rejected
  std::uint64_t failed = 0;     ///< completed with Status::Failed
  std::uint64_t bytes_in = 0;   ///< request payload bytes
  std::uint64_t bytes_out = 0;  ///< response payload bytes
  double busy_seconds = 0;      ///< summed service time
  double queue_seconds = 0;     ///< summed queue wait
};

/// Whole-service counters, returned by Service::stats().
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t waves = 0;  ///< requests dispatched to a worker (or inline)
  /// Always 0: requests are never batched. Kept for readers of the
  /// earlier wave-coalescing counters.
  std::uint64_t coalesced = 0;
  /// Requests found over the workspace budget at dispatch (Queue flavor):
  /// each trimmed the pools and, with work in flight, waited for it.
  std::uint64_t admission_deferrals = 0;
  std::uint64_t admission_rejects = 0;    ///< requests rejected for budget
  std::size_t peak_inflight_estimate = 0;  ///< estimator bytes, peak
  /// Arena::aggregate_stats().high_water_bytes at the time of the call —
  /// the real peak workspace footprint behind the estimates.
  std::size_t arena_high_water_bytes = 0;
};

/// The service. One instance owns worker_count() worker threads (none in
/// inline mode) and serves any number of concurrently submitting tenants.
///
/// Lifetime: request payloads (`data`, `archive` spans) are borrowed — the
/// caller must keep them alive until the request's ticket completes.
/// Destruction drains: every accepted request completes before the
/// destructor returns.
class Service {
 public:
  explicit Service(ServeConfig cfg = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Compress an f32 field to a cuSZ-i archive (byte-identical to
  /// cuszi_compress / Compressor::compress with the same params).
  [[nodiscard]] Ticket submit_compress(std::string tenant,
                                       std::span<const float> data,
                                       const dev::Dim3& dims,
                                       const CompressParams& params);

  /// Compress an f64 field. f64 compresses share the direct FIFO with the
  /// decompress/ROI requests.
  [[nodiscard]] Ticket submit_compress_f64(std::string tenant,
                                           std::span<const double> data,
                                           const dev::Dim3& dims,
                                           const CompressParams& params);

  /// Decompress a cuSZ-i archive (SZI1/SZI2, raw or de-redundancy-wrapped
  /// — dispatched on the magic, like the CLI).
  [[nodiscard]] Ticket submit_decompress(std::string tenant,
                                         std::span<const std::byte> archive);
  [[nodiscard]] Ticket submit_decompress_f64(
      std::string tenant, std::span<const std::byte> archive);

  /// Random-access ROI decode of the box from a cuSZ-i archive.
  [[nodiscard]] Ticket submit_roi(std::string tenant,
                                  std::span<const std::byte> archive,
                                  const RoiBox& box);

  /// Blocks until every accepted request has completed.
  void drain();

  /// True when this instance executes requests inline on the submitting
  /// thread: exactly when the thread pool has at most one worker.
  [[nodiscard]] bool inline_mode() const { return inline_; }

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] TenantStats tenant_stats(const std::string& tenant) const;
  [[nodiscard]] std::vector<std::pair<std::string, TenantStats>>
  all_tenant_stats() const;

  /// Estimated transient workspace bytes a request pins while in service —
  /// what admission control budgets with. Deliberately conservative (the
  /// arenas round up to power-of-two buckets and pipelines hold several
  /// intermediates at once).
  [[nodiscard]] static std::size_t estimate_workspace_bytes(
      std::size_t payload_bytes);

 private:
  using ReqPtr = std::shared_ptr<detail::RequestState>;

  Ticket enqueue(ReqPtr req);
  /// Stops the workers once the queue is empty and joins them.
  void stop_workers();
  void worker_loop();
  /// Pops the next request to run, or null once stopped and empty. Takes
  /// the direct FIFO's head before the compress FIFO's and holds an
  /// over-budget head (Queue flavor) while work is in flight.
  ReqPtr next_request(std::unique_lock<std::mutex>& lk);
  /// Queue-flavor admission for `req` under mu_: trims the pools when it is
  /// over budget; false while it still does not fit and work is in flight.
  bool admit(detail::RequestState& req);
  void mark_dispatched(const ReqPtr& req);
  void run(const ReqPtr& req, dev::Workspace& ws);

  ServeConfig cfg_;
  bool inline_ = false;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   ///< workers: work queued / retired / stop
  std::condition_variable cv_space_;  ///< submitters: queue has capacity
  std::condition_variable cv_drain_;  ///< drain(): all work retired
  std::deque<ReqPtr> direct_q_;    ///< decompress / ROI / f64 compress
  std::deque<ReqPtr> compress_q_;  ///< f32 compress
  std::size_t inflight_ = 0;           ///< requests dispatched, not finished
  std::size_t inflight_estimate_ = 0;  ///< estimator bytes in flight
  bool stop_ = false;
  /// One Workspace per worker, each over its own arena shard so workers
  /// never contend on one free list. A worker borrows the most recently
  /// returned one: at low load successive requests reuse the same warm
  /// pages instead of faulting in a cold shard per worker.
  std::deque<dev::Workspace> spaces_;
  std::vector<dev::Workspace*> free_spaces_;  ///< (mu_) last = warmest

  mutable std::mutex stats_mu_;
  ServiceStats stats_;
  std::map<std::string, TenantStats> tenants_;

  std::vector<std::thread> workers_;
};

}  // namespace szi::serve
