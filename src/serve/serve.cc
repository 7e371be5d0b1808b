#include "serve/serve.hh"

#include <algorithm>
#include <cstring>
#include <exception>
#include <utility>

#include "core/cuszi.hh"
#include "device/arena.hh"
#include "device/thread_pool.hh"

namespace szi::serve {

namespace detail {

/// One submitted request, shared between its Ticket copies and the service.
struct RequestState {
  enum class Kind : std::uint8_t {
    CompressF32,  ///< the compress FIFO; every other kind is direct
    CompressF64,
    DecompressF32,
    DecompressF64,
    Roi,
  };

  Kind kind = Kind::CompressF32;
  std::string tenant;

  // Borrowed payloads — the caller keeps them alive until completion.
  std::span<const float> f32;
  std::span<const double> f64;
  std::span<const std::byte> archive;
  dev::Dim3 dims;
  CompressParams params{};
  RoiBox box{};

  std::size_t payload_bytes = 0;
  std::size_t ws_estimate = 0;
  bool over_budget = false;  ///< counted as an admission deferral (mu_)

  std::chrono::steady_clock::time_point submitted{};
  std::chrono::steady_clock::time_point dispatched{};

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Response resp;
};

}  // namespace detail

namespace {

using detail::RequestState;
using Kind = RequestState::Kind;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint32_t peek_magic(std::span<const std::byte> bytes) {
  std::uint32_t magic = 0;
  if (bytes.size() >= sizeof(magic))
    std::memcpy(&magic, bytes.data(), sizeof(magic));
  return magic;
}

/// Executes one request body through the direct library call, drawing
/// scratch from `ws`. Fills resp.{archive,data,...}; exceptions propagate
/// to the caller, which parks them in the response.
void run_request_body(RequestState& st, dev::Workspace& ws) {
  switch (st.kind) {
    case Kind::CompressF32:
      st.resp.archive = cuszi_compress(st.f32, st.dims, st.params,
                                       /*timings=*/nullptr, ws);
      st.resp.bytes_out = st.resp.archive.size();
      break;
    case Kind::CompressF64:
      st.resp.archive = cuszi_compress(st.f64, st.dims, st.params,
                                       /*timings=*/nullptr, ws);
      st.resp.bytes_out = st.resp.archive.size();
      break;
    case Kind::DecompressF32: {
      const std::uint32_t magic = peek_magic(st.archive);
      if (magic == kBitcompWrapMagic || magic == kBitcompWrapMagicV2)
        st.resp.data = cuszi_decompress_bitcomp_f32(st.archive, ws);
      else
        st.resp.data = cuszi_decompress_f32(st.archive, ws);
      st.resp.bytes_out = st.resp.data.size() * sizeof(float);
      break;
    }
    case Kind::DecompressF64: {
      const std::uint32_t magic = peek_magic(st.archive);
      if (magic == kBitcompWrapMagic || magic == kBitcompWrapMagicV2)
        st.resp.data_f64 = cuszi_decompress_bitcomp_f64(st.archive, ws);
      else
        st.resp.data_f64 = cuszi_decompress_f64(st.archive, ws);
      st.resp.bytes_out = st.resp.data_f64.size() * sizeof(double);
      break;
    }
    case Kind::Roi: {
      auto r = cuszi_decompress_roi_f32(st.archive, st.box);
      st.resp.data = std::move(r.data);
      st.resp.bytes_out = st.resp.data.size() * sizeof(float);
      break;
    }
  }
}

std::string describe(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

void stamp_times(RequestState& st) {
  const auto now = Clock::now();
  st.resp.queue_seconds = seconds_between(st.submitted, st.dispatched);
  st.resp.service_seconds = seconds_between(st.dispatched, now);
  st.resp.total_seconds = seconds_between(st.submitted, now);
}

}  // namespace

// ---------------------------------------------------------------------------
// Ticket

const Response& Ticket::wait() const {
  std::unique_lock lk(st_->mu);
  st_->cv.wait(lk, [&] { return st_->done; });
  return st_->resp;
}

bool Ticket::ready() const {
  std::lock_guard lk(st_->mu);
  return st_->done;
}

// ---------------------------------------------------------------------------
// Service

std::size_t Service::estimate_workspace_bytes(std::size_t payload_bytes) {
  // The compress pipeline holds quant codes, per-level code buckets, the
  // Huffman streams, and the assembled archive at once; decompress holds
  // codes plus the reconstruction. ~6x the payload, plus a fixed floor for
  // histograms/codebooks/chunk tables, bounds both (the arenas round up to
  // power-of-two buckets, which the factor absorbs).
  return 6 * payload_bytes + (std::size_t{1} << 20);
}

Service::Service(ServeConfig cfg) : cfg_(cfg) {
  cfg_.queue_capacity = std::max<std::size_t>(1, cfg_.queue_capacity);
  const std::size_t n = dev::ThreadPool::instance().worker_count();
  inline_ = n <= 1;
  for (std::size_t i = 0; !inline_ && i < n; ++i)
    free_spaces_.push_back(&spaces_.emplace_back(dev::Arena::shard(i)));
  try {
    for (std::size_t i = 0; !inline_ && i < n; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    stop_workers();  // a thread failed to start: join the ones that did
    throw;
  }
}

Service::~Service() { stop_workers(); }

void Service::stop_workers() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

Ticket Service::submit_compress(std::string tenant, std::span<const float> data,
                                const dev::Dim3& dims,
                                const CompressParams& params) {
  auto st = std::make_shared<RequestState>();
  st->kind = Kind::CompressF32;
  st->tenant = std::move(tenant);
  st->f32 = data;
  st->dims = dims;
  st->params = params;
  st->payload_bytes = data.size_bytes();
  return enqueue(std::move(st));
}

Ticket Service::submit_compress_f64(std::string tenant,
                                    std::span<const double> data,
                                    const dev::Dim3& dims,
                                    const CompressParams& params) {
  auto st = std::make_shared<RequestState>();
  st->kind = Kind::CompressF64;
  st->tenant = std::move(tenant);
  st->f64 = data;
  st->dims = dims;
  st->params = params;
  st->payload_bytes = data.size_bytes();
  return enqueue(std::move(st));
}

Ticket Service::submit_decompress(std::string tenant,
                                  std::span<const std::byte> archive) {
  auto st = std::make_shared<RequestState>();
  st->kind = Kind::DecompressF32;
  st->tenant = std::move(tenant);
  st->archive = archive;
  st->payload_bytes = archive.size();
  return enqueue(std::move(st));
}

Ticket Service::submit_decompress_f64(std::string tenant,
                                      std::span<const std::byte> archive) {
  auto st = std::make_shared<RequestState>();
  st->kind = Kind::DecompressF64;
  st->tenant = std::move(tenant);
  st->archive = archive;
  st->payload_bytes = archive.size();
  return enqueue(std::move(st));
}

Ticket Service::submit_roi(std::string tenant,
                           std::span<const std::byte> archive,
                           const RoiBox& box) {
  auto st = std::make_shared<RequestState>();
  st->kind = Kind::Roi;
  st->tenant = std::move(tenant);
  st->archive = archive;
  st->box = box;
  // The indexed ROI path's working set is bounded by the halo'd box, not
  // the archive — budget the box.
  st->payload_bytes = box.ext.volume() * sizeof(float);
  return enqueue(std::move(st));
}

Ticket Service::enqueue(ReqPtr req) {
  req->submitted = Clock::now();
  req->ws_estimate = estimate_workspace_bytes(req->payload_bytes);
  req->resp.bytes_in = req->payload_bytes;

  {
    std::lock_guard lk(stats_mu_);
    ++stats_.submitted;
  }

  // Admission control, Reject flavor: fail fast when the pooled arenas plus
  // the estimated in-flight work would breach the budget. The Queue flavor
  // decides at dispatch (admit()).
  if (cfg_.workspace_budget_bytes > 0 &&
      cfg_.over_budget == ServeConfig::OverBudget::Reject) {
    std::size_t inflight_est;
    {
      std::lock_guard lk(mu_);
      inflight_est = inflight_estimate_;
    }
    const std::size_t held = dev::Arena::aggregate_stats().held_bytes;
    if (held + inflight_est + req->ws_estimate > cfg_.workspace_budget_bytes) {
      req->resp.status = Status::Rejected;
      req->resp.error = "admission: workspace budget exceeded";
      {
        std::lock_guard lk(req->mu);
        req->done = true;
      }
      std::lock_guard lk(stats_mu_);
      ++stats_.rejected;
      ++stats_.admission_rejects;
      auto& t = tenants_[req->tenant];
      ++t.rejected;
      return Ticket(std::move(req));
    }
  }

  if (inline_) {
    // The caller's thread is the worker. There is no queue to hold the
    // request in, so an over-budget request only trims the pools.
    {
      std::lock_guard lk(mu_);
      (void)admit(*req);
      mark_dispatched(req);
    }
    dev::Workspace ws(dev::Arena::instance());
    run(req, ws);
    return Ticket(std::move(req));
  }

  {
    std::unique_lock lk(mu_);
    // Backpressure: a full queue blocks the submitter until a worker takes
    // a request. Tenants pushing an open-loop overload are slowed at the
    // door instead of ballooning the queue.
    cv_space_.wait(lk, [&] {
      return direct_q_.size() + compress_q_.size() < cfg_.queue_capacity ||
             stop_;
    });
    (req->kind == Kind::CompressF32 ? compress_q_ : direct_q_).push_back(req);
  }
  cv_work_.notify_one();
  return Ticket(std::move(req));
}

bool Service::admit(RequestState& req) {
  if (cfg_.workspace_budget_bytes == 0 ||
      cfg_.over_budget != ServeConfig::OverBudget::Queue)
    return true;
  const auto fits = [&] {
    return dev::Arena::aggregate_stats().held_bytes + inflight_estimate_ +
               req.ws_estimate <=
           cfg_.workspace_budget_bytes;
  };
  if (fits()) return true;
  if (!req.over_budget) {
    req.over_budget = true;
    std::lock_guard lk(stats_mu_);
    ++stats_.admission_deferrals;
  }
  dev::Arena::trim_all();
  return fits() || inflight_ == 0;
}

Service::ReqPtr Service::next_request(std::unique_lock<std::mutex>& lk) {
  for (;;) {
    auto& q = direct_q_.empty() ? compress_q_ : direct_q_;
    if (q.empty()) {
      if (stop_) return nullptr;
    } else if (admit(*q.front())) {
      ReqPtr req = std::move(q.front());
      q.pop_front();
      return req;
    }
    cv_work_.wait(lk);
  }
}

void Service::mark_dispatched(const ReqPtr& req) {
  // Caller holds mu_. The dispatch counter lands before the request can
  // retire, so stats() after drain() sees every dispatched request.
  req->dispatched = Clock::now();
  ++inflight_;
  inflight_estimate_ += req->ws_estimate;
  std::lock_guard lk(stats_mu_);
  ++stats_.waves;
  stats_.peak_inflight_estimate =
      std::max(stats_.peak_inflight_estimate, inflight_estimate_);
}

void Service::worker_loop() {
  for (;;) {
    ReqPtr req;
    dev::Workspace* ws = nullptr;
    {
      std::unique_lock lk(mu_);
      req = next_request(lk);
      if (!req) return;
      mark_dispatched(req);
      ws = free_spaces_.back();
      free_spaces_.pop_back();
    }
    cv_space_.notify_one();
    run(req, *ws);
    std::lock_guard lk(mu_);
    free_spaces_.push_back(ws);
  }
}

void Service::run(const ReqPtr& req, dev::Workspace& ws) {
  try {
    run_request_body(*req, ws);
  } catch (...) {
    req->resp.status = Status::Failed;
    req->resp.error = describe(std::current_exception());
    // The failed body may have left blocks mid-flight in the workspace.
    ws.reset();
  }
  stamp_times(*req);
  {
    std::lock_guard lk(stats_mu_);
    ++stats_.completed;
    auto& t = tenants_[req->tenant];
    ++t.requests;
    if (req->resp.status == Status::Failed) {
      ++stats_.failed;
      ++t.failed;
    }
    t.bytes_in += req->resp.bytes_in;
    t.bytes_out += req->resp.bytes_out;
    t.busy_seconds += req->resp.service_seconds;
    t.queue_seconds += req->resp.queue_seconds;
  }
  {
    std::lock_guard lk(req->mu);
    req->done = true;
  }
  req->cv.notify_all();

  bool idle;
  {
    std::lock_guard lk(mu_);
    --inflight_;
    inflight_estimate_ -= req->ws_estimate;
    idle = inflight_ == 0 && direct_q_.empty() && compress_q_.empty();
  }
  // A head held for budget may fit now that this request retired.
  if (cfg_.workspace_budget_bytes > 0) cv_work_.notify_all();
  if (idle) cv_drain_.notify_all();
}

void Service::drain() {
  std::unique_lock lk(mu_);
  cv_drain_.wait(lk, [&] {
    return inflight_ == 0 && direct_q_.empty() && compress_q_.empty();
  });
}

ServiceStats Service::stats() const {
  std::lock_guard lk(stats_mu_);
  ServiceStats s = stats_;
  s.arena_high_water_bytes =
      dev::Arena::aggregate_stats().high_water_bytes;
  return s;
}

TenantStats Service::tenant_stats(const std::string& tenant) const {
  std::lock_guard lk(stats_mu_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantStats{} : it->second;
}

std::vector<std::pair<std::string, TenantStats>> Service::all_tenant_stats()
    const {
  std::lock_guard lk(stats_mu_);
  return {tenants_.begin(), tenants_.end()};
}

}  // namespace szi::serve
