// Open-loop load bench for szi::serve — the service-layer counterpart of
// bench/scaling.cc.
//
// A deterministic Poisson arrival process (fixed-seed exponential gaps)
// submits a mixed workload — f32 compresses over three size classes, f64
// compresses, full decompresses, and ROI decodes — against a Service and
// never waits for completions while submitting (open loop: the arrival
// clock, not the service, paces the offered load). Per-request latency is
// taken from the service's own submit->dispatch->complete stamps.
//
// Two scenarios:
//   default     the default configuration: no workspace budget
//   admission   a workspace budget below the largest request's estimate,
//               Queue flavor — what holding over-budget requests costs
//
// Byte-identity is enforced two ways:
//   1. In-process: every compress response is memcmp'd against the direct
//      cuszi_compress() call, every decompress against cuszi_decompress.
//   2. Cross-worker-count: the pool reads SZI_THREADS once per process, so
//      the parent re-executes itself with `--child` under SZI_THREADS =
//      1, 2, 4, 8 and asserts the FNV-1a hash over all responses (in
//      submission order) matches the 1-worker reference. The 1-worker child
//      runs the service inline; the others run its worker threads.
//
// Writes BENCH_serve.json at the repo root. `--smoke` runs a tiny
// default-scenario workload with no children and no ledger — the CI crash
// gate.
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/cuszi.hh"
#include "datagen/datasets.hh"
#include "device/thread_pool.hh"
#include "serve/serve.hh"

namespace {
using namespace szi;
using serve::ServeConfig;
using serve::Service;
using serve::Status;
using serve::Ticket;

constexpr int kSweep[] = {1, 2, 4, 8};
constexpr std::uint64_t kSeed = 42;
constexpr double kArrivalsPerSec = 600.0;

std::uint64_t fnv1a(const void* p, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The fixed asset set every request draws from: three f32 size classes,
/// one f64 field, and pre-built archives for the
/// decompress/ROI legs.
struct Assets {
  std::vector<Field> f32_fields;                   // small / medium / large
  std::vector<std::vector<std::byte>> f32_direct;  // direct-call archives
  std::vector<double> f64_data;
  dev::Dim3 f64_dims;
  std::vector<std::byte> f64_direct;
  std::vector<float> decomp_direct;  // direct decode of f32_direct[0]
  RoiBox roi_box;
  std::vector<float> roi_direct;
  CompressParams params{ErrorMode::Rel, 1e-3};
};

Field synth_field(std::size_t nx, std::size_t ny, std::size_t nz,
                  float phase) {
  Field f("serve", "synth", {nx, ny, nz});
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x)
        f.at(x, y, z) = std::sin(0.21f * float(x) + phase) +
                        std::cos(0.13f * float(y)) * std::sin(0.08f * float(z));
  return f;
}

Assets build_assets() {
  Assets a;
  a.f32_fields.push_back(synth_field(24, 20, 16, 0.0f));
  a.f32_fields.push_back(synth_field(48, 40, 32, 0.5f));
  a.f32_fields.push_back(synth_field(96, 64, 48, 1.0f));
  for (const auto& f : a.f32_fields)
    a.f32_direct.push_back(cuszi_compress(f.view(), f.dims, a.params));

  a.f64_dims = {32, 24, 16};
  a.f64_data.resize(a.f64_dims.volume());
  for (std::size_t i = 0; i < a.f64_data.size(); ++i)
    a.f64_data[i] = std::sin(0.017 * double(i));
  a.f64_direct = cuszi_compress(std::span<const double>(a.f64_data),
                                a.f64_dims, a.params);

  a.decomp_direct = cuszi_decompress_f32(a.f32_direct[0]);
  a.roi_box = RoiBox{{8, 6, 4}, {12, 10, 8}};
  a.roi_direct = cuszi_decompress_roi_f32(a.f32_direct[1], a.roi_box).data;
  return a;
}

/// One scheduled arrival. kind: 0-2 compress f32 (size class = kind),
/// 3 compress f64, 4 decompress, 5 ROI.
struct Arrival {
  int kind;
  double at_seconds;
};

/// Deterministic open-loop schedule: Poisson gaps, weighted kind mix
/// (~55% f32 compress, 10% f64 compress, 25% decompress, 10% ROI).
std::vector<Arrival> build_schedule(int n) {
  std::mt19937_64 rng(kSeed);
  std::exponential_distribution<double> gap(kArrivalsPerSec);
  std::discrete_distribution<int> kind({25, 20, 10, 10, 25, 10});
  std::vector<Arrival> plan;
  plan.reserve(n);
  double t = 0;
  for (int i = 0; i < n; ++i) {
    t += gap(rng);
    plan.push_back({kind(rng), t});
  }
  return plan;
}

struct ScenarioResult {
  std::string name;
  double wall_seconds = 0;
  std::size_t requests = 0, ok = 0, failed = 0, rejected = 0;
  std::size_t bytes_in = 0, bytes_out = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  serve::ServiceStats stats;
  bool byte_identical = true;
  std::uint64_t response_hash = 0;  ///< FNV over responses, submission order
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * double(sorted.size()))) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

ScenarioResult run_scenario(const std::string& name, const ServeConfig& cfg,
                            const Assets& a,
                            const std::vector<Arrival>& plan) {
  ScenarioResult res;
  res.name = name;
  Service svc(cfg);
  std::vector<Ticket> tickets;
  tickets.reserve(plan.size());

  const auto start = std::chrono::steady_clock::now();
  for (const auto& arr : plan) {
    // Open loop: pace by the arrival clock, never by completions.
    std::this_thread::sleep_until(
        start + std::chrono::duration<double>(arr.at_seconds));
    switch (arr.kind) {
      case 0:
      case 1:
      case 2: {
        const Field& f = a.f32_fields[std::size_t(arr.kind)];
        tickets.push_back(
            svc.submit_compress("load", f.view(), f.dims, a.params));
        break;
      }
      case 3:
        tickets.push_back(svc.submit_compress_f64("load", a.f64_data,
                                                  a.f64_dims, a.params));
        break;
      case 4:
        tickets.push_back(svc.submit_decompress("load", a.f32_direct[0]));
        break;
      default:
        tickets.push_back(svc.submit_roi("load", a.f32_direct[1], a.roi_box));
    }
  }
  for (const auto& t : tickets) (void)t.wait();
  svc.drain();
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::vector<double> latencies;
  latencies.reserve(tickets.size());
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const auto& r = tickets[i].wait();
    ++res.requests;
    res.bytes_in += r.bytes_in;
    res.bytes_out += r.bytes_out;
    if (r.status == Status::Rejected) {
      ++res.rejected;
      continue;
    }
    if (r.status == Status::Failed) {
      ++res.failed;
      continue;
    }
    ++res.ok;
    latencies.push_back(r.total_seconds * 1e3);
    switch (plan[i].kind) {
      case 0:
      case 1:
      case 2:
        res.byte_identical = res.byte_identical &&
                             r.archive == a.f32_direct[std::size_t(plan[i].kind)];
        h = fnv1a(r.archive.data(), r.archive.size(), h);
        break;
      case 3:
        res.byte_identical = res.byte_identical && r.archive == a.f64_direct;
        h = fnv1a(r.archive.data(), r.archive.size(), h);
        break;
      case 4:
        res.byte_identical = res.byte_identical && r.data == a.decomp_direct;
        h = fnv1a(r.data.data(), r.data.size() * sizeof(float), h);
        break;
      default:
        res.byte_identical = res.byte_identical && r.data == a.roi_direct;
        h = fnv1a(r.data.data(), r.data.size() * sizeof(float), h);
    }
  }
  res.response_hash = h;
  std::sort(latencies.begin(), latencies.end());
  res.p50_ms = percentile(latencies, 0.50);
  res.p95_ms = percentile(latencies, 0.95);
  res.p99_ms = percentile(latencies, 0.99);
  res.stats = svc.stats();
  return res;
}

ServeConfig admission_cfg() {
  ServeConfig cfg;
  // Below the largest size class's workspace estimate: big compresses must
  // trim the pools and wait until nothing else is in flight.
  cfg.workspace_budget_bytes = std::size_t{6} << 20;
  cfg.over_budget = ServeConfig::OverBudget::Queue;
  return cfg;
}

int run_child(const char* outfile, int requests) {
  const Assets a = build_assets();
  const auto plan = build_schedule(requests);
  const auto res = run_scenario("child", ServeConfig{}, a, plan);
  FILE* out = std::fopen(outfile, "w");
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s\n", outfile);
    return 1;
  }
  std::fprintf(out, "workers=%u hash=%016" PRIx64 " identical=%d failed=%zu\n",
               dev::ThreadPool::instance().worker_count(), res.response_hash,
               res.byte_identical ? 1 : 0, res.failed);
  std::fclose(out);
  return res.byte_identical && res.failed == 0 ? 0 : 1;
}

std::string scenario_json(const ScenarioResult& r, bool last) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "    {\"scenario\": \"%s\", \"requests\": %zu, \"ok\": %zu, "
      "\"failed\": %zu, \"rejected\": %zu,\n"
      "     \"wall_seconds\": %.4f, \"requests_per_second\": %.1f, "
      "\"in_mb_per_second\": %.2f, \"out_mb_per_second\": %.2f,\n"
      "     \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f,\n"
      "     \"dispatched\": %" PRIu64 ", \"admission_deferrals\": %" PRIu64
      ", \"admission_rejects\": %" PRIu64 ",\n"
      "     \"arena_high_water_bytes\": %zu, \"byte_identical\": %s}%s\n",
      r.name.c_str(), r.requests, r.ok, r.failed, r.rejected, r.wall_seconds,
      r.wall_seconds > 0 ? double(r.requests) / r.wall_seconds : 0.0,
      r.wall_seconds > 0 ? double(r.bytes_in) / 1e6 / r.wall_seconds : 0.0,
      r.wall_seconds > 0 ? double(r.bytes_out) / 1e6 / r.wall_seconds : 0.0,
      r.p50_ms, r.p95_ms, r.p99_ms, r.stats.waves,
      r.stats.admission_deferrals, r.stats.admission_rejects,
      r.stats.arena_high_water_bytes, r.byte_identical ? "true" : "false",
      last ? "" : ",");
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  if (argc == 3 && std::strcmp(argv[1], "--child") == 0)
    return run_child(argv[2], 240);

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const int requests = smoke ? 32 : 240;
  std::printf("serve_load: %d requests, Poisson %.0f/s, mixed "
              "compress/decompress/ROI, %u core(s)\n",
              requests, kArrivalsPerSec, cores);
  if (cores == 1)
    std::printf("note: single-core host — the service runs inline and "
                "cannot overlap work; latencies are honest, speedups cannot "
                "manifest\n");

  const Assets a = build_assets();
  const auto plan = build_schedule(requests);

  std::vector<ScenarioResult> scenarios;
  scenarios.push_back(run_scenario("default", ServeConfig{}, a, plan));
  if (!smoke)
    scenarios.push_back(run_scenario("admission", admission_cfg(), a, plan));

  bool all_identical = true;
  for (const auto& s : scenarios) {
    std::printf("  %-12s %5.2f s  %6.1f req/s  p50 %6.3f ms  p95 %6.3f ms  "
                "p99 %6.3f ms  dispatched %" PRIu64 "  deferred %" PRIu64
                "  identical %s\n",
                s.name.c_str(), s.wall_seconds,
                s.wall_seconds > 0 ? double(s.requests) / s.wall_seconds : 0.0,
                s.p50_ms, s.p95_ms, s.p99_ms, s.stats.waves,
                s.stats.admission_deferrals,
                s.byte_identical ? "yes" : "NO");
    all_identical = all_identical && s.byte_identical && s.failed == 0;
  }

  if (smoke) {
    std::printf("smoke: %s\n", all_identical ? "ok" : "FAILED");
    return all_identical ? 0 : 1;
  }

  // Cross-worker-count golden pinning: same workload, SZI_THREADS sweep via
  // re-exec (the pool is a read-once singleton), every response hash must
  // match the 1-worker reference.
  struct ChildResult {
    unsigned workers = 0;
    std::uint64_t hash = 0;
    int identical = 0;
    std::size_t failed = 0;
  };
  std::vector<ChildResult> children;
  for (const int k : kSweep) {
    const std::string tmp =
        std::string(argv[0]) + ".child" + std::to_string(k) + ".txt";
    const std::string cmd = "SZI_THREADS=" + std::to_string(k) + " '" +
                            argv[0] + "' --child '" + tmp + "'";
    std::printf("\n[%d worker(s)] %s\n", k, cmd.c_str());
    std::fflush(stdout);
    if (std::system(cmd.c_str()) != 0) {
      std::fprintf(stderr, "error: child failed at SZI_THREADS=%d\n", k);
      return 1;
    }
    FILE* in = std::fopen(tmp.c_str(), "r");
    ChildResult c;
    if (!in || std::fscanf(in, "workers=%u hash=%" SCNx64 " identical=%d "
                           "failed=%zu",
                           &c.workers, &c.hash, &c.identical, &c.failed) != 4) {
      std::fprintf(stderr, "error: unparsable child output %s\n", tmp.c_str());
      if (in) std::fclose(in);
      return 1;
    }
    std::fclose(in);
    std::remove(tmp.c_str());
    children.push_back(c);
    std::printf("  workers=%u hash=%016" PRIx64 " identical=%d\n", c.workers,
                c.hash, c.identical);
  }
  bool sweep_identical = true;
  for (const auto& c : children)
    sweep_identical = sweep_identical && c.identical == 1 &&
                      c.hash == children.front().hash && c.failed == 0;
  std::printf("\nbyte-identical across worker counts: %s\n",
              sweep_identical ? "yes" : "NO");

  std::string json;
  json += "{\n  \"bench\": \"serve_load\",\n";
  json += "  \"workload\": \"open-loop Poisson " +
          std::to_string(int(kArrivalsPerSec)) +
          "/s, 240 requests: 55% f32 compress (3 size classes), 10% f64 "
          "compress, 25% decompress, 10% ROI\",\n";
  json += "  \"cpu_cores\": " + std::to_string(cores) + ",\n";
  if (cores == 1)
    json += "  \"single_core_host\": \"true — the service runs inline (no "
            "worker threads at 1 worker) and scenarios time-slice one core; "
            "latencies are honest measurements on this box, parallel "
            "speedup cannot manifest\",\n";
  json += std::string("  \"byte_identical_across_workers\": ") +
          (sweep_identical ? "true" : "false") + ",\n";
  json += "  \"worker_sweep\": [1, 2, 4, 8],\n";
  json += "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    json += scenario_json(scenarios[i], i + 1 == scenarios.size());
  json += "  ]\n}\n";
  bench::write_ledger("BENCH_serve.json", json);
  return all_identical && sweep_identical ? 0 : 1;
}
