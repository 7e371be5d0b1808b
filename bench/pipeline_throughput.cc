// Batched multi-field compression throughput: cuszi_compress_many (one
// lane per pool worker, pooled workspaces over sharded arenas) versus the
// sequential per-field loop (each call paying fresh allocations for every
// pipeline intermediate).
//
// Two effects are being measured, mirroring the paper's CUDA setting:
//   1. Buffer reuse — field k+2's quant codes, histograms, Huffman chunk
//      buffers, and LZSS scratch are field k's pages, already faulted in and
//      warm, so the per-invocation mmap/zero-fill overhead cuSZ+ (Tian et
//      al. 2021) identifies disappears after the first fields.
//   2. Lane overlap — on a multi-core host, field B's interpolation runs
//      while field A encodes. (On a single-core CI box only effect 1 is
//      visible.)
//
// Emits BENCH_pipeline.json with both timings, the speedup, and a
// byte-identity check of batched vs sequential archives.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/cuszi.hh"
#include "core/timer.hh"
#include "datagen/datasets.hh"
#include "device/arena.hh"
#include "device/thread_pool.hh"

namespace {
using namespace szi;

/// Best-of-N wall time of `fn` (minimum filters scheduler noise).
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = -1;
  for (int r = 0; r < reps; ++r) {
    core::Timer t;
    fn();
    const double s = t.lap();
    if (best < 0 || s < best) best = s;
  }
  return best;
}

}  // namespace

int main() {
  // A multi-field workload: every field of the two smoothest synthetic
  // datasets (Miranda-like and Nyx-like), the paper's canonical multi-field
  // inputs. Small preset keeps one rep fast enough for several repetitions.
  std::vector<Field> fields;
  for (const char* ds : {"miranda", "nyx"})
    for (auto& f : datagen::make_dataset(ds, datagen::Size::Small))
      fields.push_back(std::move(f));

  std::vector<FieldView> views;
  views.reserve(fields.size());
  std::size_t total_bytes = 0;
  for (const auto& f : fields) {
    views.push_back({f.view(), f.dims});
    total_bytes += f.bytes();
  }

  const CompressParams p{ErrorMode::Rel, 1e-3};
  const int reps = 5;

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("pipeline_throughput: %zu fields, %.1f MB total, %u pool "
              "worker(s), %u core(s), one lane per worker\n\n",
              fields.size(), static_cast<double>(total_bytes) / 1e6,
              dev::ThreadPool::instance().worker_count(), cores);
  if (cores == 1)
    std::printf("note: single-core host — lane overlap (effect 2) cannot "
                "manifest; expect speedup ~1.0x from buffer reuse alone\n\n");

  // Reference archives + warmup (faults in the field data itself so neither
  // timed path pays for it).
  std::vector<std::vector<std::byte>> seq_ref;
  for (const auto& v : views) seq_ref.push_back(cuszi_compress(v.data, v.dims, p));

  const double seq_s = best_of(reps, [&] {
    for (const auto& v : views) {
      auto bytes = cuszi_compress(v.data, v.dims, p);
      if (bytes.empty()) std::abort();
    }
  });

  std::vector<std::vector<std::byte>> batch_out;
  const double batch_s = best_of(reps, [&] {
    batch_out = cuszi_compress_many(views, p);
  });

  bool identical = batch_out.size() == seq_ref.size();
  for (std::size_t i = 0; identical && i < batch_out.size(); ++i)
    identical = batch_out[i] == seq_ref[i];

  const double speedup = batch_s > 0 ? seq_s / batch_s : 0.0;
  // compress_many draws from the sharded per-lane pools, so the global
  // instance() alone would report 0/0 here.
  const auto stats = dev::Arena::aggregate_stats();

  std::printf("sequential loop : %8.3f ms\n", seq_s * 1e3);
  std::printf("compress_many   : %8.3f ms\n", batch_s * 1e3);
  std::printf("speedup         : %8.3fx (%+.1f%%)\n", speedup,
              (speedup - 1.0) * 100.0);
  std::printf("byte-identical  : %s\n", identical ? "yes" : "NO");
  std::printf("arena           : %zu hits / %zu misses, %.1f MB pooled\n",
              stats.hits, stats.misses,
              static_cast<double>(stats.pooled_bytes) / 1e6);

  char json[1024];
  std::snprintf(json, sizeof json,
                "{\n"
                "  \"bench\": \"pipeline_throughput\",\n"
                "  \"fields\": %zu,\n"
                "  \"input_bytes\": %zu,\n"
                "  \"pool_workers\": %u,\n"
                "  \"cpu_cores\": %u,\n"
                "  \"lanes\": \"one per pool worker, at most one per field\",\n"
                "  \"reps\": %d,\n"
                "  \"sequential_seconds\": %.6f,\n"
                "  \"batched_seconds\": %.6f,\n"
                "  \"speedup\": %.4f,\n"
                "  \"byte_identical\": %s,\n"
                "  \"arena_hits\": %zu,\n"
                "  \"arena_misses\": %zu\n"
                "}\n",
                fields.size(), total_bytes,
                dev::ThreadPool::instance().worker_count(), cores, reps, seq_s,
                batch_s, speedup, identical ? "true" : "false", stats.hits,
                stats.misses);
  bench::write_ledger("BENCH_pipeline.json", json);
  return identical ? 0 : 1;
}
