// bulk-paper, roi-random and serve-mixed: set-up, measured loops, traced
// runs, and the bulk-paper layer replay.
#include "workloads.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/cuszi.hh"
#include "datagen/datasets.hh"
#include "datagen/rng.hh"
#include "datagen/synth.hh"
#include "device/arena.hh"
#include "device/launch.hh"
#include "device/thread_pool.hh"
#include "huffman/huffman.hh"
#include "io/archive_source.hh"
#include "lossless/orchestrate.hh"
#include "oracle.hh"
#include "predictor/autotune.hh"
#include "predictor/ginterp.hh"
#include "report.hh"
#include "serve/serve.hh"
#include "trace.hh"

namespace perfbench {

namespace {

using szi::CompressParams;
using szi::ErrorMode;
using szi::RoiBox;
using szi::dev::Dim3;

constexpr Dim3 kPaperDims{384, 384, 256};
const CompressParams kParams{ErrorMode::Rel, 1e-3};
constexpr int kRadius = szi::quant::kDefaultRadius;
constexpr std::uint8_t kSegmentLevel = 2;  // szi::SegmentInfo::kind

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(trace::now_ns() - t0_ns) / 1e9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Inputs ----------------------------------------------------------------

void write_file(const std::string& path, const void* p, std::size_t n) {
  std::ofstream f(path, std::ios::binary);
  f.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  if (!f) throw std::runtime_error("cannot write " + path);
}

std::vector<float> read_floats(const std::string& path, std::size_t count) {
  std::vector<float> v(count);
  std::ifstream f(path, std::ios::binary);
  f.read(reinterpret_cast<char*>(v.data()),
         static_cast<std::streamsize>(count * sizeof(float)));
  if (!f || f.gcount() != static_cast<std::streamsize>(count * sizeof(float)))
    throw std::runtime_error("cannot read " + path);
  return v;
}

/// A paper-size field with Miranda-density character: a diffuse material
/// interface perturbed by a seeded coarse lattice, plus a gentle seeded
/// large-scale Fourier background — the public datagen building blocks with
/// the seed supplying every random phase.
std::vector<float> paper_field(std::uint64_t seed) {
  const Dim3 dims = kPaperDims;
  szi::datagen::Rng rng(seed ^ 0x4d495231ull);
  szi::Field surf("perfbench", "interface", {dims.x, dims.y, 1});
  szi::datagen::add_lattice_noise(surf, rng, 6,
                                  0.08f * static_cast<float>(dims.z));
  szi::Field f("perfbench", "density", dims);
  const float zc = 0.5f * static_cast<float>(dims.z);
  const float width = 0.12f * static_cast<float>(dims.z);
  szi::dev::launch_linear(
      dims.z,
      [&](std::size_t z) {
        for (std::size_t y = 0; y < dims.y; ++y) {
          float* row = f.data.data() + (z * dims.y + y) * dims.x;
          const float* s = surf.data.data() + y * dims.x;
          for (std::size_t x = 0; x < dims.x; ++x)
            row[x] = 2.0f + std::tanh((static_cast<float>(z) - zc - s[x]) /
                                      width);
        }
      },
      1);
  szi::Field bg("perfbench", "background", dims);
  szi::datagen::add_modes(bg, szi::datagen::draw_modes(rng, 10, 1.0, 4.0, -1.5));
  szi::datagen::rescale(bg, -0.05f, 0.05f);
  szi::dev::launch_linear(
      f.size(), [&](std::size_t i) { f.data[i] += bg.data[i]; }, 1 << 14);
  return std::move(f.data);
}

struct SmallField {
  std::string label;
  Dim3 dims;
  std::vector<float> data;
  std::vector<double> data_f64;
};

const char* const kServeDatasets[] = {"miranda", "nyx", "s3d", "jhtdb"};

/// The serve-mixed field set: every Small-preset field of four datasets.
std::vector<SmallField> load_small_fields(const std::string& dir) {
  std::ifstream idx(dir + "/small.txt");
  std::vector<SmallField> out;
  std::string label;
  std::size_t x, y, z;
  while (idx >> label >> x >> y >> z) {
    SmallField f{label, {x, y, z}, {}, {}};
    f.data = read_floats(dir + "/small_" + std::to_string(out.size()) + ".f32",
                         f.dims.volume());
    f.data_f64.assign(f.data.begin(), f.data.end());
    out.push_back(std::move(f));
  }
  if (out.empty()) throw std::runtime_error("no serve inputs in " + dir);
  return out;
}

std::string archive_path(const std::string& dir) {
  return dir + "/archive." + std::to_string(::getpid()) + ".szi";
}

// ---- Shared helpers ----------------------------------------------------

/// Counts failures of one workload's operations.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  void op(bool ok) {
    attempted.fetch_add(1);
    if (!ok) failed.fetch_add(1);
  }
};

void arena_stamp(Record& r, const szi::dev::Arena::Stats& before) {
  const auto s = szi::dev::Arena::aggregate_stats();
  r.count("arena_hits", s.hits - before.hits);
  r.count("arena_misses", s.misses - before.misses);
  r.num("arena_high_water_mb", static_cast<double>(s.high_water_bytes) / 1e6);
}

void finish(Record& r, const Tally& t, const Args& a) {
  r.count("attempted", t.attempted.load());
  r.count("failed", t.failed.load());
  r.count("seed", a.seed);
  stamp_host(r);
  if (a.trace) {
    std::size_t ws = 0;
    r.num("memcpy_gbps", memcpy_gbps(ws));
    r.count("memcpy_working_set_bytes", ws);
    if (!a.trace_out.empty() && !trace::write_chrome(a.trace_out, trace::take()))
      throw std::runtime_error("cannot write " + a.trace_out);
  }
  r.emit();
}

// ---- bulk-paper --------------------------------------------------------

struct Bulk {
  std::vector<float> field;
  double eb = 0;
  // The caller's one pooled Workspace: every call draws its scratch from
  // it, as a bulk user compressing field after field would.
  szi::dev::Workspace ws;
  std::vector<std::byte> ref_archive, ref_wrapped;
};

struct RoundTrip {
  double compress = 0, decompress = 0, compress_wrapped = 0,
         decompress_wrapped = 0;
  std::size_t archive_bytes = 0, wrapped_bytes = 0;
  [[nodiscard]] double wall() const {
    return compress + decompress + compress_wrapped + decompress_wrapped;
  }
};

/// One bulk round trip: the four timed calls, then the oracle (untimed).
/// The first call of a process keeps its archives as the byte references.
RoundTrip bulk_round_trip(Bulk& b, Tally& tally, std::uint64_t req) {
  trace::Scope rt("bench.round_trip", req);
  RoundTrip r;
  const std::span<const float> in(b.field);
  std::int64_t t0 = trace::now_ns();
  std::vector<std::byte> archive;
  {
    trace::Scope s("core.compress", req);
    archive = szi::cuszi_compress(in, kPaperDims, kParams, nullptr, b.ws);
  }
  r.compress = seconds_since(t0);
  t0 = trace::now_ns();
  std::vector<float> recon;
  {
    trace::Scope s("core.decompress", req);
    recon = szi::cuszi_decompress_f32(archive, b.ws);
  }
  r.decompress = seconds_since(t0);
  t0 = trace::now_ns();
  std::vector<std::byte> wrapped;
  {
    trace::Scope s("core.compress_bitcomp", req);
    wrapped = szi::cuszi_compress_bitcomp(in, kPaperDims, kParams, nullptr,
                                          b.ws);
  }
  r.compress_wrapped = seconds_since(t0);
  t0 = trace::now_ns();
  std::vector<float> recon_w;
  {
    trace::Scope s("core.decompress_bitcomp", req);
    recon_w = szi::cuszi_decompress_bitcomp_f32(wrapped, b.ws);
  }
  r.decompress_wrapped = seconds_since(t0);
  r.archive_bytes = archive.size();
  r.wrapped_bytes = wrapped.size();

  trace::Scope check("bench.oracle", req);
  if (b.ref_archive.empty()) {
    b.ref_archive = archive;
    b.ref_wrapped = wrapped;
  }
  tally.op(oracle::same_bytes<std::byte>(archive, b.ref_archive));
  tally.op(oracle::count_exceedances(b.field, recon, b.eb) == 0);
  tally.op(oracle::same_bytes<std::byte>(wrapped, b.ref_wrapped));
  tally.op(oracle::count_exceedances(b.field, recon_w, b.eb) == 0 &&
           oracle::same_bytes<float>(recon, recon_w));
  return r;
}

void load_bulk(Bulk& b, const Args& a) {
  b.field = read_floats(a.dir + "/field.f32", kPaperDims.volume());
  b.eb = kParams.value * oracle::finite_range(b.field);
}

void run_bulk(const Args& a) {
  Bulk b;
  load_bulk(b, a);
  Tally tally;
  Record r;
  const auto arena0 = szi::dev::Arena::aggregate_stats();
  // Set-up: the four calls of the first, cold round trip (not its oracle).
  r.num("setup_s", bulk_round_trip(b, tally, 0).wall());

  std::vector<double> c, d, cw, dw, wall_off, wall_on;
  std::size_t archive_bytes = 0, wrapped_bytes = 0;
  std::uint64_t req = 1;
  auto loop = [&](double seconds, std::vector<double>& wall) {
    const std::int64_t start = trace::now_ns();
    do {
      const RoundTrip rt = bulk_round_trip(b, tally, req++);
      wall.push_back(rt.wall());
      c.push_back(rt.compress);
      d.push_back(rt.decompress);
      cw.push_back(rt.compress_wrapped);
      dw.push_back(rt.decompress_wrapped);
      archive_bytes = rt.archive_bytes;
      wrapped_bytes = rt.wrapped_bytes;
    } while (wall.size() < 3 || seconds_since(start) < seconds);
  };
  if (a.trace) {
    loop(a.seconds / 2, wall_off);
    trace::set_enabled(true);
    loop(a.seconds / 2, wall_on);
    trace::set_enabled(false);
    r.num("trace_overhead_s", median(wall_on) - median(wall_off));
  } else {
    loop(a.seconds, wall_off);
  }
  const double raw = static_cast<double>(b.field.size() * sizeof(float));
  r.num("raw_bytes", raw);
  r.count("archive_bytes", archive_bytes);
  r.count("wrapped_bytes", wrapped_bytes);
  r.list("compress_s", c).list("decompress_s", d);
  r.list("compress_wrapped_s", cw).list("decompress_wrapped_s", dw);
  r.num("peak_rss_mb", peak_rss_mb());
  arena_stamp(r, arena0);
  finish(r, tally, a);
}

// ---- bulk-paper layer replay ----------------------------------------------

template <typename T>
std::vector<T> copy_array(std::span<const std::byte> bytes, std::size_t n) {
  if (bytes.size() < n * sizeof(T))
    throw std::runtime_error("replay: segment shorter than its count");
  std::vector<T> v(n);
  if (n) std::memcpy(v.data(), bytes.data(), n * sizeof(T));
  return v;
}

// Timed replay repetitions, after one untimed warm-up.
constexpr int kReplayReps = 2;

struct LayerTimes {
  std::vector<double> compress, decompress, decompress_wrapped, cov_compress,
      cov_decompress, autotune, predict, codebook, encode, decode, scatter,
      reconstruct, wrap, unwrap;
};

}  // namespace

int cmd_replay(const Args& a) {
  Bulk b;
  load_bulk(b, a);
  Tally tally;
  LayerTimes t;
  trace::set_enabled(true);
  const std::span<const float> in(b.field);
  std::uint64_t outliers = 0, codebook_bytes = 0;
  std::uint64_t methods[szi::lossless::kMethodCount] = {};
  std::uint64_t h_archive = 0, h_recon = 0, h_wrapped = 0, h_recon_w = 0;
  auto timed = [](const char* name, std::uint64_t req, auto&& fn) {
    trace::Scope s(name, req);
    const std::int64_t t0 = trace::now_ns();
    fn();
    return seconds_since(t0);
  };

  for (int rep = 0; rep <= kReplayReps; ++rep) {  // rep 0 warms up, untimed
    const auto req = static_cast<std::uint64_t>(rep + 1);
    szi::dev::Workspace ws;
    // The pipeline as a whole, with its own stage timings.
    szi::StageTimings st;
    std::vector<std::byte> archive;
    const double tc = timed("core.compress", req, [&] {
      archive = szi::cuszi_compress(in, kPaperDims, kParams, &st, ws);
    });
    szi::DecodeTimings dt;
    std::vector<float> recon;
    const double td = timed("core.decompress", req, [&] {
      recon = szi::cuszi_decompress_f32(archive, &dt);
    });
    std::vector<std::byte> wrapped;
    (void)timed("core.compress_bitcomp", req, [&] {
      wrapped =
          szi::cuszi_compress_bitcomp(in, kPaperDims, kParams, nullptr, ws);
    });
    std::vector<float> recon_w;
    const double tdw = timed("core.decompress_bitcomp", req, [&] {
      recon_w = szi::cuszi_decompress_bitcomp_f32(wrapped, ws);
    });
    tally.op(oracle::count_exceedances(b.field, recon, b.eb) == 0);
    tally.op(oracle::same_bytes<float>(recon, recon_w));

    // Compress through the layer functions, in the pipeline's order.
    double tat = 0, tpr = 0, tcb = 0, ten = 0;
    szi::predictor::InterpConfig cfg;  // the tuned config decode needs too
    {
      trace::Scope replay("bench.replay_compress", req);
      szi::dev::Workspace lws;
      szi::predictor::ProfileResult prof;
      tat = timed("predictor.autotune", req, [&] {
        prof = szi::predictor::autotune(in, kPaperDims, kParams.value, lws);
      });
      const double eb = kParams.value * prof.value_range;
      cfg = prof.config;
      cfg.alpha = szi::predictor::alpha_of_epsilon(kParams.value);
      szi::predictor::GInterpLevelsT<float> fl;
      tpr = timed("predictor.predict", req, [&] {
        fl = szi::predictor::ginterp_compress_fused_levels(in, kPaperDims, eb,
                                                           cfg, kRadius, lws);
      });
      std::vector<szi::huffman::Codebook> books;
      tcb = timed("huffman.codebook", req, [&] {
        books = szi::huffman::build_level_books(fl.levels.histograms);
      });
      codebook_bytes = 0;
      for (std::size_t l = 0; l < books.size(); ++l) {
        codebook_bytes += 4 + books[l].nbins();
        ten += timed("huffman.encode", req, [&] {
          (void)szi::huffman::encode_with_book_serial(
              fl.levels.streams[l], books[l], szi::huffman::kDefaultChunk, lws);
        });
      }
      outliers = fl.pred.outliers.count();
    }

    // Lossless wrap / unwrap of the raw archive; both must reproduce the
    // fused pipeline's bytes.
    std::vector<szi::lossless::ChoiceAudit> audits;
    std::vector<std::byte> rewrapped, unwrapped;
    const double twr = timed("lossless.wrap", req, [&] {
      rewrapped = szi::bitcomp_wrap_archive(
          archive, szi::lossless::LzssMode::Lazy,
          szi::lossless::MethodPolicy::Auto, &audits);
    });
    const double tuw = timed("lossless.unwrap", req, [&] {
      unwrapped = szi::bitcomp_unwrap_archive(wrapped);
    });
    tally.op(oracle::same_bytes<std::byte>(rewrapped, wrapped));
    tally.op(oracle::same_bytes<std::byte>(unwrapped, archive));
    const auto container = szi::bitcomp_parse_container(wrapped);
    std::fill(std::begin(methods), std::end(methods), 0);
    for (const auto& seg : container.segments)
      ++methods[static_cast<std::size_t>(seg.method)];
    tally.op(audits.size() == container.segments.size());

    // Decompress through the layer functions: per-level Huffman decode,
    // scatter into the code array, reconstruct.
    double tde = 0, tsc = 0, trc = 0;
    {
      trace::Scope replay("bench.replay_decompress", req);
      szi::dev::Workspace lws;
      const std::span<const std::byte> bytes(archive);
      const auto segs = szi::cuszi_archive_segments(bytes);
      // docs/FORMAT.md: the absolute bound follows magic, precision and
      // dims; the outlier segment is u64 count | indices | values.
      double eb_hdr = 0;
      std::memcpy(&eb_hdr, bytes.data() + 29, sizeof eb_hdr);
      const auto anchors = copy_array<float>(
          bytes.subspan(segs.at(0).offset, segs.at(0).size), segs.at(0).count);
      const auto blob = bytes.subspan(segs.at(1).offset, segs.at(1).size);
      const std::size_t n_out = segs.at(1).count;
      const auto idx = copy_array<std::uint64_t>(blob.subspan(8), n_out);
      const auto vals = copy_array<float>(blob.subspan(8 + 8 * n_out), n_out);
      const szi::quant::OutlierViewT<float> ov{idx, vals};
      std::vector<szi::quant::Code> codes(kPaperDims.volume(),
                                          static_cast<szi::quant::Code>(kRadius));
      for (const auto& s : segs) {
        if (s.kind != kSegmentLevel) continue;
        std::span<const szi::quant::Code> syms;
        tde += timed("huffman.decode", req, [&] {
          syms = szi::huffman::decode(bytes.subspan(s.offset, s.size), lws);
        });
        tsc += timed("predictor.scatter", req, [&] {
          szi::predictor::LevelScatterCursor cur(kPaperDims, s.level);
          (void)cur.advance(syms, syms.size(), codes);
        });
      }
      std::vector<float> out(kPaperDims.volume());
      trc = timed("predictor.reconstruct", req, [&] {
        szi::predictor::ginterp_decompress_into(codes, anchors, ov, kPaperDims,
                                                eb_hdr, cfg, kRadius,
                                                std::span<float>(out), lws);
      });
      tally.op(oracle::same_bytes<float>(out, recon));
    }

    h_archive = oracle::hash_bytes(archive.data(), archive.size());
    h_recon = oracle::hash_bytes(recon.data(), recon.size() * sizeof(float));
    h_wrapped = oracle::hash_bytes(wrapped.data(), wrapped.size());
    h_recon_w =
        oracle::hash_bytes(recon_w.data(), recon_w.size() * sizeof(float));
    if (rep == 0) continue;
    t.compress.push_back(tc);
    t.decompress.push_back(td);
    t.decompress_wrapped.push_back(tdw);
    t.cov_compress.push_back((st.predict + st.histogram + st.codebook +
                              st.encode) / st.total);
    t.cov_decompress.push_back((dt.unwrap + dt.huffman + dt.reconstruct) /
                               dt.total);
    t.autotune.push_back(tat);
    t.predict.push_back(tpr);
    t.codebook.push_back(tcb);
    t.encode.push_back(ten);
    t.decode.push_back(tde);
    t.scatter.push_back(tsc);
    t.reconstruct.push_back(trc);
    t.wrap.push_back(twr);
    t.unwrap.push_back(tuw);
  }

  Record r;
  r.num("raw_bytes", static_cast<double>(b.field.size() * sizeof(float)));
  r.list("compress_s", t.compress).list("decompress_s", t.decompress);
  r.list("decompress_wrapped_s", t.decompress_wrapped);
  r.list("stage_coverage_compress", t.cov_compress);
  r.list("stage_coverage_decompress", t.cov_decompress);
  r.list("autotune_s", t.autotune).list("predict_s", t.predict);
  r.list("codebook_s", t.codebook).list("encode_s", t.encode);
  r.list("decode_s", t.decode).list("scatter_s", t.scatter);
  r.list("reconstruct_s", t.reconstruct);
  r.list("wrap_s", t.wrap).list("unwrap_s", t.unwrap);
  r.count("outliers", outliers).count("codebook_bytes", codebook_bytes);
  r.count("method_lzss", methods[0]).count("method_zerorle", methods[1]);
  r.count("method_bitshuffle", methods[2]);
  char hashes[160];
  std::snprintf(hashes, sizeof hashes, "\"%016llx %016llx %016llx %016llx\"",
                static_cast<unsigned long long>(h_archive),
                static_cast<unsigned long long>(h_recon),
                static_cast<unsigned long long>(h_wrapped),
                static_cast<unsigned long long>(h_recon_w));
  r.raw("hashes", hashes);
  if (!trace::write_chrome(a.trace_out, trace::take()))
    throw std::runtime_error("cannot write " + a.trace_out);
  Args quiet = a;
  quiet.trace = false;  // memcpy reference is the parent run's
  finish(r, tally, quiet);
  return 0;
}

namespace {

// ---- roi-random --------------------------------------------------------

constexpr std::size_t kRoiEdges[] = {16, 32, 64, 128};
constexpr int kRoiReaders = 4;
// Reads continue past the window until there are enough for a reportable
// p99 (ten beyond it), so a slow host stretches the run instead of
// losing the percentile.
constexpr std::size_t kRoiMinReads = 1100;

/// An ArchiveSource that records an io span around every range fetch the
/// decoder makes, then forwards to the real source.
class TracedSource final : public szi::io::ArchiveSource {
 public:
  explicit TracedSource(szi::io::ArchiveSource& inner) : inner_(inner) {}
  [[nodiscard]] std::size_t size() const noexcept override {
    return inner_.size();
  }
  [[nodiscard]] std::span<const std::byte> view(
      std::size_t off, std::size_t len,
      std::vector<std::byte>& scratch) override {
    trace::Scope s("io.view");
    return inner_.view(off, len, scratch);
  }

 private:
  szi::io::ArchiveSource& inner_;
};

/// Fisher-Yates shuffle driven by the benchmark's seeded Rng.
template <typename T>
void shuffle(std::vector<T>& v, szi::datagen::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next_u64() % i]);
}

/// Reader `reader`'s box stream: cubes at seeded positions whose edges come
/// from kRoiEdges in seeded order, each edge once per four boxes (so every
/// seed reads the same size mix).
class BoxStream {
 public:
  BoxStream(std::uint64_t seed, int reader)
      : rng_(seed * 0x9e3779b97f4a7c15ull + 0x524f49ull +
             static_cast<std::uint64_t>(reader)) {}
  RoiBox next() {
    if (edges_.empty()) {
      edges_.assign(std::begin(kRoiEdges), std::end(kRoiEdges));
      shuffle(edges_, rng_);
    }
    const std::size_t e = edges_.back();
    edges_.pop_back();
    auto pos = [&](std::size_t dim) {
      return static_cast<std::size_t>(rng_.next_u64() % (dim - e + 1));
    };
    const std::size_t x = pos(kPaperDims.x), y = pos(kPaperDims.y),
                      z = pos(kPaperDims.z);
    return {{x, y, z}, {e, e, e}};
  }

 private:
  szi::datagen::Rng rng_;
  std::vector<std::size_t> edges_;
};

struct RoiSample {
  double ms;
  std::size_t edge;
  bool indexed;
};

struct Roi {
  std::vector<float> field;
  std::string path;
  std::size_t archive_bytes = 0;
  std::unique_ptr<szi::io::MmapSource> src;
  ~Roi() {
    src.reset();
    if (!path.empty()) std::remove(path.c_str());
  }
};

/// Set-up: compress the field, write the indexed archive, map it, and make
/// the first read.
void roi_setup(Roi& s, const Args& a) {
  const auto archive =
      szi::cuszi_compress(std::span<const float>(s.field), kPaperDims, kParams);
  s.archive_bytes = archive.size();
  s.path = archive_path(a.dir);
  write_file(s.path, archive.data(), archive.size());
  s.src = std::make_unique<szi::io::MmapSource>(s.path);
  (void)szi::cuszi_decompress_roi_f32(*s.src, BoxStream(a.seed, -1).next());
}

/// kRoiReaders closed-loop readers for `seconds` (and at least
/// kRoiMinReads reads). Each reader's busy time excludes its oracle checks.
std::vector<RoiSample> roi_readers(szi::io::ArchiveSource& src,
                                   const std::vector<float>& full,
                                   const Args& a, double seconds, int epoch,
                                   Tally& tally, double& reads_per_s) {
  std::vector<std::vector<RoiSample>> per(kRoiReaders);
  std::vector<double> busy(kRoiReaders, 0.0);
  const std::int64_t deadline =
      trace::now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::atomic<std::size_t> reads{0};
  std::vector<std::thread> th;
  for (int r = 0; r < kRoiReaders; ++r)
    th.emplace_back([&, r] {
      BoxStream boxes(a.seed + static_cast<std::uint64_t>(epoch) * 7919, r);
      std::uint64_t req = static_cast<std::uint64_t>(r) << 40;
      while (trace::now_ns() < deadline || reads.load() < kRoiMinReads) {
        const RoiBox box = boxes.next();
        bool ok = false;
        try {
          const std::int64_t t0 = trace::now_ns();
          szi::RoiResult res;
          {
            trace::Scope s("core.roi", ++req);
            res = szi::cuszi_decompress_roi_f32(src, box);
          }
          const double dt = seconds_since(t0);
          busy[r] += dt;
          per[r].push_back({dt * 1e3, box.ext.x, res.indexed});
          trace::Scope check("bench.oracle", req);
          ok = oracle::crop_matches(full, kPaperDims, box, res.data);
        } catch (const std::exception&) {
          ok = false;
        }
        tally.op(ok);
        reads.fetch_add(1);
      }
    });
  for (auto& t : th) t.join();
  std::vector<RoiSample> all;
  reads_per_s = 0;
  for (int r = 0; r < kRoiReaders; ++r) {
    if (busy[r] > 0) reads_per_s += static_cast<double>(per[r].size()) / busy[r];
    all.insert(all.end(), per[r].begin(), per[r].end());
  }
  return all;
}

void emit_roi_samples(Record& r, const std::vector<RoiSample>& v) {
  std::vector<double> ms;
  double indexed = 0;
  for (const auto& s : v) {
    ms.push_back(s.ms);
    indexed += s.indexed ? 1 : 0;
  }
  r.list("roi_ms", ms);
  for (const std::size_t e : kRoiEdges) {
    std::vector<double> m;
    for (const auto& s : v)
      if (s.edge == e) m.push_back(s.ms);
    r.num("roi_ms_" + std::to_string(e), median(m));
  }
  r.num("indexed_share", indexed / std::max<double>(1, static_cast<double>(v.size())));
}

void run_roi(const Args& a) {
  Roi s;
  s.field = read_floats(a.dir + "/field.f32", kPaperDims.volume());
  const double eb = kParams.value * oracle::finite_range(s.field);
  Tally tally;
  Record r;
  const auto arena0 = szi::dev::Arena::aggregate_stats();
  const std::int64_t t0 = trace::now_ns();
  roi_setup(s, a);
  r.num("setup_s", seconds_since(t0));

  // The reference every box is checked against: one full decode.
  std::vector<float> full;
  {
    std::vector<std::byte> tmp(s.src->size());
    const auto bytes = s.src->view(0, tmp.size(), tmp);
    full = szi::cuszi_decompress_f32(bytes);
  }
  tally.op(oracle::count_exceedances(s.field, full, eb) == 0);
  s.field = {};
  // peak_rss_mb is the readers' high-water mark, not the set-up's or the
  // reference decode's.
  reset_peak_rss();

  szi::io::reset_archive_bytes_read();
  double rps = 0;
  std::vector<RoiSample> samples;
  if (a.trace) {
    const auto off = roi_readers(*s.src, full, a, a.seconds / 2, 1, tally, rps);
    trace::set_enabled(true);
    TracedSource traced(*s.src);
    samples = roi_readers(traced, full, a, a.seconds / 2, 2, tally, rps);
    trace::set_enabled(false);
    std::vector<double> m_off, m_on;
    for (const auto& x : off) m_off.push_back(x.ms);
    for (const auto& x : samples) m_on.push_back(x.ms);
    r.num("trace_overhead_s", (median(m_on) - median(m_off)) / 1e3);
    r.count("reads_total", off.size() + samples.size());
  } else {
    samples = roi_readers(*s.src, full, a, a.seconds, 0, tally, rps);
    r.count("reads_total", samples.size());
  }
  // RoiResult::bytes_read is the shared source's counter delta, which
  // concurrent readers inflate; the process-wide total over all reads is
  // exact.
  r.count("io_bytes_read_total", szi::io::archive_bytes_read());
  r.num("reads_per_s", rps);
  r.count("readers", kRoiReaders);
  r.count("archive_bytes", s.archive_bytes);
  r.num("raw_bytes", static_cast<double>(kPaperDims.volume() * sizeof(float)));
  emit_roi_samples(r, samples);
  r.num("peak_rss_mb", peak_rss_mb());
  arena_stamp(r, arena0);
  finish(r, tally, a);
}

// ---- serve-mixed -------------------------------------------------------

enum class Kind : std::uint8_t { Compress, Decompress, Roi, CompressF64 };

struct Request {
  double due_s;
  Kind kind;
  std::size_t field;
  RoiBox box;
};

constexpr double kServeRate = 40.0;     // req/s of the fixed-rate phase
// The untraced run's closed loop: at 40 req/s the host's vCPUs idle
// between requests and the latency follows how fast the hypervisor wakes
// them (p50 +55% at 6% steal time); eight requests in flight keep them
// busy (p50 within ~7% over 2-9% steal).
constexpr int kServeClients = 4;
constexpr std::size_t kServeWindow = 2;  // requests in flight per client
constexpr double kLatencyLimitMs = 100.0;
constexpr std::size_t kPhaseRequests = 1000;  // >= 10 samples beyond p99
constexpr double kLadderBase = 40.0;
constexpr double kLadderStep = 1.05;
constexpr int kLadderTop = 56;  // 40 * 1.05^56 ~ 615 req/s

/// Poisson arrivals from the seed, and a request mix of exactly 50% f32
/// compress, 30% decompress, 15% 32^3 ROI and 5% f64 compress in seeded
/// order, each kind cycling through the fields from a seeded offset — so
/// seeds differ in timing and order, not in how much work they offer.
std::vector<Request> schedule(std::uint64_t seed, std::uint64_t stream,
                              double rate, std::size_t n,
                              const std::vector<SmallField>& fields) {
  szi::datagen::Rng rng(seed * 0x2545f4914f6cdd1dull + stream);
  std::vector<Kind> kinds(n, Kind::CompressF64);
  const std::size_t nc = n * 50 / 100, nd = n * 30 / 100, nr = n * 15 / 100;
  std::fill_n(kinds.begin(), nc, Kind::Compress);
  std::fill_n(kinds.begin() + nc, nd, Kind::Decompress);
  std::fill_n(kinds.begin() + nc + nd, nr, Kind::Roi);
  shuffle(kinds, rng);
  std::size_t next_field[4];
  for (auto& f : next_field) f = rng.next_u64() % fields.size();
  std::vector<Request> out;
  double t = 0;
  for (const Kind k : kinds) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    const std::size_t f = next_field[static_cast<int>(k)]++ % fields.size();
    const Dim3& d = fields[f].dims;
    RoiBox box{{rng.next_u64() % (d.x - 31), rng.next_u64() % (d.y - 31),
                rng.next_u64() % (d.z - 31)},
               {32, 32, 32}};
    out.push_back({t, k, f, box});
  }
  return out;
}

struct ServeRefs {
  std::vector<std::vector<std::byte>> a32, a64;
  std::vector<std::vector<float>> r32;
};

struct PhaseResult {
  std::vector<double> latency_ms;  // from due time or submit; failed = +inf
  std::vector<double> kind;        // each latency's request Kind
  std::vector<double> queue_ms, service_ms, late_ms;
  std::size_t misses = 0, backlog_max = 0;
  bool aborted = false, growing = false;
  double raw_bytes = 0, archive_bytes = 0;
  std::uint64_t waves = 0, coalesced = 0, deferrals = 0, compresses = 0;
};

/// Submits one request of the mix to `svc`.
szi::serve::Ticket submit(szi::serve::Service& svc, const Request& rq,
                          const std::vector<SmallField>& fields,
                          const ServeRefs& refs) {
  const SmallField& f = fields[rq.field];
  switch (rq.kind) {
    case Kind::Compress:
      return svc.submit_compress("bench", f.data, f.dims, kParams);
    case Kind::CompressF64:
      return svc.submit_compress_f64("bench", f.data_f64, f.dims, kParams);
    case Kind::Decompress:
      return svc.submit_decompress("bench", refs.a32[rq.field]);
    case Kind::Roi:
      return svc.submit_roi("bench", refs.a32[rq.field], rq.box);
  }
  throw std::logic_error("unknown request kind");
}

/// Whether a response is the direct call's output (ROI: its crop); counts
/// compress requests' raw and archive bytes into `out`.
bool check(const Request& rq, const szi::serve::Response& resp,
           const std::vector<SmallField>& fields, const ServeRefs& refs,
           PhaseResult& out) {
  if (resp.status != szi::serve::Status::Ok) return false;
  switch (rq.kind) {
    case Kind::Compress:
      out.raw_bytes += static_cast<double>(fields[rq.field].data.size() * 4);
      out.archive_bytes += static_cast<double>(resp.archive.size());
      return oracle::same_bytes<std::byte>(resp.archive, refs.a32[rq.field]);
    case Kind::CompressF64:
      out.raw_bytes += static_cast<double>(fields[rq.field].data.size() * 8);
      out.archive_bytes += static_cast<double>(resp.archive.size());
      return oracle::same_bytes<std::byte>(resp.archive, refs.a64[rq.field]);
    case Kind::Decompress:
      return oracle::same_bytes<float>(resp.data, refs.r32[rq.field]);
    case Kind::Roi:
      return oracle::crop_matches(refs.r32[rq.field], fields[rq.field].dims,
                                  rq.box, resp.data);
  }
  return false;
}

/// Drives `reqs` open loop into `svc`: each is submitted at its due time
/// whatever the service's state; a collector thread checks every response
/// against the direct call's output. With `abort_early` the phase stops
/// once more than 1% of its requests have missed the latency limit (its
/// p99 can then no longer meet it).
PhaseResult open_loop(szi::serve::Service& svc,
                      const std::vector<SmallField>& fields,
                      const ServeRefs& refs, const std::vector<Request>& reqs,
                      bool abort_early, Tally& tally) {
  using Clock = std::chrono::steady_clock;
  struct Pending {
    std::size_t i;
    szi::serve::Ticket ticket;
    std::int64_t due_ns, submit_ns;
    std::uint64_t span;
  };
  PhaseResult out;
  const auto stats0 = svc.stats();
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> q;
  bool done = false;
  std::atomic<std::size_t> misses{0};
  std::vector<std::size_t> backlog;

  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] { return done || !q.empty(); });
        if (q.empty()) return;
        p = std::move(q.front());
        q.pop_front();
      }
      const Request& rq = reqs[p.i];
      if (!p.ticket.valid()) {  // the submit call itself threw
        tally.op(false);
        misses.fetch_add(1);
        out.latency_ms.push_back(std::numeric_limits<double>::infinity());
        out.kind.push_back(static_cast<double>(rq.kind));
        continue;
      }
      const auto& resp = p.ticket.wait();
      const bool ok = check(rq, resp, fields, refs, out);
      tally.op(ok);
      const std::int64_t end_ns =
          p.submit_ns + static_cast<std::int64_t>(resp.total_seconds * 1e9);
      const double lat = ok ? static_cast<double>(end_ns - p.due_ns) / 1e6
                            : std::numeric_limits<double>::infinity();
      if (!(lat <= kLatencyLimitMs)) misses.fetch_add(1);
      out.latency_ms.push_back(lat);
      out.kind.push_back(static_cast<double>(rq.kind));
      out.queue_ms.push_back(resp.queue_seconds * 1e3);
      out.service_ms.push_back(resp.service_seconds * 1e3);
      trace::record("serve.request", p.due_ns, end_ns, p.span, 0, p.i + 1);
    }
  });

  const std::int64_t start_ns = trace::now_ns() + 5'000'000;
  const Clock::time_point start{std::chrono::nanoseconds(start_ns)};
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (abort_early && misses.load() * 100 > reqs.size()) {
      out.aborted = true;
      break;
    }
    const Request& rq = reqs[i];
    const std::int64_t due_ns =
        start_ns + static_cast<std::int64_t>(rq.due_s * 1e9);
    std::this_thread::sleep_until(
        start + std::chrono::nanoseconds(static_cast<std::int64_t>(rq.due_s * 1e9)));
    const auto st = svc.stats();
    backlog.push_back(st.submitted - st.completed - st.rejected);
    const std::uint64_t span = trace::enabled() ? trace::next_id() : 0;
    const std::int64_t submit_ns = trace::now_ns();
    szi::serve::Ticket ticket;
    if (rq.kind == Kind::Compress) ++out.compresses;
    try {
      trace::Scope s("serve.submit", i + 1, span);
      ticket = submit(svc, rq, fields, refs);
    } catch (const std::exception&) {
      ticket = {};  // the collector counts it as a failed request
    }
    out.late_ms.push_back(static_cast<double>(submit_ns - due_ns) / 1e6);
    {
      std::lock_guard lk(mu);
      q.push_back({i, std::move(ticket), due_ns, submit_ns, span});
    }
    cv.notify_one();
  }
  {
    std::lock_guard lk(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  svc.drain();

  out.misses = misses.load();
  if (!backlog.empty()) {
    out.backlog_max = *std::max_element(backlog.begin(), backlog.end());
    // Growing backlog: the last quarter's mean well above the second's.
    const std::size_t n = backlog.size(), q4 = n / 4;
    auto mean = [&](std::size_t lo, std::size_t hi) {
      double s = 0;
      for (std::size_t i = lo; i < hi; ++i) s += static_cast<double>(backlog[i]);
      return hi > lo ? s / static_cast<double>(hi - lo) : 0.0;
    };
    if (q4 > 0) out.growing = mean(3 * q4, n) > 2 * mean(q4, 2 * q4) + 8;
  }
  const auto stats1 = svc.stats();
  out.waves = stats1.waves - stats0.waves;
  out.coalesced = stats1.coalesced - stats0.coalesced;
  out.deferrals = stats1.admission_deferrals - stats0.admission_deferrals;
  return out;
}

/// kServeClients closed-loop clients for `seconds` (and at least
/// kPhaseRequests requests in all), each keeping kServeWindow requests in
/// flight: client c sends requests c, c + kServeClients, ... of `reqs`,
/// cycling, the next one once its oldest response has arrived and been
/// checked. Latency is the service's submit-to-completion time; a failed
/// request counts as +inf.
PhaseResult closed_loop(szi::serve::Service& svc,
                        const std::vector<SmallField>& fields,
                        const ServeRefs& refs, const std::vector<Request>& reqs,
                        double seconds, Tally& tally) {
  const auto stats0 = svc.stats();
  std::vector<PhaseResult> per(kServeClients);
  const std::int64_t deadline =
      trace::now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::atomic<std::size_t> sent{0};
  std::vector<std::thread> th;
  for (int c = 0; c < kServeClients; ++c)
    th.emplace_back([&, c] {
      PhaseResult& out = per[static_cast<std::size_t>(c)];
      std::deque<std::pair<const Request*, szi::serve::Ticket>> inflight;
      std::size_t next = static_cast<std::size_t>(c);
      auto more = [&] {
        return trace::now_ns() < deadline || sent.load() < kPhaseRequests;
      };
      for (;;) {
        while (inflight.size() < kServeWindow && more()) {
          const Request& rq = reqs[next % reqs.size()];
          next += kServeClients;
          sent.fetch_add(1);
          if (rq.kind == Kind::Compress) ++out.compresses;
          szi::serve::Ticket ticket;
          try {
            ticket = submit(svc, rq, fields, refs);
          } catch (const std::exception&) {
            ticket = {};  // counted as a failed request below
          }
          inflight.emplace_back(&rq, std::move(ticket));
        }
        if (inflight.empty()) break;
        const auto [rq, ticket] = std::move(inflight.front());
        inflight.pop_front();
        bool ok = false;
        double ms = 0;
        if (ticket.valid()) {
          const auto& resp = ticket.wait();
          ok = check(*rq, resp, fields, refs, out);
          ms = resp.total_seconds * 1e3;
          out.queue_ms.push_back(resp.queue_seconds * 1e3);
          out.service_ms.push_back(resp.service_seconds * 1e3);
        }
        tally.op(ok);
        out.latency_ms.push_back(ok ? ms : std::numeric_limits<double>::infinity());
        out.kind.push_back(static_cast<double>(rq->kind));
      }
    });
  for (auto& t : th) t.join();
  svc.drain();

  PhaseResult all;
  for (const auto& p : per) {
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(all.latency_ms, p.latency_ms);
    append(all.kind, p.kind);
    append(all.queue_ms, p.queue_ms);
    append(all.service_ms, p.service_ms);
    all.raw_bytes += p.raw_bytes;
    all.archive_bytes += p.archive_bytes;
    all.compresses += p.compresses;
  }
  const auto stats1 = svc.stats();
  all.waves = stats1.waves - stats0.waves;
  all.coalesced = stats1.coalesced - stats0.coalesced;
  all.deferrals = stats1.admission_deferrals - stats0.admission_deferrals;
  return all;
}

/// p99 by the nearest-rank rule, or +inf when fewer than ten samples lie
/// beyond it (the ladder then cannot count the rung as met).
double p99_or_inf(std::vector<double> v) {
  if (v.size() < 1000) return std::numeric_limits<double>::infinity();
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(v.size())));
  return v[rank - 1];
}

bool rung_met(const PhaseResult& p) {
  return !p.aborted && !p.growing && p99_or_inf(p.latency_ms) <= kLatencyLimitMs;
}

struct Serve {
  std::vector<SmallField> fields;
  ServeRefs refs;
  std::unique_ptr<szi::serve::Service> svc;
};

/// Set-up: construct the service and complete its first request of each
/// kind, one after the other: f32 compress, decompress and a 32^3 ROI of
/// that archive, f64 compress.
void serve_setup(Serve& s, Tally& tally) {
  using szi::serve::Status;
  s.svc = std::make_unique<szi::serve::Service>();
  const auto& f = s.fields[0];
  // Each ticket owns its response; keep it alive while reading it.
  const auto c = s.svc->submit_compress("bench", f.data, f.dims, kParams);
  const auto& archive = c.wait().archive;
  bool ok = c.wait().status == Status::Ok;
  if (ok) {
    const auto d = s.svc->submit_decompress("bench", archive);
    ok = d.wait().status == Status::Ok;
    const auto r = s.svc->submit_roi("bench", archive, {{0, 0, 0}, {32, 32, 32}});
    ok = r.wait().status == Status::Ok && ok;
  }
  const auto c64 = s.svc->submit_compress_f64("bench", f.data_f64, f.dims, kParams);
  tally.op(c64.wait().status == Status::Ok && ok);
}

void serve_refs(Serve& s, Tally& tally) {
  for (const auto& f : s.fields) {
    s.refs.a32.push_back(szi::cuszi_compress(std::span<const float>(f.data),
                                             f.dims, kParams));
    s.refs.a64.push_back(szi::cuszi_compress(
        std::span<const double>(f.data_f64), f.dims, kParams));
    s.refs.r32.push_back(szi::cuszi_decompress_f32(s.refs.a32.back()));
    tally.op(oracle::count_exceedances(
                 f.data, s.refs.r32.back(),
                 kParams.value * oracle::finite_range(f.data)) == 0);
  }
}

void emit_phase(Record& r, const PhaseResult& p) {
  r.list("latency_ms", p.latency_ms).list("kind", p.kind);
  r.list("queue_ms", p.queue_ms).list("service_ms", p.service_ms);
  r.list("late_ms", p.late_ms);
  r.count("backlog_max", p.backlog_max);
  r.count("waves", p.waves).count("coalesced", p.coalesced);
  r.count("compress_requests", p.compresses);
  r.count("admission_deferrals", p.deferrals);
  r.num("raw_bytes", p.raw_bytes).num("archive_bytes", p.archive_bytes);
}

/// Per-field compress replay through the layer functions (serve-mixed's
/// traced run): the per-call fixed costs small fields pay.
void serve_replay(const std::vector<SmallField>& fields, Record& r) {
  std::vector<double> at, pr, cb, en;
  std::uint64_t outliers = 0, codebook_bytes = 0;
  std::uint64_t req = 1u << 30;
  for (const auto& f : fields) {
    trace::Scope replay("bench.replay_compress", ++req);
    szi::dev::Workspace ws;
    const std::span<const float> in(f.data);
    std::int64_t t0 = trace::now_ns();
    szi::predictor::ProfileResult prof;
    {
      trace::Scope s("predictor.autotune", req);
      prof = szi::predictor::autotune(in, f.dims, kParams.value, ws);
    }
    at.push_back(seconds_since(t0));
    auto cfg = prof.config;
    cfg.alpha = szi::predictor::alpha_of_epsilon(kParams.value);
    t0 = trace::now_ns();
    szi::predictor::GInterpLevelsT<float> fl;
    {
      trace::Scope s("predictor.predict", req);
      fl = szi::predictor::ginterp_compress_fused_levels(
          in, f.dims, kParams.value * prof.value_range, cfg, kRadius, ws);
    }
    pr.push_back(seconds_since(t0));
    t0 = trace::now_ns();
    std::vector<szi::huffman::Codebook> books;
    {
      trace::Scope s("huffman.codebook", req);
      books = szi::huffman::build_level_books(fl.levels.histograms);
    }
    cb.push_back(seconds_since(t0));
    t0 = trace::now_ns();
    for (std::size_t l = 0; l < books.size(); ++l) {
      trace::Scope s("huffman.encode", req);
      codebook_bytes += 4 + books[l].nbins();
      (void)szi::huffman::encode_with_book_serial(
          fl.levels.streams[l], books[l], szi::huffman::kDefaultChunk, ws);
    }
    en.push_back(seconds_since(t0));
    outliers += fl.pred.outliers.count();
  }
  r.num("autotune_s", median(at)).num("predict_s", median(pr));
  r.num("codebook_s", median(cb)).num("encode_s", median(en));
  r.count("outliers", outliers).count("codebook_bytes", codebook_bytes);
}

void run_serve(const Args& a) {
  Serve s;
  s.fields = load_small_fields(a.dir);
  Tally tally;
  Record r;
  const auto arena0 = szi::dev::Arena::aggregate_stats();
  const std::int64_t t0 = trace::now_ns();
  serve_setup(s, tally);
  r.num("setup_s", seconds_since(t0));
  serve_refs(s, tally);
  r.count("fields", s.fields.size());
  r.count("inline_mode", s.svc->inline_mode() ? 1 : 0);

  if (!a.trace) {
    const auto reqs = schedule(a.seed, 0, kServeRate, kPhaseRequests, s.fields);
    const PhaseResult p =
        closed_loop(*s.svc, s.fields, s.refs, reqs, a.seconds, tally);
    emit_phase(r, p);
    r.num("peak_rss_mb", peak_rss_mb());
    arena_stamp(r, arena0);
    finish(r, tally, a);
    return;
  }

  // Traced run: the open loop at 40 req/s, untraced then traced, the
  // layer replay and the rate ladder.
  const std::size_t n = std::max<std::size_t>(
      kPhaseRequests, static_cast<std::size_t>(a.seconds * kServeRate));
  const auto reqs = schedule(a.seed, 0, kServeRate, n, s.fields);
  const PhaseResult fixed = open_loop(*s.svc, s.fields, s.refs, reqs, false, tally);
  emit_phase(r, fixed);

  trace::set_enabled(true);
  const auto again = schedule(a.seed, 1, kServeRate, n, s.fields);
  const PhaseResult traced = open_loop(*s.svc, s.fields, s.refs, again, false, tally);
  r.list("traced_latency_ms", traced.latency_ms);
  serve_replay(s.fields, r);
  trace::set_enabled(false);

  // Highest ladder rung 40 * 1.05^k that meets p99 <= 100 ms with no
  // growing backlog, by bisection over the fixed ladder; rung 0 is the
  // fixed-rate phase above. Traced runs only: near the knee it swings
  // with host load far more than any regression bound could absorb.
  int lo = rung_met(fixed) ? 0 : -1, hi = kLadderTop;
  std::vector<double> probed;
  while (lo >= 0 && lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    const double rate = kLadderBase * std::pow(kLadderStep, mid);
    const auto rq = schedule(a.seed, 100 + static_cast<std::uint64_t>(mid),
                             rate, kPhaseRequests, s.fields);
    const PhaseResult p = open_loop(*s.svc, s.fields, s.refs, rq, true, tally);
    probed.push_back(rung_met(p) ? rate : -rate);
    if (rung_met(p)) lo = mid;
    else hi = mid - 1;
  }
  r.num("max_rps", lo < 0 ? 0.0 : kLadderBase * std::pow(kLadderStep, lo));
  r.list("ladder_probes", probed);
  arena_stamp(r, arena0);
  finish(r, tally, a);
}

}  // namespace

int cmd_gen(const Args& a) {
  if (a.workload == "serve-mixed") {
    std::ofstream idx(a.dir + "/small.txt");
    std::size_t k = 0;
    for (const char* ds : kServeDatasets)
      for (const auto& f :
           szi::datagen::make_dataset(ds, szi::datagen::Size::Small)) {
        idx << f.label() << ' ' << f.dims.x << ' ' << f.dims.y << ' '
            << f.dims.z << '\n';
        write_file(a.dir + "/small_" + std::to_string(k++) + ".f32",
                   f.data.data(), f.bytes());
      }
    if (!idx) throw std::runtime_error("cannot write small.txt");
    return 0;
  }
  if (a.workload != "bulk-paper" && a.workload != "roi-random")
    throw std::invalid_argument("unknown workload " + a.workload);
  const auto f = paper_field(a.seed);
  write_file(a.dir + "/field.f32", f.data(), f.size() * sizeof(float));
  return 0;
}

int cmd_setup(const Args& a) {
  Tally tally;
  Record r;
  if (a.workload == "bulk-paper") {
    Bulk b;
    load_bulk(b, a);
    r.num("setup_s", bulk_round_trip(b, tally, 0).wall());
  } else if (a.workload == "roi-random") {
    Roi s;
    s.field = read_floats(a.dir + "/field.f32", kPaperDims.volume());
    const std::int64_t t0 = trace::now_ns();
    roi_setup(s, a);
    r.num("setup_s", seconds_since(t0));
    tally.op(true);
  } else if (a.workload == "serve-mixed") {
    Serve s;
    s.fields = load_small_fields(a.dir);
    const std::int64_t t0 = trace::now_ns();
    serve_setup(s, tally);
    r.num("setup_s", seconds_since(t0));
  } else {
    throw std::invalid_argument("unknown workload " + a.workload);
  }
  Args quiet = a;
  quiet.trace = false;
  finish(r, tally, quiet);
  return 0;
}

int cmd_run(const Args& a) {
  if (a.workload == "bulk-paper") run_bulk(a);
  else if (a.workload == "roi-random") run_roi(a);
  else if (a.workload == "serve-mixed") run_serve(a);
  else throw std::invalid_argument("unknown workload " + a.workload);
  return 0;
}

// ---- Host stamps -----------------------------------------------------------

namespace {

std::size_t cache_bytes(int level) {
  const long v = ::sysconf(level == 2 ? _SC_LEVEL2_CACHE_SIZE
                                      : _SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return static_cast<std::size_t>(v);
  // Fallback: sysfs reports e.g. "8192K" / "300M".
  for (int i = 0; i < 8; ++i) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream lv(base + "level"), sz(base + "size"), ty(base + "type");
    int l = 0;
    std::string size, type;
    if (!(lv >> l) || !(sz >> size) || !(ty >> type)) continue;
    if (l != level || type == "Instruction") continue;
    std::size_t n = std::stoull(size);
    if (size.back() == 'K') n <<= 10;
    if (size.back() == 'M') n <<= 20;
    return n;
  }
  return 0;
}

}  // namespace

// VmHWM, not getrusage's ru_maxrss: after reset_peak_rss() the latter
// still reports the old peak through any thread that has exited since.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string key;
  std::size_t kib = 0;
  while (f >> key) {
    if (key == "VmHWM:" && f >> kib)
      return static_cast<double>(kib) * 1024.0 / 1e6;
    f.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";  // resets VmHWM to the current RSS
  f.flush();
  if (!f) throw std::runtime_error("cannot reset the peak RSS");
}

void stamp_host(Record& r) {
  r.count("nproc", std::thread::hardware_concurrency());
  r.count("pool_workers", szi::dev::ThreadPool::instance().worker_count());
  r.count("l2_bytes", cache_bytes(2));
  r.count("l3_bytes", cache_bytes(3));
  r.str("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  r.count("optimized", 1);
#else
  r.count("optimized", 0);
#endif
}

double memcpy_gbps(std::size_t& working_set_bytes) {
  const std::size_t llc = std::max(cache_bytes(3), cache_bytes(2));
  const std::size_t half = std::max<std::size_t>(2 * llc, 128u << 20);
  working_set_bytes = 2 * half;
  std::vector<std::byte> src(half, std::byte{1}), dst(half, std::byte{0});
  std::vector<double> gbps;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t t0 = trace::now_ns();
    std::memcpy(dst.data(), src.data(), half);
    gbps.push_back(static_cast<double>(half) / seconds_since(t0) / 1e9);
    src[static_cast<std::size_t>(i)] = dst[half - 1];  // keep the copies live
  }
  return median(gbps);
}

}  // namespace perfbench
