#include "core/cuszi.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <limits>
#include <stdexcept>
#include <utility>

#include <optional>

#include "core/bytes.hh"
#include "core/timer.hh"
#include "device/function_ref.hh"
#include "device/launch.hh"
#include "device/thread_pool.hh"
#include "huffman/histogram.hh"
#include "huffman/huffman.hh"
#include "io/archive_source.hh"
#include "metrics/stats.hh"
#include "predictor/anchor.hh"
#include "predictor/autotune.hh"
#include "predictor/ginterp.hh"

namespace szi {

namespace {

constexpr std::uint32_t kMagic = 0x31495A53;    // "SZI1" (legacy)
constexpr std::uint32_t kMagicV2 = 0x32495A53;  // "SZI2" (level-segmented)

struct PackedConfig {
  double alpha;
  std::uint8_t cubic[3];
  std::uint8_t order[3];
  std::uint16_t radius;
};
static_assert(sizeof(PackedConfig) == 16, "archive layout is padding-free");

/// Bytes of the fixed inner-archive header: magic | precision | dims | eb |
/// PackedConfig. v1 archives follow with the anchor count; v2 archives with
/// the segment directory.
constexpr std::size_t kInnerFixedBytes =
    sizeof(std::uint32_t) + sizeof(std::uint8_t) + 3 * sizeof(std::uint64_t) +
    sizeof(double) + sizeof(PackedConfig);

/// One row of the SZI2 segment directory. Segments are laid out back to
/// back immediately after the directory: anchors, outliers, then one
/// independently framed Huffman stream per interpolation level in
/// descending level order (coarsest first), so a preview at level L is a
/// prefix of the archive. An optional trailing kind-3 tile-index segment
/// (TIDX) rides after the levels — behind every prefix a preview needs, so
/// progressive reads never pay for it. Reserved fields are written zero and
/// must read zero.
struct SegmentEntry {
  std::uint8_t kind = 0;   ///< kSegAnchors/kSegOutliers/kSegLevel/kSegTileIndex
  std::uint8_t level = 0;  ///< 1-based interpolation level (kind 2), else 0
  std::uint16_t reserved0 = 0;
  std::uint32_t reserved1 = 0;
  std::uint64_t count = 0;   ///< elements: anchors, outliers, or symbols
  std::uint64_t offset = 0;  ///< absolute byte offset of the payload
  std::uint64_t size = 0;    ///< payload bytes
};
static_assert(sizeof(SegmentEntry) == 32, "archive layout is padding-free");

constexpr std::uint8_t kSegAnchors = 0;
constexpr std::uint8_t kSegOutliers = 1;
constexpr std::uint8_t kSegLevel = 2;
constexpr std::uint8_t kSegTileIndex = 3;

/// TIDX — the random-access tile index (kind 3). One entry per (level,
/// z-slab) pair maps the slab's first level symbol to its exact coordinates
/// in the archive: stream rank, Huffman chunk, payload byte, and the 64 KiB
/// LZSS block a 'BBC2' wrapper would place that byte in. Every field is a
/// closed form of (dims, per-level chunk tables), so both SZI2 writers emit
/// identical index bytes and decoders re-derive and cross-check all of it.
constexpr std::uint16_t kTidxVersion = 1;

/// Payload header: u16 version | u16 reserved | u32 slab_z | u32 nlevels |
/// u32 nslabs, then nlevels * nslabs entries (levels descending to match
/// the segment order, slabs ascending within a level).
constexpr std::size_t kTidxHeaderBytes =
    2 * sizeof(std::uint16_t) + 3 * sizeof(std::uint32_t);

struct TidxEntry {
  std::uint64_t sym_rank;    ///< level symbols strictly below the slab plane
  std::uint64_t code_byte;   ///< payload-relative byte of the covering chunk
  std::uint32_t huff_chunk;  ///< Huffman chunk index containing sym_rank
  std::uint32_t wrap_block;  ///< 64 KiB LZSS block of that byte (method 0)
};
static_assert(sizeof(TidxEntry) == 24, "archive layout is padding-free");

/// z-slab granularity of the tile index: the reconstruction tile depth, so
/// one index row covers exactly one reconstructor slab.
std::size_t tidx_slab_z(const dev::Dim3& dims) {
  return predictor::geometry_for(dims).tile.z;
}

std::size_t tidx_nslabs(const dev::Dim3& dims) {
  return dev::ceil_div(dims.z, tidx_slab_z(dims));
}

std::uint64_t tidx_entry_count(const dev::Dim3& dims, int nlevels) {
  return static_cast<std::uint64_t>(nlevels) * tidx_nslabs(dims);
}

std::uint64_t tidx_payload_bytes(const dev::Dim3& dims, int nlevels) {
  return kTidxHeaderBytes + tidx_entry_count(dims, nlevels) * sizeof(TidxEntry);
}

/// Writes the tile index payload (tidx_payload_bytes) into `dst`, derived
/// from the per-level encode plans (indexed level-1).
void write_tidx(const dev::Dim3& dims,
                std::span<const huffman::EncodePlan> plans,
                std::span<std::byte> dst) {
  const std::size_t slab_z = tidx_slab_z(dims);
  const std::size_t nslabs = tidx_nslabs(dims);
  const int nlevels = static_cast<int>(plans.size());
  std::byte* wp = dst.data();
  const auto put = [&wp](const auto& v) {
    std::memcpy(wp, &v, sizeof(v));
    wp += sizeof(v);
  };
  put(kTidxVersion);
  put(static_cast<std::uint16_t>(0));
  put(static_cast<std::uint32_t>(slab_z));
  put(static_cast<std::uint32_t>(nlevels));
  put(static_cast<std::uint32_t>(nslabs));
  for (int level = nlevels; level >= 1; --level) {
    const auto& m = plans[static_cast<std::size_t>(level - 1)];
    for (std::size_t k = 0; k < nslabs; ++k) {
      TidxEntry e{};
      e.sym_rank = predictor::ginterp_level_prefix(dims, level, k * slab_z);
      // A slab starting past the level's last symbol (all of its positions
      // sit below the plane) points one past the payload.
      const std::size_t chunk =
          static_cast<std::size_t>(e.sym_rank) / m.chunk_size;
      e.huff_chunk = static_cast<std::uint32_t>(chunk);
      e.code_byte = chunk < m.nchunks ? m.offsets[chunk] : m.payload_bytes;
      e.wrap_block = static_cast<std::uint32_t>(
          (m.header_bytes + e.code_byte) / lossless::kLzssBlock);
      put(e);
    }
  }
}

/// Total header bytes of a v2 archive with `nseg` segments: fixed header,
/// u32 segment count, directory. Segment payloads start here.
constexpr std::size_t v2_header_bytes(std::size_t nseg) {
  return kInnerFixedBytes + sizeof(std::uint32_t) +
         nseg * sizeof(SegmentEntry);
}

PackedConfig pack_config(const predictor::InterpConfig& cfg, int radius) {
  PackedConfig pc{};
  pc.alpha = cfg.alpha;
  for (int i = 0; i < 3; ++i) {
    pc.cubic[i] =
        static_cast<std::uint8_t>(cfg.cubic[static_cast<std::size_t>(i)]);
    pc.order[i] = cfg.dim_order[static_cast<std::size_t>(i)];
  }
  pc.radius = static_cast<std::uint16_t>(radius);
  return pc;
}

/// First four archive bytes, or 0 when the buffer is shorter — callers
/// dispatch on the value and let the selected parser report truncation.
std::uint32_t peek_magic(std::span<const std::byte> bytes) {
  std::uint32_t m = 0;
  if (bytes.size() >= sizeof(m)) std::memcpy(&m, bytes.data(), sizeof(m));
  return m;
}

template <typename T>
constexpr Precision precision_of() {
  return sizeof(T) == 4 ? Precision::F32 : Precision::F64;
}

struct Tuned {
  double eb;
  predictor::InterpConfig cfg;
};

/// Shared front half of every compress path: parameter validation plus the
/// profiling auto-tune kernel (which also resolves Rel -> Abs).
template <typename T>
Tuned autotune_checked(std::span<const T> data, const dev::Dim3& dims,
                       const CompressParams& p, dev::Workspace& ws) {
  if (p.mode == ErrorMode::FixedRate)
    throw std::invalid_argument("cuSZ-i: fixed-rate mode not supported");
  if (p.mode == ErrorMode::PwRel)
    throw std::invalid_argument(
        "cuSZ-i: pointwise-relative mode requires with_pointwise_rel()");
  if (data.size() != dims.volume())
    throw std::invalid_argument("cuSZ-i: size/dims mismatch");

  auto prof = predictor::autotune(data, dims, p.value, ws);
  const double eb =
      p.mode == ErrorMode::Rel ? p.value * prof.value_range : p.value;
  if (eb <= 0) throw std::invalid_argument("cuSZ-i: non-positive error bound");
  if (p.mode == ErrorMode::Rel) {
    // ε changed meaning: recompute α for the absolute bound.
    prof.epsilon = p.value;
    prof.config.alpha = predictor::alpha_of_epsilon(prof.epsilon);
  }
  return {eb, prof.config};
}

/// The legacy SZI1 single-stream writer, retained byte-for-byte so
/// back-compat tests can mint v1 archives against the version-dispatched
/// decoders (cuszi_compress_v1).
template <typename T>
std::vector<std::byte> compress_v1_typed(std::span<const T> data,
                                         const dev::Dim3& dims,
                                         const CompressParams& p,
                                         StageTimings* timings,
                                         dev::Workspace& ws) {
  core::Timer total;
  core::Timer stage;
  StageTimings t;

  const Tuned tuned = autotune_checked(data, dims, p, ws);
  t.predict += stage.lap();

  constexpr int kRadius = quant::kDefaultRadius;
  auto fz = predictor::ginterp_compress_fused(data, dims, tuned.eb, tuned.cfg,
                                              kRadius, ws);
  const auto& pred = fz.pred;
  t.predict += stage.lap();
  t.histogram = 0;
  t.histogram_fused = true;

  const auto book = huffman::Codebook::build(fz.histogram);
  t.codebook = stage.lap();
  const auto huff =
      huffman::encode_with_book(pred.codes, book, huffman::kDefaultChunk, ws);
  t.encode = stage.lap();

  core::ByteWriter w;
  const std::size_t outlier_blob =
      sizeof(std::uint64_t) + pred.outliers.byte_size();
  w.reserve(64 + pred.anchors.size() * sizeof(T) + outlier_blob + huff.size());
  w.put(kMagic);
  w.put(static_cast<std::uint8_t>(precision_of<T>()));
  w.put(static_cast<std::uint64_t>(dims.x));
  w.put(static_cast<std::uint64_t>(dims.y));
  w.put(static_cast<std::uint64_t>(dims.z));
  w.put(tuned.eb);
  w.put(pack_config(tuned.cfg, kRadius));
  w.put_array(pred.anchors);
  // Outlier blob assembled in place — same framing as
  // put_blob(OutlierSetT::serialize()): u64 blob size | u64 n | idx | vals.
  w.put(static_cast<std::uint64_t>(outlier_blob));
  w.put(static_cast<std::uint64_t>(pred.outliers.count()));
  w.put_raw(std::as_bytes(pred.outliers.indices));
  w.put_raw(std::as_bytes(pred.outliers.values));
  w.put_blob(huff);
  ws.reset();
  t.total = total.lap();
  if (timings) *timings = t;
  return w.take();
}

/// The frozen layout of one SZI2 inner archive: per-level codebooks and
/// encode plans (indexed level-1) and the segment directory they size.
/// Offsets are assigned contiguously from the end of the header in archive
/// order: anchors, outliers, levels descending, then the trailing tile
/// index (whose size is a closed form of dims, so the directory freezes
/// before any payload byte exists).
struct InnerLayout {
  std::vector<huffman::Codebook> books;
  std::vector<huffman::EncodePlan> plans;
  std::vector<SegmentEntry> segs;

  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(segs.back().offset + segs.back().size);
  }
};

/// Plans every level stream (parallel per-chunk sizing and scan) and
/// freezes the directory.
template <typename T>
InnerLayout plan_inner(const predictor::GInterpViewT<T>& pred,
                       const predictor::GInterpLevelSplit& levels,
                       std::vector<huffman::Codebook> books,
                       const dev::Dim3& dims, dev::Workspace& ws) {
  InnerLayout lay;
  lay.books = std::move(books);
  const int nlevels = static_cast<int>(levels.streams.size());
  for (std::size_t i = 0; i < levels.streams.size(); ++i)
    lay.plans.push_back(huffman::encode_plan(
        levels.streams[i], lay.books[i], huffman::kDefaultChunk, ws));

  auto& segs = lay.segs;
  segs.resize(3 + static_cast<std::size_t>(nlevels));
  std::uint64_t off = v2_header_bytes(segs.size());
  segs[0].kind = kSegAnchors;
  segs[0].count = pred.anchors.size();
  segs[0].offset = off;
  segs[0].size = pred.anchors.size() * sizeof(T);
  off += segs[0].size;
  segs[1].kind = kSegOutliers;
  segs[1].count = pred.outliers.count();
  segs[1].offset = off;
  segs[1].size = sizeof(std::uint64_t) + pred.outliers.byte_size();
  off += segs[1].size;
  for (int j = 0; j < nlevels; ++j) {
    const int level = nlevels - j;
    const auto& plan = lay.plans[static_cast<std::size_t>(level - 1)];
    auto& s = segs[2 + static_cast<std::size_t>(j)];
    s.kind = kSegLevel;
    s.level = static_cast<std::uint8_t>(level);
    s.count = plan.n;
    s.offset = off;
    s.size = plan.stream_bytes();
    off += s.size;
  }
  auto& tx = segs.back();
  tx.kind = kSegTileIndex;
  tx.count = tidx_entry_count(dims, nlevels);
  tx.offset = off;
  tx.size = tidx_payload_bytes(dims, nlevels);
  return lay;
}

/// Watermark callback of the inner-archive assembler: every byte below the
/// argument is final.
using WatermarkFn = dev::FunctionRef<void(std::size_t)>;

/// The one SZI2 inner-archive assembler behind the raw and the wrapped
/// writer. Writes the header, directory, anchors and outliers, then each
/// level segment coarsest-first (its stream header, then its chunks emitted
/// in parallel straight into their final slots), then the tile index built
/// from the plans. `dst` spans exactly lay.size() bytes, and every byte of
/// it is written. With `advance`, chunks go out in ~4-block groups and
/// advance(watermark) runs after the fixed segments, after each stream
/// header, after every group and at the end, so the wrapped writer's LZSS
/// pass takes whole 64 KiB regions while later levels still encode; without
/// it each level's chunks go out in one launch.
template <typename T>
void write_inner(const InnerLayout& lay, const predictor::GInterpViewT<T>& pred,
                 const predictor::GInterpLevelSplit& levels,
                 const dev::Dim3& dims, const Tuned& tuned,
                 std::span<std::byte> dst, const WatermarkFn* advance) {
  constexpr int kRadius = quant::kDefaultRadius;
  std::byte* wp = dst.data();
  const auto put_raw = [&wp](std::span<const std::byte> b) {
    if (!b.empty()) std::memcpy(wp, b.data(), b.size());
    wp += b.size();
  };
  const auto put = [&put_raw](const auto& v) {
    put_raw(std::as_bytes(std::span(&v, 1)));
  };
  put(kMagicV2);
  put(static_cast<std::uint8_t>(precision_of<T>()));
  put(static_cast<std::uint64_t>(dims.x));
  put(static_cast<std::uint64_t>(dims.y));
  put(static_cast<std::uint64_t>(dims.z));
  put(tuned.eb);
  put(pack_config(tuned.cfg, kRadius));
  put(static_cast<std::uint32_t>(lay.segs.size()));
  put_raw(std::as_bytes(std::span(lay.segs)));
  put_raw(std::as_bytes(pred.anchors));
  put(static_cast<std::uint64_t>(pred.outliers.count()));
  put_raw(std::as_bytes(pred.outliers.indices));
  put_raw(std::as_bytes(pred.outliers.values));
  if (advance) (*advance)(static_cast<std::size_t>(wp - dst.data()));

  constexpr std::uint64_t kGroupBytes = 4 * lossless::kLzssBlock;
  for (const auto& seg : lay.segs) {
    if (seg.kind != kSegLevel) continue;
    const auto i = static_cast<std::size_t>(seg.level - 1);
    const auto& plan = lay.plans[i];
    const auto& book = lay.books[i];
    const std::size_t base = static_cast<std::size_t>(seg.offset);
    huffman::write_stream_header(plan, book, dst.subspan(base));
    const std::size_t payload_off = base + plan.header_bytes;
    if (advance) (*advance)(payload_off);
    const auto payload = dst.subspan(
        payload_off, static_cast<std::size_t>(plan.payload_bytes));
    for (std::size_t c = 0; c < plan.nchunks;) {
      std::size_t cend = plan.nchunks;
      if (advance) {
        cend = c + 1;
        while (cend < plan.nchunks &&
               plan.offsets[cend] - plan.offsets[c] < kGroupBytes)
          ++cend;
      }
      huffman::encode_chunks(levels.streams[i], book, plan, c, cend, payload);
      c = cend;
      if (advance)
        (*advance)(payload_off + static_cast<std::size_t>(
                                     c < plan.nchunks ? plan.offsets[c]
                                                      : plan.payload_bytes));
    }
  }
  write_tidx(dims, lay.plans,
             dst.subspan(static_cast<std::size_t>(lay.segs.back().offset)));
  if (advance) (*advance)(dst.size());
}

/// The raw SZI2 writer behind every default compress path. The fused
/// pipeline re-buckets each owned row's codes into per-level streams inside
/// the predict kernel (one exact histogram per level as a byproduct); the
/// unfused reference splits the finished code array afterwards — the
/// streams and histograms are byte-identical, so fused and unfused archives
/// stay in lockstep. The inner archive is assembled straight into the
/// returned vector.
template <typename T>
std::vector<std::byte> compress_typed(std::span<const T> data,
                                      const dev::Dim3& dims,
                                      const CompressParams& p,
                                      StageTimings* timings, bool fused,
                                      dev::Workspace& ws) {
  core::Timer total;
  core::Timer stage;
  StageTimings t;

  const Tuned tuned = autotune_checked(data, dims, p, ws);
  t.predict += stage.lap();

  constexpr int kRadius = quant::kDefaultRadius;
  const std::size_t nbins = 2 * static_cast<std::size_t>(kRadius);
  predictor::GInterpViewT<T> pred;
  predictor::GInterpLevelSplit levels;
  if (fused) {
    auto fl = predictor::ginterp_compress_fused_levels(data, dims, tuned.eb,
                                                       tuned.cfg, kRadius, ws);
    pred = fl.pred;
    levels = std::move(fl.levels);
    t.predict += stage.lap();
    t.histogram = 0;
    t.histogram_fused = true;
  } else {
    pred = predictor::ginterp_compress(data, dims, tuned.eb, tuned.cfg,
                                       kRadius, ws);
    t.predict += stage.lap();
    levels = predictor::ginterp_split_levels(pred.codes, dims, nbins, ws);
    t.histogram = stage.lap();
  }

  auto books = huffman::build_level_books(levels.histograms);
  t.codebook = stage.lap();

  const InnerLayout lay =
      plan_inner<T>(pred, levels, std::move(books), dims, ws);
  std::vector<std::byte> out(lay.size());
  write_inner<T>(lay, pred, levels, dims, tuned, out, nullptr);
  ws.reset();
  t.encode = stage.lap();
  t.total = total.lap();
  if (timings) *timings = t;
  return out;
}

template <typename T>
std::vector<std::byte> compress_typed(std::span<const T> data,
                                      const dev::Dim3& dims,
                                      const CompressParams& p,
                                      StageTimings* timings, bool fused) {
  // Throwaway arena: malloc-equivalent lifetime, no global memory retained.
  // Pooling across calls is opt-in via the Workspace overload.
  dev::Arena local;
  dev::Workspace ws(local);
  return compress_typed<T>(data, dims, p, timings, fused, ws);
}

/// The fused compress-to-wrapped-archive pipeline (re-threaded for the
/// level-segmented SZI2 layout and the per-segment 'BBC2' container):
/// predict and per-level re-bucketing fuse into one pass; the inner archive
/// is assembled exactly once in workspace memory by write_inner, and the
/// de-redundancy pass rides its rising watermark — each wrapper segment
/// speculatively LZSS-compresses its 64 KiB blocks as pool tasks as raw
/// bytes finalize, then runs the sampled method chooser the moment the
/// segment completes; a transform win (zero-RLE / bitshuffle) re-encodes
/// the transformed bytes, and the segment's speculative tasks that have
/// not started yet are skipped. Per-block output
/// depends only on the block's bytes, so the archive is byte-identical to
/// bitcomp_wrap_archive(compress_typed(...), mode) for every worker count.
template <typename T>
std::vector<std::byte> compress_bitcomp_typed(std::span<const T> data,
                                              const dev::Dim3& dims,
                                              const CompressParams& p,
                                              StageTimings* timings,
                                              dev::Workspace& ws,
                                              lossless::LzssMode mode) {
  core::Timer total;
  core::Timer stage;
  StageTimings t;

  const Tuned tuned = autotune_checked(data, dims, p, ws);
  t.predict += stage.lap();

  constexpr int kRadius = quant::kDefaultRadius;
  const auto fl = predictor::ginterp_compress_fused_levels(
      data, dims, tuned.eb, tuned.cfg, kRadius, ws);
  t.predict += stage.lap();
  t.histogram = 0;
  t.histogram_fused = true;

  auto books = huffman::build_level_books(fl.levels.histograms);
  t.codebook = stage.lap();

  const InnerLayout lay =
      plan_inner<T>(fl.pred, fl.levels, std::move(books), dims, ws);
  const auto& segs = lay.segs;
  const std::size_t raw_size = lay.size();

  auto raw = ws.make<std::byte>(raw_size);

  // De-redundancy state, one record per BBC2 wrapper segment: the header +
  // directory range, then one range per inner segment (the same split
  // wrap_partition derives from the directory, so the two paths agree).
  // Blocks are submitted as pool tasks once the watermark of final raw
  // bytes passes their end; each task reads only bytes below the watermark
  // at submit time and the host thread writes only bytes above it, so the
  // two sides never touch the same byte concurrently. Submissions below a
  // segment's end speculate method 0 (LZSS over raw bytes); when the
  // watermark closes the segment the sampled chooser runs, and a transform
  // win re-encodes fresh blocks over the transformed bytes. The segment's
  // speculative tasks still queued then see its `dead` flag and return;
  // any already running finish into slices nothing reads again. With one
  // pool worker every task runs inside the final wait().
  const std::size_t bs = lossless::kLzssBlock;
  const std::size_t stride = bs + lossless::kLzssTokenSlack;

  struct WSeg {
    std::size_t off = 0;  ///< raw-archive offset
    std::size_t len = 0;  ///< raw-archive length
    lossless::Method method = lossless::Method::Lzss;
    std::span<const std::byte> src;  ///< stream source (raw or transformed)
    std::size_t nblocks = 0;
    std::span<std::byte> slices;
    std::span<std::uint64_t> enc;
    std::size_t next = 0;  ///< speculative submit progress
    std::atomic<bool> dead{false};  ///< speculation lost to a transform
  };
  std::vector<WSeg> wsegs(segs.size() + 1);
  wsegs[0].len = static_cast<std::size_t>(segs.front().offset);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    wsegs[i + 1].off = static_cast<std::size_t>(segs[i].offset);
    wsegs[i + 1].len = static_cast<std::size_t>(segs[i].size);
  }
  for (auto& wsg : wsegs) {
    wsg.src = std::span<const std::byte>(raw.data() + wsg.off, wsg.len);
    wsg.nblocks = wsg.len == 0 ? 0 : dev::ceil_div(wsg.len, bs);
    wsg.slices = ws.make<std::byte>(wsg.nblocks * stride);
    wsg.enc = ws.make<std::uint64_t>(wsg.nblocks);
  }

  dev::TaskGroup lz;
  const auto submit_block = [&](WSeg& wsg, std::size_t b,
                                const std::atomic<bool>* dead) {
    const std::size_t begin = b * bs;
    const std::size_t len = std::min(bs, wsg.src.size() - begin);
    const std::byte* in = wsg.src.data() + begin;
    std::byte* out = wsg.slices.data() + b * stride;
    std::uint64_t* esz = wsg.enc.data() + b;
    lz.run([in, len, out, stride, esz, mode, dead] {
      if (dead && dead->load()) return;
      *esz = lossless::lzss_compress_block({in, len}, {out, stride},
                                           dev::Arena::instance(), mode);
    });
  };

  const auto finalize_seg = [&](WSeg& wsg) {
    // The chooser reads the completed raw range on the host; in-flight
    // speculative tasks read the same bytes — both sides are read-only
    // below the watermark, so no handshake is needed. choose_method is a
    // pure function of (bytes, mode): this decision is byte-for-byte the
    // one bitcomp_wrap_archive makes for the same segment.
    const auto seg_bytes =
        std::span<const std::byte>(raw.data() + wsg.off, wsg.len);
    wsg.method = lossless::choose_method(seg_bytes, mode, ws);
    // Speculation was right: every block is already submitted (the
    // watermark covers the segment).
    if (wsg.method == lossless::Method::Lzss) return;
    // Transform won: skip the speculative tasks, re-point the segment at
    // the transformed bytes and encode fresh blocks over them.
    wsg.dead = true;
    wsg.src = lossless::method_transform(seg_bytes, wsg.method, ws);
    wsg.nblocks = wsg.src.empty() ? 0 : dev::ceil_div(wsg.src.size(), bs);
    wsg.slices = ws.make<std::byte>(wsg.nblocks * stride);
    wsg.enc = ws.make<std::uint64_t>(wsg.nblocks);
    for (std::size_t b = 0; b < wsg.nblocks; ++b)
      submit_block(wsg, b, nullptr);
  };

  std::size_t cur_seg = 0;
  const auto submit_upto = [&](std::size_t watermark) {
    while (cur_seg < wsegs.size()) {
      WSeg& wsg = wsegs[cur_seg];
      while (wsg.next < wsg.nblocks) {
        const std::size_t bend =
            wsg.off + std::min((wsg.next + 1) * bs, wsg.len);
        if (bend > watermark) break;
        submit_block(wsg, wsg.next, &wsg.dead);
        ++wsg.next;
      }
      if (watermark < wsg.off + wsg.len) break;
      finalize_seg(wsg);
      ++cur_seg;
    }
  };

  const WatermarkFn advance = submit_upto;
  write_inner<T>(lay, fl.pred, fl.levels, dims, tuned, raw, &advance);
  lz.wait();

  // Final wrapped archive, assembled directly into the returned vector:
  // 'BBC2' magic | u32 nseg | segment table | per-segment LZSS streams.
  const std::size_t nwseg = wsegs.size();
  std::vector<std::size_t> stream_sizes(nwseg);
  std::size_t payload_total = 0;
  for (std::size_t i = 0; i < nwseg; ++i) {
    stream_sizes[i] =
        lossless::lzss_stream_size(wsegs[i].src.size(), bs, wsegs[i].enc);
    payload_total += stream_sizes[i];
  }
  std::vector<std::byte> out(2 * sizeof(std::uint32_t) +
                             nwseg * sizeof(WrapSegmentEntry) + payload_total);
  std::byte* op = out.data();
  std::memcpy(op, &kBitcompWrapMagicV2, sizeof(kBitcompWrapMagicV2));
  op += sizeof(kBitcompWrapMagicV2);
  const auto nseg32 = static_cast<std::uint32_t>(nwseg);
  std::memcpy(op, &nseg32, sizeof(nseg32));
  op += sizeof(nseg32);
  for (std::size_t i = 0; i < nwseg; ++i) {
    WrapSegmentEntry e;
    e.method = static_cast<std::uint8_t>(wsegs[i].method);
    e.raw_size = wsegs[i].len;
    e.size = stream_sizes[i];
    std::memcpy(op, &e, sizeof(e));
    op += sizeof(e);
  }
  for (std::size_t i = 0; i < nwseg; ++i) {
    lossless::lzss_assemble(wsegs[i].src, bs, wsegs[i].slices, stride,
                            wsegs[i].enc, {op, stream_sizes[i]});
    op += stream_sizes[i];
  }
  ws.reset();
  t.encode = stage.lap();
  t.total = total.lap();
  if (timings) *timings = t;
  return out;
}

struct InnerHeader {
  dev::Dim3 dims;
  std::size_t volume = 0;
  double eb = 0;
  predictor::InterpConfig cfg;
  int radius = 0;
};

/// Parses + validates the fixed kInnerFixedBytes header (both versions
/// share it; `magic` selects which one the caller expects).
template <typename T>
InnerHeader parse_inner_header(core::ByteReader& rd,
                               std::uint32_t magic = kMagic) {
  rd.expect_magic(magic);
  const auto prec_byte = rd.read<std::uint8_t>();
  if (prec_byte > static_cast<std::uint8_t>(Precision::F64))
    rd.fail("unknown precision byte");
  if (static_cast<Precision>(prec_byte) != precision_of<T>())
    rd.fail("archive precision mismatch");
  InnerHeader h;
  h.dims.x = rd.read<std::uint64_t>();
  h.dims.y = rd.read<std::uint64_t>();
  h.dims.z = rd.read<std::uint64_t>();
  h.volume =
      core::checked_volume("cusz-i", rd.offset(), h.dims.x, h.dims.y, h.dims.z);
  (void)rd.checked_array_bytes(h.volume, sizeof(T));
  h.eb = rd.read<double>();
  const auto pc = rd.read<PackedConfig>();
  h.cfg.alpha = pc.alpha;
  for (int i = 0; i < 3; ++i) {
    if (pc.cubic[i] > static_cast<std::uint8_t>(predictor::CubicKind::Natural))
      rd.fail("unknown cubic kind");
    if (pc.order[i] > 2) rd.fail("interpolation dim order out of range");
    h.cfg.cubic[static_cast<std::size_t>(i)] =
        static_cast<predictor::CubicKind>(pc.cubic[i]);
    h.cfg.dim_order[static_cast<std::size_t>(i)] = pc.order[i];
  }
  h.radius = pc.radius;
  return h;
}

/// Parses an outlier blob (u64 n | idx | vals) into workspace-resident
/// arrays — archive bytes are unaligned, so both arrays are memcpy'd, with
/// the same validation OutlierSetT::deserialize performs.
template <typename T>
quant::OutlierViewT<T> parse_outlier_blob(std::span<const std::byte> blob,
                                          dev::Workspace& ws) {
  core::ByteReader rd(blob, "outlier-set");
  const auto n64 = rd.read<std::uint64_t>();
  if (n64 > rd.remaining()) rd.fail("count exceeds remaining bytes");
  const std::size_t n = static_cast<std::size_t>(n64);
  const std::size_t ibytes = rd.checked_array_bytes(n, sizeof(std::uint64_t));
  auto idx = ws.make<std::uint64_t>(n);
  if (n > 0) std::memcpy(idx.data(), rd.read_bytes(ibytes).data(), ibytes);
  const std::size_t vbytes = rd.checked_array_bytes(n, sizeof(T));
  auto vals = ws.make<T>(n);
  if (n > 0) std::memcpy(vals.data(), rd.read_bytes(vbytes).data(), vbytes);
  quant::OutlierViewT<T> v;
  v.indices = idx;
  v.values = vals;
  return v;
}

/// Parses + validates the SZI2 segment directory against the header's
/// geometry: the segment count, kinds, levels, counts, and sizes are all
/// derivable from `dims` (and the outlier count), so every field is checked
/// against its closed form; offsets must be exactly contiguous from the end
/// of the header. The caller's ByteReader sits right after the fixed header
/// and is left at the first segment payload.
template <typename T>
std::vector<SegmentEntry> parse_v2_directory(core::ByteReader& rd,
                                             const InnerHeader& h) {
  const int nlevels = predictor::ginterp_level_count(h.dims);
  const auto nseg = rd.read<std::uint32_t>();
  // Pre-index archives carry anchors + outliers + levels; indexed archives
  // append one trailing kind-3 tile-index segment. Anything else is corrupt.
  const auto base = static_cast<std::uint32_t>(nlevels) + 2;
  if (nseg != base && nseg != base + 1) rd.fail("segment count mismatch");
  std::vector<SegmentEntry> segs(nseg);
  for (auto& s : segs) s = rd.read<SegmentEntry>();
  std::uint64_t cursor = rd.offset();
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const auto& s = segs[i];
    if (s.reserved0 != 0 || s.reserved1 != 0)
      rd.fail("reserved segment field set");
    if (s.offset != cursor) rd.fail("segment offsets not contiguous");
    if (s.size > std::numeric_limits<std::uint64_t>::max() - cursor)
      rd.fail("segment extent overflows");
    cursor += s.size;
    if (i == 0) {
      if (s.kind != kSegAnchors || s.level != 0)
        rd.fail("first segment is not the anchor grid");
      if (s.size != rd.checked_array_bytes(
                        static_cast<std::size_t>(s.count), sizeof(T)))
        rd.fail("anchor segment size mismatch");
    } else if (i == 1) {
      if (s.kind != kSegOutliers || s.level != 0)
        rd.fail("second segment is not the outlier set");
      if (s.count > h.volume) rd.fail("outlier count exceeds volume");
      if (s.size != sizeof(std::uint64_t) +
                        s.count * (sizeof(std::uint64_t) + sizeof(T)))
        rd.fail("outlier segment size mismatch");
    } else if (i < 2 + static_cast<std::size_t>(nlevels)) {
      const int level = nlevels - static_cast<int>(i) + 2;
      if (s.kind != kSegLevel || s.level != level)
        rd.fail("level segments out of order");
      if (s.count != predictor::ginterp_level_volume(h.dims, level))
        rd.fail("level symbol count mismatch");
    } else {
      if (s.kind != kSegTileIndex || s.level != 0)
        rd.fail("trailing segment is not the tile index");
      if (s.count != tidx_entry_count(h.dims, nlevels))
        rd.fail("tile index entry count mismatch");
      if (s.size != tidx_payload_bytes(h.dims, nlevels))
        rd.fail("tile index size mismatch");
    }
  }
  return segs;
}

/// Saturating cursor advance: lengths are attacker-controlled u64s, and
/// clamping to `size` lets the ByteReader report the truncation.
std::size_t sat_add(std::size_t base, std::uint64_t extra, std::size_t size) {
  if (base >= size) return size;
  const std::size_t room = size - base;
  return extra >= room ? size : base + static_cast<std::size_t>(extra);
}

bool is_wrapper_magic(std::uint32_t magic) {
  return magic == kBitcompWrapMagic || magic == kBitcompWrapMagicV2;
}

std::int64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Cheap closed-form cross-checks between a 'BBC2' table entry and its LZSS
/// frame header; zero-RLE is self-describing, so its expansion is validated
/// by the untransform instead.
void check_wrap_frame(lossless::Method method, std::size_t raw_len,
                      const lossless::LzssFrame& frame, std::size_t at) {
  if (method == lossless::Method::Lzss && frame.raw_size != raw_len)
    throw core::CorruptArchive("bitcomp-wrapper", at,
                               "segment frame size mismatch");
  if (method == lossless::Method::Bitshuffle &&
      frame.raw_size != lossless::bitshuffle_frame_size(raw_len))
    throw core::CorruptArchive(
        "bitcomp-wrapper", at,
        "bitshuffle payload size does not match segment");
}

/// Makes inner-archive bytes [0, off) final before the parser reads them.
using EnsureFn = dev::FunctionRef<void(std::size_t)>;

/// The SZI2 prefix every decoder shares: validated header and directory,
/// anchors and outliers in workspace memory, and the radius-prefilled code
/// array with every level >= `level` scattered. `rd` sits at segment
/// `next`, the first one not read.
template <typename T>
struct V2Prefix {
  explicit V2Prefix(std::span<const std::byte> bytes) : rd(bytes, "cusz-i") {}

  core::ByteReader rd;
  InnerHeader h;
  std::vector<SegmentEntry> segs;
  std::span<const T> anchors;
  quant::OutlierViewT<T> outliers;
  std::span<quant::Code> codes;
  int level = 1;  ///< max_level clamped to [1, level_count + 1]
  std::size_t next = 2;
};

/// An SZI2 archive's fixed header plus its u32 segment count.
constexpr std::size_t kV2HeadBytes = kInnerFixedBytes + sizeof(std::uint32_t);

/// Bytes of an SZI2 archive's fixed header, segment count and directory,
/// known from its first kV2HeadBytes bytes (`head`; all of a shorter
/// archive). The directory's size follows from the segment count, so it is
/// peeked and clamped to the largest legal value: a hostile count cannot
/// force a large read, and a wrong count fails at the directory parse
/// before any entry is read. Header faults throw here.
template <typename T>
std::size_t v2_directory_end(std::span<const std::byte> head) {
  core::ByteReader rd(head, "cusz-i");
  const InnerHeader h = parse_inner_header<T>(rd, kMagicV2);
  std::uint32_t nseg = 0;
  if (head.size() >= rd.offset() + sizeof(nseg))
    std::memcpy(&nseg, head.data() + rd.offset(), sizeof(nseg));
  const auto nseg_max =
      static_cast<std::uint32_t>(predictor::ginterp_level_count(h.dims)) + 3;
  return v2_header_bytes(std::min(nseg, nseg_max));
}

/// Returns up to `len` leading bytes of a stream, making them final first.
using PeekFn = dev::FunctionRef<std::span<const std::byte>(std::size_t)>;

/// Byte extent of a Huffman stream's header (u32 nbins | lengths | u64 n |
/// u32 chunk | u64 payload | u64 offsets[nchunks]) — everything
/// decode_plan reads, peeked in two steps through `peek`. The chunk count
/// is clamped to `cap`, so a hostile header cannot demand an unbounded
/// fetch; decode_plan then reports the fault.
std::uint64_t huffman_header_extent(PeekFn peek, std::uint64_t cap) {
  std::uint32_t nbins = 0;
  if (const auto v = peek(sizeof(nbins)); v.size() >= sizeof(nbins))
    std::memcpy(&nbins, v.data(), sizeof(nbins));
  const std::size_t hfixed = sizeof(std::uint32_t) + nbins +
                             sizeof(std::uint64_t) + sizeof(std::uint32_t) +
                             sizeof(std::uint64_t);
  std::uint64_t nsym = 0;
  std::uint32_t csz = 0;
  if (const auto v = peek(hfixed); v.size() >= hfixed) {
    std::memcpy(&nsym, v.data() + sizeof(std::uint32_t) + nbins, sizeof(nsym));
    std::memcpy(&csz, v.data() + sizeof(std::uint32_t) + nbins + sizeof(nsym),
                sizeof(csz));
  }
  const std::uint64_t nchunks =
      csz == 0 ? 0 : nsym / csz + (nsym % csz != 0 ? 1 : 0);
  return hfixed + std::min(nchunks, cap) * sizeof(std::uint64_t);
}

/// Header → directory → anchors → outliers → levels >= max_level of an
/// SZI2 inner archive, each piece read once `ensure` has made its bytes
/// final (the directory exactly, before its parse, so every entry read
/// stays below the watermark). The full-decode engine reads levels >= 2
/// here and pipelines level 1 itself; the progressive readers stop at
/// their preview level.
template <typename T>
V2Prefix<T> read_v2_prefix(std::span<const std::byte> bytes, EnsureFn ensure,
                           int max_level, dev::Workspace& ws, double& huff_s) {
  const std::size_t size = bytes.size();
  V2Prefix<T> p(bytes);
  auto& rd = p.rd;
  ensure(kV2HeadBytes);
  ensure(v2_directory_end<T>(bytes.first(std::min(size, kV2HeadBytes))));
  p.h = parse_inner_header<T>(rd, kMagicV2);
  p.segs = parse_v2_directory<T>(rd, p.h);
  const int nlevels = predictor::ginterp_level_count(p.h.dims);
  p.level = std::clamp(max_level, 1, nlevels + 1);
  const auto& segs = p.segs;

  const std::size_t acount = static_cast<std::size_t>(segs[0].count);
  const std::size_t abytes = static_cast<std::size_t>(segs[0].size);
  ensure(sat_add(rd.offset(), abytes, size));
  auto anchors = ws.make<T>(acount);
  if (acount > 0)
    std::memcpy(anchors.data(), rd.read_bytes(abytes).data(), abytes);
  p.anchors = anchors;

  ensure(sat_add(rd.offset(), segs[1].size, size));
  p.outliers = parse_outlier_blob<T>(
      rd.read_bytes(static_cast<std::size_t>(segs[1].size)), ws);
  if (p.outliers.indices.size() != segs[1].count)
    rd.fail("outlier blob count disagrees with directory");

  (void)rd.checked_array_bytes(p.h.volume, sizeof(quant::Code));
  p.codes = ws.make<quant::Code>(p.h.volume);
  std::fill(p.codes.begin(), p.codes.end(),
            static_cast<quant::Code>(p.h.radius));

  // Stops at the first finer level, or at the trailing tile index (level 0).
  for (; p.next < segs.size() && segs[p.next].level >= p.level; ++p.next) {
    const auto& seg = segs[p.next];
    ensure(sat_add(rd.offset(), seg.size, size));
    core::Timer huft;
    const auto syms =
        huffman::decode(rd.read_bytes(static_cast<std::size_t>(seg.size)), ws);
    if (syms.size() != seg.count) rd.fail("level stream symbol count mismatch");
    predictor::LevelScatterCursor cur(p.h.dims, seg.level);
    cur.advance(syms, syms.size(), p.codes);
    huff_s += huft.lap();
  }
  return p;
}

/// The full-decode engine's byte feed. A raw SZI1/SZI2 archive is its own
/// inner byte space: every byte is final and ensure() returns at once. A
/// 'BBCP'/'BBC2' wrapper decodes into a workspace buffer: LZSS units run as
/// pool tasks in raw order while the engine parses behind a watermark of
/// decoded bytes, waiting on a unit only when it needs bytes that have not
/// landed yet (and running it itself if no worker has claimed it). Every
/// engine read of the buffer happens below the watermark, every task write
/// above it, and all parses go through the
/// bounds-checked ByteReader over the fixed-size buffer, so corrupt
/// archives fail exactly like a full unwrap (the corruption-fuzz harness
/// drives this route).
class DecodeFeed {
 public:
  DecodeFeed(std::span<const std::byte> archive, bool wrapped,
             dev::Workspace& ws) {
    if (!wrapped) {
      bytes_ = archive;
      decoded_ = archive.size();
      return;
    }
    // Container-general front end: both wrapper generations parse into the
    // same per-segment (frame, method, raw range) records, so the pipelined
    // machinery below is identical for a legacy 'BBCP' single stream and a
    // 'BBC2' table. All frames parse and all scratch allocates here, on the
    // host — dev::Workspace is not thread-safe, so unit tasks only ever
    // touch memory handed out before submission.
    const auto container = bitcomp_parse_container(archive);
    const std::size_t nwseg = container.segments.size();
    frames_.resize(nwseg);
    std::vector<std::size_t> seg_off(nwseg), seg_len(nwseg);
    std::size_t raw_size = 0;
    for (std::size_t i = 0; i < nwseg; ++i) {
      frames_[i] = lossless::lzss_parse_frame(container.payloads[i], ws);
      seg_off[i] = raw_size;
      seg_len[i] = frames_[i].raw_size;
      if (!container.legacy) {
        const auto& s = container.segments[i];
        seg_len[i] = static_cast<std::size_t>(s.raw_size);
        check_wrap_frame(s.method, seg_len[i], frames_[i], 0);
      }
      raw_size += seg_len[i];
    }
    auto raw = ws.make<std::byte>(raw_size);
    bytes_ = raw;

    // Decode units, in raw order. A method-0 segment decodes straight into
    // its raw range in ~4-block groups (blocks of one group write disjoint
    // ranges, so they fan out across the pool at grain 1). A transformed
    // segment is all-or-nothing: one unit block-decodes its LZSS stream into
    // scratch in parallel, then untransforms into the raw range. Unit k is
    // task k of `units_`; unit_end_[k] is the raw watermark that is final
    // once it completes.
    constexpr std::size_t kGroupBlocks = 4;
    for (std::size_t i = 0; i < nwseg; ++i) {
      const lossless::LzssFrame* fp = &frames_[i];
      const auto m = container.segments[i].method;
      const std::size_t soff = seg_off[i];
      const std::size_t slen = seg_len[i];
      if (m == lossless::Method::Lzss) {
        std::byte* base = raw.data() + soff;
        for (std::size_t b = 0; b < fp->nblocks; b += kGroupBlocks) {
          const std::size_t be = std::min(b + kGroupBlocks, fp->nblocks);
          const std::size_t gend =
              soff + std::min(be * fp->block_size,
                              static_cast<std::size_t>(fp->raw_size));
          units_.run([this, fp, base, b, be] {
            const auto t0 = std::chrono::steady_clock::now();
            dev::ThreadPool::instance().parallel_for(
                be - b,
                [&](std::size_t k0) {
                  const std::size_t k = b + k0;
                  const std::size_t begin = k * fp->block_size;
                  const std::size_t len =
                      std::min(fp->block_size, fp->raw_size - begin);
                  lossless::lzss_decompress_block(*fp, k, {base + begin, len});
                },
                1);
            lzss_ns_ += ns_since(t0);
          });
          unit_end_.push_back(gend);
        }
      } else if (slen > 0 || fp->raw_size > 0) {
        auto tmp = ws.make<std::byte>(fp->raw_size);
        std::byte* dst = raw.data() + soff;
        units_.run([this, fp, tmp, dst, m, slen] {
          const auto t0 = std::chrono::steady_clock::now();
          dev::ThreadPool::instance().parallel_for(
              fp->nblocks,
              [&](std::size_t k) {
                const std::size_t begin = k * fp->block_size;
                const std::size_t len =
                    std::min(fp->block_size, fp->raw_size - begin);
                lossless::lzss_decompress_block(*fp, k,
                                                {tmp.data() + begin, len});
              },
              1);
          lossless::method_untransform(tmp, m, {dst, slen});
          lzss_ns_ += ns_since(t0);
        });
        unit_end_.push_back(soff + slen);
      }
    }
  }

  DecodeFeed(const DecodeFeed&) = delete;
  DecodeFeed& operator=(const DecodeFeed&) = delete;

  [[nodiscard]] std::span<const std::byte> bytes() const { return bytes_; }

  /// Waits for the units covering [0, off). A failed unit rethrows here,
  /// so the parser surfaces the CorruptArchive instead of reading
  /// half-written bytes.
  void ensure(std::size_t off) {
    off = std::min(off, bytes_.size());
    if (decoded_ >= off) return;
    const auto k = static_cast<std::size_t>(
        std::lower_bound(unit_end_.begin(), unit_end_.end(), off) -
        unit_end_.begin());
    if (k == unit_end_.size()) {
      // Only empty segments remain past the last unit.
      drain();
      return;
    }
    units_.wait(k + 1);
    decoded_ = unit_end_[k];
  }

  /// Waits for every unit, including those the parser never needed, so a
  /// corrupt tail block or payload throws exactly as a full unwrap does.
  void drain() {
    units_.wait();
    decoded_ = bytes_.size();
  }

  /// Whether units could run beside the parser.
  [[nodiscard]] bool overlapped() const {
    return !unit_end_.empty() &&
           dev::ThreadPool::instance().worker_count() > 1;
  }
  [[nodiscard]] double unwrap_s() const {
    return static_cast<double>(lzss_ns_.load()) * 1e-9;
  }

 private:
  std::span<const std::byte> bytes_;
  std::vector<lossless::LzssFrame> frames_;
  std::vector<std::size_t> unit_end_;
  std::size_t decoded_ = 0;
  std::atomic<std::int64_t> lzss_ns_{0};
  dev::TaskGroup units_;  ///< last member: drains before what units borrow
};

/// The slab schedule every decode shares — full, preview and ROI. Every
/// slab runs as one pool task: run_ready submits each slab whose code
/// prefix is complete, so it reconstructs while later chunk groups decode;
/// finish() submits the rest and waits, running unclaimed slabs on the
/// caller. A slab's parity-wave launches nest inside its task, so idle
/// workers help a lone slab as readily as they take whole slabs. The
/// lowest-index failure wins.
template <typename T>
class SlabSchedule {
 public:
  explicit SlabSchedule(predictor::GInterpReconstructorT<T>& recon)
      : recon_(recon), nslabs_(recon.slab_count()) {}

  SlabSchedule(const SlabSchedule&) = delete;
  SlabSchedule& operator=(const SlabSchedule&) = delete;

  void run_ready(std::size_t code_watermark) {
    for (; next_ < nslabs_ && recon_.codes_needed(next_) <= code_watermark;
         ++next_)
      slabs_.run([this, k = next_] {
        const auto t0 = std::chrono::steady_clock::now();
        recon_.run_slab(k);
        ns_ += ns_since(t0);
      });
  }

  void finish() {
    // Slabs submitted before the last chunk group ran beside the decode.
    early_ = slabs_.size();
    run_ready(std::numeric_limits<std::size_t>::max());
    slabs_.wait();
  }

  /// Whether slabs could run beside the entropy decode.
  [[nodiscard]] bool overlapped() const {
    return early_ > 0 && dev::ThreadPool::instance().worker_count() > 1;
  }
  /// Busy time of the slabs run so far (summed across workers).
  [[nodiscard]] double seconds() const {
    return static_cast<double>(ns_.load()) * 1e-9;
  }

 private:
  predictor::GInterpReconstructorT<T>& recon_;
  std::size_t nslabs_;
  std::size_t next_ = 0;
  std::size_t early_ = 0;
  std::atomic<std::int64_t> ns_{0};
  dev::TaskGroup slabs_;  ///< last member: drains before the rest
};

/// The full-decode engine: every full-fidelity decode (raw or wrapped,
/// SZI1 or SZI2) runs this one body over a DecodeFeed. Anchors, outliers
/// and the coarse SZI2 levels (>= 2, a sliver of the volume) are read whole
/// as their bytes land. The bulk stream — SZI2 level 1 through a
/// LevelScatterCursor, or the single SZI1 stream straight into the code
/// array — then decodes in chunk groups, and every tile z-slab whose code
/// prefix is complete reconstructs while later groups decode. Slabs are
/// mutually independent (the reconstructor snapshots the cross-slab border
/// planes at construction), so any number of them may run concurrently the
/// moment their code prefix lands: slab tasks read only codes below the
/// watermark, the host writes only above it.
///
/// Slabs run as pool tasks on the shared SlabSchedule: a slab starts as
/// soon as its code prefix lands, and slabs still pending at the end (all
/// of them for a single-group stream) are submitted together. `dims_out`
/// receives the field geometry for callers that crop or subsample the
/// result.
template <typename T>
std::vector<T> decode_full(std::span<const std::byte> archive, bool wrapped,
                           dev::Workspace& ws, DecodeTimings* dt = nullptr,
                           dev::Dim3* dims_out = nullptr) {
  core::Timer wall;
  DecodeFeed feed(archive, wrapped, ws);
  const auto bytes = feed.bytes();
  const std::size_t size = bytes.size();
  const auto ensure = [&feed](std::size_t off) { feed.ensure(off); };
  // Per-stage busy time (the slab schedule keeps reconstruction's; Huffman
  // decode always runs on this thread). Pipeline stalls are deliberately
  // excluded — stages report work done, `total` the wall clock.
  double huff_s = 0;

  ensure(sizeof(std::uint32_t));
  const bool v2 = peek_magic(bytes) == kMagicV2;
  InnerHeader h;
  std::span<const T> anchors;
  quant::OutlierViewT<T> outliers;
  std::span<quant::Code> codes;
  std::span<const std::byte> huff;  // the bulk stream, empty if absent
  bool has_stream = true;
  std::uint64_t huff_n = 0;
  std::size_t hoff = 0;
  if (v2) {
    auto p = read_v2_prefix<T>(bytes, ensure, /*max_level=*/2, ws, huff_s);
    h = p.h;
    anchors = p.anchors;
    outliers = p.outliers;
    codes = p.codes;
    // A trailing tile index rides behind level 1 and is never parsed here.
    has_stream = p.next < p.segs.size() && p.segs[p.next].kind == kSegLevel;
    if (has_stream) {
      huff = p.rd.read_bytes(static_cast<std::size_t>(p.segs[p.next].size));
      huff_n = p.segs[p.next].count;
      hoff = p.rd.offset() - huff.size();
    }
  } else {
    core::ByteReader rd(bytes, "cusz-i");
    ensure(kInnerFixedBytes + sizeof(std::uint64_t));
    h = parse_inner_header<T>(rd);
    const auto acount64 = rd.read<std::uint64_t>();
    if (acount64 > rd.remaining())
      rd.fail("array count exceeds remaining bytes");
    const std::size_t acount = static_cast<std::size_t>(acount64);
    const std::size_t abytes = rd.checked_array_bytes(acount, sizeof(T));
    ensure(sat_add(rd.offset(), abytes, size));
    auto a = ws.make<T>(acount);
    if (acount > 0) std::memcpy(a.data(), rd.read_bytes(abytes).data(), abytes);
    anchors = a;

    ensure(sat_add(rd.offset(), sizeof(std::uint64_t), size));
    const auto oblob64 = rd.read<std::uint64_t>();
    if (oblob64 > rd.remaining())
      rd.fail("length prefix exceeds remaining bytes");
    ensure(sat_add(rd.offset(), oblob64, size));
    outliers = parse_outlier_blob<T>(
        rd.read_bytes(static_cast<std::size_t>(oblob64)), ws);

    ensure(sat_add(rd.offset(), sizeof(std::uint64_t), size));
    const auto hsize64 = rd.read<std::uint64_t>();
    if (hsize64 > rd.remaining())
      rd.fail("length prefix exceeds remaining bytes");
    huff = rd.read_bytes(static_cast<std::size_t>(hsize64));
    huff_n = h.volume;
    hoff = rd.offset() - huff.size();
  }
  if (dims_out) *dims_out = h.dims;

  std::optional<huffman::DecodePlan> plan;
  if (has_stream) {
    // Wait for exactly the bytes decode_plan will touch, then build the
    // plan. The plan never reads payload bytes, so the feed may still be
    // producing them.
    const std::uint64_t head = huffman_header_extent(
        [&](std::size_t len) {
          ensure(sat_add(hoff, len, size));
          return huff.first(std::min(len, huff.size()));
        },
        size);
    ensure(sat_add(hoff, head, size));
    core::Timer plant;
    plan = huffman::decode_plan(huff, ws);
    huff_s += plant.lap();
    if (plan->n != huff_n)
      throw core::CorruptArchive("cusz-i", hoff,
                                 v2 ? "level stream symbol count mismatch"
                                    : "code count mismatch");
  }
  // SZI1's single stream covers every position, so its codes need no
  // prefill.
  if (!v2) codes = ws.make<quant::Code>(h.volume);

  // `slabs` is declared after everything its tasks borrow, so unwind
  // order drains them before those locals die.
  std::vector<T> out(h.volume);
  predictor::GInterpReconstructorT<T> recon(codes, anchors, outliers, h.dims,
                                            h.eb, h.cfg, h.radius,
                                            std::span<T>(out));
  SlabSchedule<T> slabs(recon);

  if (has_stream) {
    // SZI2 level 1 decodes into its own stream buffer and scatters through
    // the cursor, whose watermark stands in for the chunk count; SZI1
    // decodes in place.
    const auto syms = v2 ? ws.make<quant::Code>(plan->n) : codes;
    std::optional<predictor::LevelScatterCursor> scatter;
    if (v2) scatter.emplace(h.dims, 1);
    const std::size_t pay_off =
        plan->payload.empty()
            ? size
            : static_cast<std::size_t>(plan->payload.data() - bytes.data());
    constexpr std::uint64_t kGroupBytes = 4 * lossless::kLzssBlock;
    std::size_t c = 0;
    while (c < plan->nchunks) {
      const std::uint64_t start = plan->offsets[c];
      std::size_t cend = c + 1;
      while (cend < plan->nchunks && plan->offsets[cend] - start < kGroupBytes)
        ++cend;
      const std::uint64_t done =
          cend < plan->nchunks ? plan->offsets[cend] : plan->payload_bytes;
      ensure(sat_add(pay_off, done, size));
      core::Timer huft;
      huffman::decode_chunks(*plan, c, cend, syms);
      c = cend;
      std::size_t watermark = std::min(cend * plan->chunk_size, plan->n);
      if (scatter) watermark = scatter->advance(syms, watermark, codes);
      huff_s += huft.lap();
      if (c < plan->nchunks) slabs.run_ready(watermark);
    }
  }
  feed.drain();
  slabs.finish();
  ws.reset();
  if (dt) {
    dt->unwrap = feed.unwrap_s();
    dt->huffman = huff_s;
    dt->reconstruct = slabs.seconds();
    dt->overlapped = feed.overlapped() || slabs.overlapped();
    dt->total = wall.lap();
  }
  return out;
}

/// Full decode of a raw archive into a throwaway arena.
template <typename T>
std::vector<T> decode_full_local(std::span<const std::byte> bytes,
                                 DecodeTimings* dt = nullptr) {
  dev::Arena local;
  dev::Workspace ws(local);
  return decode_full<T>(bytes, /*wrapped=*/false, ws, dt);
}

// ---- Random-access (ROI) decode ------------------------------------------
//
// The ROI reader never materializes the archive: every byte range it needs
// — directory, tile index, anchor rows, outlier blob, Huffman headers, and
// the payload chunks covering the box's tile slabs — is pulled through an
// InnerSource, which serves inner-archive byte ranges either straight from
// an io::ArchiveSource (raw SZI2) or by decoding only the covering 64 KiB
// LZSS blocks of a 'BBC2' wrapper segment on demand. The per-level working
// set is bounded by the halo'd box, so a bounded-memory reader can pull a
// sub-volume out of a larger-than-RAM archive.

/// Random-access view of the *inner* (unwrapped) archive's byte space.
/// Views are valid only until the next view() call on the same source.
class InnerSource {
 public:
  virtual ~InnerSource() = default;
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual std::span<const std::byte> view(std::size_t off,
                                                        std::size_t len) = 0;
};

/// Truncation-tolerant view: clamps the range to the source's extent so the
/// ByteReader (not the source) reports truncation as CorruptArchive.
std::span<const std::byte> view_pfx(InnerSource& s, std::uint64_t off,
                                    std::uint64_t len) {
  const std::size_t sz = s.size();
  if (off >= sz) return {};
  return s.view(static_cast<std::size_t>(off),
                static_cast<std::size_t>(std::min<std::uint64_t>(len, sz - off)));
}

/// One ROI call's reads of a shared io::ArchiveSource. `fetched` counts the
/// bytes this call pulled — the source's own counter also counts every
/// concurrent reader's fetches.
struct SourceReader {
  io::ArchiveSource& src;
  std::size_t fetched = 0;

  [[nodiscard]] std::size_t size() const { return src.size(); }
  [[nodiscard]] std::span<const std::byte> view(
      std::size_t off, std::size_t len, std::vector<std::byte>& scratch) {
    const auto v = src.view(off, len, scratch);
    fetched += v.size();
    return v;
  }
};

/// Raw SZI2 file: inner byte space == archive byte space.
class RawInnerSource final : public InnerSource {
 public:
  explicit RawInnerSource(SourceReader& src) : src_(src) {}

  [[nodiscard]] std::size_t size() const override { return src_.size(); }
  [[nodiscard]] std::span<const std::byte> view(std::size_t off,
                                                std::size_t len) override {
    return src_.view(off, len, scratch_);
  }

 private:
  SourceReader& src_;
  std::vector<std::byte> scratch_;
};

/// 'BBC2' wrapper: the segment table is fetched up front (validated like
/// bitcomp_parse_container); each wrapper segment's LZSS frame header is
/// parsed lazily on first touch, and a method-0 segment then decodes only
/// the 64 KiB blocks covering each requested range — the fetch that makes
/// ROI reads of wrapped archives proportional to the box, not the field. A
/// transformed (zero-RLE / bitshuffle) segment is all-or-nothing and
/// materializes whole on first touch, exactly like the progressive reader.
class WrappedInnerSource final : public InnerSource {
 public:
  WrappedInnerSource(SourceReader& src, dev::Workspace& ws)
      : src_(src), ws_(ws) {
    const std::size_t fsize = src.size();
    constexpr std::size_t kTable = 2 * sizeof(std::uint32_t);
    if (fsize < kTable)
      throw core::CorruptArchive("bitcomp-wrapper", 0, "container truncated");
    std::uint32_t nseg = 0;
    {
      const auto head = src_.view(0, kTable, scratch_);
      std::memcpy(&nseg, head.data() + sizeof(std::uint32_t), sizeof(nseg));
    }
    if (nseg > (fsize - kTable) / sizeof(WrapSegmentEntry))
      throw core::CorruptArchive("bitcomp-wrapper", sizeof(std::uint32_t),
                                 "segment table exceeds container");
    const std::size_t table_bytes = kTable + nseg * sizeof(WrapSegmentEntry);
    segs_.resize(nseg);
    {
      const auto tbl =
          src_.view(kTable, nseg * sizeof(WrapSegmentEntry), scratch_);
      std::size_t file_off = table_bytes;
      std::size_t raw_off = 0;
      for (std::uint32_t i = 0; i < nseg; ++i) {
        WrapSegmentEntry e;
        std::memcpy(&e, tbl.data() + i * sizeof(e), sizeof(e));
        if (e.reserved0 != 0 || e.reserved1 != 0 || e.reserved2 != 0)
          throw core::CorruptArchive("bitcomp-wrapper", kTable,
                                     "reserved segment field set");
        if (e.method >= lossless::kMethodCount)
          throw core::CorruptArchive("bitcomp-wrapper", kTable,
                                     "unknown de-redundancy method");
        if (e.size > fsize - file_off)
          throw core::CorruptArchive("bitcomp-wrapper", kTable,
                                     "segment sizes exceed the container");
        auto& s = segs_[i];
        s.method = static_cast<lossless::Method>(e.method);
        s.file_off = file_off;
        s.file_len = static_cast<std::size_t>(e.size);
        s.raw_off = raw_off;
        s.raw_len = static_cast<std::size_t>(e.raw_size);
        file_off += s.file_len;
        raw_off += s.raw_len;
      }
      if (file_off != fsize)
        throw core::CorruptArchive("bitcomp-wrapper", kTable,
                                   "segment sizes do not fill the container");
      raw_size_ = raw_off;
    }
  }

  [[nodiscard]] std::size_t size() const override { return raw_size_; }

  [[nodiscard]] std::span<const std::byte> view(std::size_t off,
                                                std::size_t len) override {
    if (len == 0) return {};
    // The directory mirrors the wrapper partition, so well-formed requests
    // land inside one segment; a crossing request (possible only against a
    // hostile directory) assembles per segment into `cross_`.
    std::size_t i = 0;
    while (i < segs_.size() && off >= segs_[i].raw_off + segs_[i].raw_len) ++i;
    if (i < segs_.size() && off + len <= segs_[i].raw_off + segs_[i].raw_len)
      return fetch(segs_[i], off - segs_[i].raw_off, len);
    cross_.resize(len);
    std::size_t done = 0;
    while (done < len) {
      if (i >= segs_.size())
        throw core::CorruptArchive("bitcomp-wrapper", 0,
                                   "range exceeds the container");
      auto& s = segs_[i];
      const std::size_t rel = off + done - s.raw_off;
      const std::size_t take = std::min(len - done, s.raw_len - rel);
      const auto part = fetch(s, rel, take);
      std::memcpy(cross_.data() + done, part.data(), take);
      done += take;
      ++i;
    }
    return {cross_.data(), len};
  }

 private:
  struct Seg {
    lossless::Method method = lossless::Method::Lzss;
    std::size_t file_off = 0;  ///< payload start in the container
    std::size_t file_len = 0;  ///< stored payload bytes
    std::size_t raw_off = 0;   ///< inner-archive offset
    std::size_t raw_len = 0;   ///< inner-archive length
    bool frame_parsed = false;
    bool whole = false;  ///< transformed segment fully materialized
    lossless::LzssFrame frame;
    std::vector<std::byte> data;  ///< decoded raw bytes (lazily filled)
    std::vector<char> have;       ///< per-block flags (method 0)
  };

  void ensure_frame(Seg& s) {
    if (s.frame_parsed) return;
    // Fixed header first (raw_size | block_size | nblocks), then the exact
    // header + offset-table extent; lzss_parse_frame_header revalidates.
    std::size_t nblocks = 0;
    {
      const auto h0 =
          src_.view(s.file_off, std::min<std::size_t>(16, s.file_len), scratch_);
      if (h0.size() >= 16) {
        std::uint32_t nb32 = 0;
        std::memcpy(&nb32, h0.data() + 12, sizeof(nb32));
        nblocks = nb32;
      }
    }
    const std::size_t want = 16 + nblocks * sizeof(std::uint64_t);
    const auto head =
        src_.view(s.file_off, std::min(want, s.file_len), scratch_);
    s.frame = lossless::lzss_parse_frame_header(head, s.file_len, ws_);
    check_wrap_frame(s.method, s.raw_len, s.frame, s.file_off);
    s.frame_parsed = true;
  }

  std::span<const std::byte> fetch(Seg& s, std::size_t rel, std::size_t len) {
    ensure_frame(s);
    if (s.method == lossless::Method::Lzss) {
      if (s.data.empty()) {
        s.data.resize(s.raw_len);
        s.have.assign(s.frame.nblocks, 0);
      }
      const std::size_t bs = s.frame.block_size;
      const std::size_t b0 = bs == 0 ? 0 : rel / bs;
      const std::size_t b1 =
          bs == 0 ? 0 : std::min(s.frame.nblocks, dev::ceil_div(rel + len, bs));
      for (std::size_t b = b0; b < b1; ++b)
        if (!s.have[b]) {
          decode_block_into(s, b, s.data);
          s.have[b] = 1;
        }
    } else if (!s.whole) {
      // Transformed segment: decode the whole LZSS stream into scratch and
      // untransform once; subsequent ranges are plain memory reads.
      s.data.resize(s.raw_len);
      std::vector<std::byte> tmp(s.frame.raw_size);
      for (std::size_t b = 0; b < s.frame.nblocks; ++b)
        decode_block_into(s, b, tmp);
      lossless::method_untransform(tmp, s.method,
                                   {s.data.data(), s.raw_len});
      s.whole = true;
    }
    return {s.data.data() + rel, len};
  }

  /// LZSS-decodes block `b` of `s` into its raw range of `dst` (the
  /// segment's own buffer, or a transformed segment's scratch).
  void decode_block_into(Seg& s, std::size_t b, std::span<std::byte> dst) {
    const auto [begin, end] = lossless::lzss_block_extent(s.frame, b);
    const auto bytes = src_.view(s.file_off + begin, end - begin, scratch_);
    const std::size_t roff = b * s.frame.block_size;
    const std::size_t rlen = std::min(s.frame.block_size,
                                      s.frame.raw_size - roff);
    lossless::lzss_decompress_block_bytes(s.frame, b, bytes,
                                          {dst.data() + roff, rlen});
  }

  SourceReader& src_;
  dev::Workspace& ws_;
  std::vector<Seg> segs_;
  std::size_t raw_size_ = 0;
  std::vector<std::byte> scratch_;  ///< for src_ views
  std::vector<std::byte> cross_;    ///< segment-crossing assembly
};

std::uint32_t inner_peek_magic(InnerSource& s) {
  std::uint32_t m = 0;
  const auto v = view_pfx(s, 0, sizeof(m));
  if (v.size() == sizeof(m)) std::memcpy(&m, v.data(), sizeof(m));
  return m;
}

/// Owned copy of the TIDX payload plus its validated header fields.
struct TidxView {
  std::size_t slab_z = 0;
  std::size_t nslabs = 0;
  std::vector<std::byte> payload;

  [[nodiscard]] TidxEntry entry(std::size_t level_row, std::size_t k) const {
    TidxEntry e;
    std::memcpy(&e,
                payload.data() + kTidxHeaderBytes +
                    (level_row * nslabs + k) * sizeof(TidxEntry),
                sizeof(e));
    return e;
  }
};

/// Fetches + validates the tile index header against the field's closed
/// forms (the entry fields are cross-checked level by level once each
/// level's decode plan exists).
TidxView fetch_tidx(InnerSource& inner, const SegmentEntry& tseg,
                    const dev::Dim3& dims, int nlevels) {
  TidxView t;
  const auto v = view_pfx(inner, tseg.offset, tseg.size);
  if (v.size() != tseg.size)
    throw core::CorruptArchive("cusz-i", tseg.offset, "tile index truncated");
  t.payload.assign(v.begin(), v.end());
  std::uint16_t ver = 0, resv = 0;
  std::uint32_t slab32 = 0, nl32 = 0, ns32 = 0;
  const std::byte* p = t.payload.data();
  std::memcpy(&ver, p, sizeof(ver));
  std::memcpy(&resv, p + 2, sizeof(resv));
  std::memcpy(&slab32, p + 4, sizeof(slab32));
  std::memcpy(&nl32, p + 8, sizeof(nl32));
  std::memcpy(&ns32, p + 12, sizeof(ns32));
  if (ver != kTidxVersion || resv != 0 || slab32 != tidx_slab_z(dims) ||
      nl32 != static_cast<std::uint32_t>(nlevels) ||
      ns32 != tidx_nslabs(dims))
    throw core::CorruptArchive("cusz-i", tseg.offset,
                               "tile index header mismatch");
  t.slab_z = slab32;
  t.nslabs = ns32;
  return t;
}

/// The indexed ROI decode over an SZI2 inner archive. Returns false when
/// the archive predates the tile index (the caller falls back to a full
/// decode + crop); throws core::CorruptArchive when the index disagrees
/// with the closed forms it must satisfy.
template <typename T>
bool roi_v2(InnerSource& inner, const RoiBox& box, dev::Workspace& ws,
            RoiResultT<T>& r) {
  double huff_s = 0;
  // Fixed header, then the exact directory — the same peek-and-clamp as
  // read_v2_prefix.
  const auto dir = view_pfx(
      inner, 0, v2_directory_end<T>(view_pfx(inner, 0, kV2HeadBytes)));
  core::ByteReader rd(dir, "cusz-i");
  const InnerHeader h = parse_inner_header<T>(rd, kMagicV2);
  const auto segs = parse_v2_directory<T>(rd, h);
  const int nlevels = predictor::ginterp_level_count(h.dims);
  if (segs.size() != static_cast<std::size_t>(nlevels) + 3)
    return false;  // pre-index SZI2: no TIDX to steer by

  const auto plan = predictor::ginterp_roi_plan(h.dims, box.lo, box.ext);
  const TidxView tidx = fetch_tidx(inner, segs.back(), h.dims, nlevels);

  // Box-local working set: radius-prefilled codes plus the output buffer
  // anchors and outlier originals scatter into (halo positions are
  // reconstruction scratch the crop discards).
  const std::size_t bvol = plan.box_dims.volume();
  auto codes = ws.make<quant::Code>(bvol);
  std::fill(codes.begin(), codes.end(), static_cast<quant::Code>(h.radius));
  std::vector<T> boxout(bvol, T{});

  const auto box_at = [&](std::size_t x, std::size_t y, std::size_t z) {
    return dev::linearize(plan.box_dims, x - plan.box_lo.x, y - plan.box_lo.y,
                          z - plan.box_lo.z);
  };

  // Anchors: one contiguous file run per covered (az, ay) anchor row.
  {
    const auto geo = predictor::geometry_for(h.dims);
    const dev::Dim3 ad = predictor::anchor_dims(h.dims, geo.anchor);
    if (segs[0].count != ad.volume())
      throw core::CorruptArchive("cusz-i", segs[0].offset,
                                 "anchor count mismatch");
    const auto arange = [](std::size_t lo, std::size_t extent, std::size_t s,
                           std::size_t an) {
      const std::size_t a0 = (lo + s - 1) / s;
      const std::size_t a1 = std::min(an, (lo + extent - 1) / s + 1);
      return std::pair<std::size_t, std::size_t>(a0, std::max(a0, a1));
    };
    const auto [ax0, ax1] =
        arange(plan.box_lo.x, plan.box_dims.x, geo.anchor.x, ad.x);
    const auto [ay0, ay1] =
        arange(plan.box_lo.y, plan.box_dims.y, geo.anchor.y, ad.y);
    const auto [az0, az1] =
        arange(plan.box_lo.z, plan.box_dims.z, geo.anchor.z, ad.z);
    auto row = ws.make<T>(ax1 - ax0);
    for (std::size_t az = az0; az < az1; ++az)
      for (std::size_t ay = ay0; ay < ay1; ++ay) {
        const std::size_t n = ax1 - ax0;
        if (n == 0) continue;
        const auto bytes = view_pfx(
            inner,
            segs[0].offset +
                dev::linearize(ad, ax0, ay, az) * sizeof(T),
            n * sizeof(T));
        if (bytes.size() != n * sizeof(T))
          throw core::CorruptArchive("cusz-i", segs[0].offset,
                                     "anchor segment truncated");
        std::memcpy(row.data(), bytes.data(), bytes.size());
        for (std::size_t ax = ax0; ax < ax1; ++ax)
          boxout[box_at(ax * geo.anchor.x, ay * geo.anchor.y,
                        az * geo.anchor.z)] = row[ax - ax0];
      }
  }

  // Outliers: the blob is one small segment; fetch whole and keep only the
  // originals that land inside the closed box.
  {
    const auto outliers = parse_outlier_blob<T>(
        view_pfx(inner, segs[1].offset, segs[1].size), ws);
    if (outliers.indices.size() != segs[1].count)
      throw core::CorruptArchive("cusz-i", segs[1].offset,
                                 "outlier blob count disagrees with directory");
    for (std::size_t j = 0; j < outliers.indices.size(); ++j) {
      const std::uint64_t idx = outliers.indices[j];
      if (idx >= h.volume)
        throw core::CorruptArchive("cusz-i", segs[1].offset,
                                   "outlier index out of range");
      const std::size_t x = static_cast<std::size_t>(idx) % h.dims.x;
      const std::size_t y =
          (static_cast<std::size_t>(idx) / h.dims.x) % h.dims.y;
      const std::size_t z =
          static_cast<std::size_t>(idx) / (h.dims.x * h.dims.y);
      if (x >= plan.box_lo.x && x < plan.box_lo.x + plan.box_dims.x &&
          y >= plan.box_lo.y && y < plan.box_lo.y + plan.box_dims.y &&
          z >= plan.box_lo.z && z < plan.box_lo.z + plan.box_dims.z)
        boxout[box_at(x, y, z)] = outliers.values[j];
    }
  }

  // Per level: parse the stream header (header bytes only), cross-check
  // every tile-index entry of the level against its closed form, then
  // decode exactly the Huffman chunks covering the box's rank runs and
  // scatter them into the box-local code array. Runs arrive in ascending
  // rank order, so the chunks they touch merge into a short list of
  // disjoint ranges — within a z-plane the box's y-band is a contiguous
  // rank band, which is what keeps the read set proportional to the box
  // in y and z, not just z.
  for (std::size_t i = 2; i < 2 + static_cast<std::size_t>(nlevels); ++i) {
    const auto& seg = segs[i];
    const int level = seg.level;

    const std::uint64_t head_len = huffman_header_extent(
        [&](std::size_t len) { return view_pfx(inner, seg.offset, len); },
        seg.size);
    const auto head =
        view_pfx(inner, seg.offset, std::min<std::uint64_t>(head_len, seg.size));
    core::Timer plant;
    const auto hplan = huffman::decode_plan_header(head, seg.size, ws);
    huff_s += plant.lap();
    if (hplan.n != seg.count)
      throw core::CorruptArchive("cusz-i", seg.offset,
                                 "level stream symbol count mismatch");
    const std::size_t hdr_bytes =
        static_cast<std::size_t>(seg.size - hplan.payload_bytes);

    // Every (level, slab) index entry is a closed form of (dims, this
    // plan); any disagreement means the index would steer reads wrong.
    for (std::size_t k = 0; k < tidx.nslabs; ++k) {
      const TidxEntry e = tidx.entry(i - 2, k);
      const std::uint64_t want_rank =
          predictor::ginterp_level_prefix(h.dims, level, k * tidx.slab_z);
      const std::size_t chunk =
          hplan.chunk_size == 0
              ? 0
              : static_cast<std::size_t>(want_rank) / hplan.chunk_size;
      const std::uint64_t want_byte =
          chunk < hplan.nchunks ? hplan.offsets[chunk] : hplan.payload_bytes;
      const std::uint32_t want_block = static_cast<std::uint32_t>(
          (hdr_bytes + want_byte) / lossless::kLzssBlock);
      if (e.sym_rank != want_rank ||
          e.huff_chunk != static_cast<std::uint32_t>(chunk) ||
          e.code_byte != want_byte || e.wrap_block != want_block)
        throw core::CorruptArchive("cusz-i", segs.back().offset,
                                   "tile index entry mismatch");
    }

    const std::size_t cs = hplan.chunk_size;
    if (hplan.n == 0 || cs == 0) continue;

    struct Run {
      std::size_t rank, count, x0, y, z, step;
    };
    std::vector<Run> runs;
    std::vector<std::pair<std::size_t, std::size_t>> spans;  // [cb, ce)
    predictor::ginterp_level_box_runs(
        h.dims, level, plan.box_lo, plan.box_dims,
        [&](std::size_t rank, std::size_t count, std::size_t x0, std::size_t y,
            std::size_t z, std::size_t step) {
          runs.push_back({rank, count, x0, y, z, step});
          const std::size_t cb = rank / cs;
          const std::size_t ce = (rank + count - 1) / cs + 1;
          if (!spans.empty() && cb <= spans.back().second)
            spans.back().second = std::max(spans.back().second, ce);
          else
            spans.emplace_back(cb, ce);
        });
    if (runs.empty()) continue;

    std::size_t ri = 0;
    for (const auto& [cb, ce] : spans) {
      const std::uint64_t pay_lo = hplan.offsets[cb];
      const std::uint64_t pay_hi =
          ce < hplan.nchunks ? hplan.offsets[ce] : hplan.payload_bytes;
      const auto payload =
          view_pfx(inner, seg.offset + hdr_bytes + pay_lo, pay_hi - pay_lo);
      const std::size_t base = cb * cs;
      const std::size_t limit = std::min(ce * cs, hplan.n);
      auto syms = ws.make<quant::Code>(limit - base);
      core::Timer huft;
      huffman::decode_chunks_range(hplan, payload, pay_lo, cb, ce, syms);
      huff_s += huft.lap();
      for (; ri < runs.size() && runs[ri].rank < limit; ++ri) {
        const Run& u = runs[ri];
        const std::size_t by = u.y - plan.box_lo.y;
        const std::size_t bz = u.z - plan.box_lo.z;
        for (std::size_t q = 0; q < u.count; ++q)
          codes[dev::linearize(plan.box_dims,
                               u.x0 + q * u.step - plan.box_lo.x, by, bz)] =
              syms[u.rank + q - base];
      }
    }
  }

  // Box-clipped reconstruction: every code is in place, so the slab
  // schedule submits all slabs at once.
  predictor::GInterpReconstructorT<T> recon(codes, plan, h.dims, h.eb, h.cfg,
                                            h.radius, std::span<T>(boxout));
  SlabSchedule<T> slabs(recon);
  slabs.finish();

  // Crop the requested box out of the box-local buffer (row memcpys; the
  // halo is scratch and dies here).
  r.data.resize(box.ext.volume());
  const std::size_t ox = box.lo.x - plan.box_lo.x;
  const std::size_t oy = box.lo.y - plan.box_lo.y;
  const std::size_t oz = box.lo.z - plan.box_lo.z;
  for (std::size_t z = 0; z < box.ext.z; ++z)
    for (std::size_t y = 0; y < box.ext.y; ++y)
      std::memcpy(
          r.data.data() + dev::linearize(box.ext, 0, y, z),
          boxout.data() + dev::linearize(plan.box_dims, ox, oy + y, oz + z),
          box.ext.x * sizeof(T));
  r.dims = box.ext;
  r.indexed = true;
  r.timings.huffman = huff_s;
  r.timings.reconstruct = slabs.seconds();
  ws.reset();
  return true;
}

/// Full-decode fallback for archives the index cannot steer (legacy SZI1,
/// pre-index SZI2, legacy 'BBCP' wrappers): decode everything through the
/// engine — wrapped bytes included — then crop.
template <typename T>
void roi_fallback(SourceReader& src, const RoiBox& box, dev::Workspace& ws,
                  RoiResultT<T>& r) {
  std::vector<std::byte> scratch;
  const auto all = src.view(0, src.size(), scratch);
  dev::Dim3 dims;
  const auto full = decode_full<T>(all, is_wrapper_magic(peek_magic(all)), ws,
                                   nullptr, &dims);
  const auto bad = [&](std::size_t lo, std::size_t ext, std::size_t n) {
    return ext == 0 || ext > n || lo > n - ext;
  };
  if (bad(box.lo.x, box.ext.x, dims.x) || bad(box.lo.y, box.ext.y, dims.y) ||
      bad(box.lo.z, box.ext.z, dims.z))
    throw std::invalid_argument("cuSZ-i: ROI box is empty or exceeds field");
  r.data.resize(box.ext.volume());
  for (std::size_t z = 0; z < box.ext.z; ++z)
    for (std::size_t y = 0; y < box.ext.y; ++y)
      std::memcpy(r.data.data() + dev::linearize(box.ext, 0, y, z),
                  full.data() + dev::linearize(dims, box.lo.x, box.lo.y + y,
                                               box.lo.z + z),
                  box.ext.x * sizeof(T));
  r.dims = box.ext;
  r.indexed = false;
}

/// Dispatch on the outermost magic: raw SZI2 and 'BBC2'-wrapped SZI2 take
/// the indexed path when the archive carries a tile index; everything else
/// (and pre-index archives) falls back to full decode + crop. `bytes_read`
/// counts the bytes this call fetched either way, so concurrent readers of
/// one source each report their own.
template <typename T>
RoiResultT<T> decompress_roi_typed(io::ArchiveSource& src, const RoiBox& box) {
  dev::Arena local;
  dev::Workspace ws(local);
  core::Timer wall;
  SourceReader in{src};
  RoiResultT<T> r;
  std::uint32_t magic = 0;
  {
    std::vector<std::byte> scratch;
    if (in.size() >= sizeof(magic)) {
      const auto v = in.view(0, sizeof(magic), scratch);
      std::memcpy(&magic, v.data(), sizeof(magic));
    }
  }
  bool done = false;
  if (magic == kMagicV2) {
    RawInnerSource inner(in);
    done = roi_v2<T>(inner, box, ws, r);
  } else if (magic == kBitcompWrapMagicV2) {
    WrappedInnerSource inner(in, ws);
    if (inner_peek_magic(inner) == kMagicV2)
      done = roi_v2<T>(inner, box, ws, r);
  }
  if (!done) roi_fallback<T>(in, box, ws, r);
  r.bytes_read = in.fetched;
  r.timings.total = wall.lap();
  return r;
}

/// Full-decode fallback for progressive requests against archives without
/// a segment directory (legacy SZI1, raw or wrapped): decode everything
/// through the engine, then subsample onto the preview grid. The whole
/// archive was consumed, so bytes_read is its size.
template <typename T>
ProgressiveResultT<T> progressive_from_full(std::span<const std::byte> bytes,
                                            int max_level,
                                            dev::Workspace& ws) {
  dev::Dim3 dims;
  const auto full = decode_full<T>(bytes, is_wrapper_magic(peek_magic(bytes)),
                                   ws, nullptr, &dims);
  const int level =
      std::clamp(max_level, 1, predictor::ginterp_level_count(dims) + 1);
  ProgressiveResultT<T> r;
  r.data = predictor::ginterp_subsample(std::span<const T>(full), dims, level);
  r.dims = predictor::ginterp_preview_dims(dims, level);
  r.level = level;
  r.bytes_read = bytes.size();
  return r;
}

/// Replays the partial reconstruction of a read SZI2 prefix onto its
/// preview grid: the whole field at the preview level, through the same
/// reconstructor and slab schedule as every decode, then the stride
/// subsample. Passes at stride s touch only stride-s grid positions, so the
/// preview is bit-identical to ginterp_subsample over the full decode.
template <typename T>
ProgressiveResultT<T> preview_from_prefix(const V2Prefix<T>& p,
                                          std::size_t bytes_read,
                                          dev::Workspace& ws) {
  const InnerHeader& h = p.h;
  ProgressiveResultT<T> r;
  if (p.level > predictor::ginterp_level_count(h.dims)) {
    // Anchors-only preview: the anchor grid IS the coarsest preview grid,
    // and anchors are stored lossless, so the preview is the anchor array.
    const auto geo = predictor::geometry_for(h.dims);
    if (p.anchors.size() != predictor::anchor_dims(h.dims, geo.anchor).volume())
      throw core::CorruptArchive("ginterp", 0, "anchor count mismatch");
    r.data.assign(p.anchors.begin(), p.anchors.end());
  } else {
    std::vector<T> full(h.volume);
    predictor::GInterpReconstructorT<T> recon(
        p.codes, p.anchors, p.outliers, h.dims, h.eb, h.cfg, h.radius,
        std::span<T>(full), p.level);
    SlabSchedule<T>(recon).finish();
    r.data = predictor::ginterp_subsample(std::span<const T>(full), h.dims,
                                          p.level);
  }
  r.dims = predictor::ginterp_preview_dims(p.h.dims, p.level);
  r.level = p.level;
  r.bytes_read = bytes_read;
  ws.reset();
  return r;
}

/// Prefix decode of a raw SZI2 archive: read the directory, then only the
/// segments of levels >= max_level, and replay the partial reconstruction.
/// Bytes past the consumed prefix are never touched, so truncating the
/// archive to `bytes_read` bytes decodes identically (the byte-accounting
/// test does exactly that).
template <typename T>
ProgressiveResultT<T> progressive_v2_raw(std::span<const std::byte> bytes,
                                         int max_level, dev::Workspace& ws) {
  double huff_s = 0;
  const auto p = read_v2_prefix<T>(
      bytes, [](std::size_t) {}, max_level, ws, huff_s);
  return preview_from_prefix(p, p.rd.offset(), ws);
}

/// Progressive decode through the 'BBCP'/'BBC2' wrappers: LZSS blocks
/// decode serially and only as far as the inner prefix the preview needs;
/// `bytes_read` counts the wrapper framing plus the compressed extent of
/// the payloads actually decoded. A method-0 wrapper segment consumes
/// block by block; a transformed (zero-RLE / bitshuffle) segment is
/// all-or-nothing — its whole payload decodes the moment any of its raw
/// bytes are needed. A legacy (SZI1) inner archive has no directory to
/// steer by, so it decodes everything and falls back to full decode +
/// subsample.
///
/// The container parses in prefix mode and each payload's LZSS frame is
/// parsed (and cross-checked against its table entry) only when the
/// preview first needs that segment: an archive truncated at a previous
/// preview's `bytes_read` — a wrapper-payload boundary, since the 'BBC2'
/// segmentation mirrors the inner directory — decodes the same preview,
/// while a truncation that cuts a *needed* payload still throws.
template <typename T>
ProgressiveResultT<T> progressive_wrapped(std::span<const std::byte> bytes,
                                          int max_level, dev::Workspace& ws) {
  // prefix_ok only relaxes the 'BBC2' branch; legacy 'BBCP' framing is
  // never truncation-tolerant.
  const auto container = bitcomp_parse_container(bytes, /*prefix_ok=*/true);
  const std::size_t nwseg = container.segments.size();
  std::vector<lossless::LzssFrame> frames(nwseg);
  std::vector<char> parsed(nwseg, 0);
  const auto frame_at = [&](std::size_t i) -> const lossless::LzssFrame& {
    if (!parsed[i]) {
      const auto& s = container.segments[i];
      if (container.payloads[i].size() < s.size)
        throw core::CorruptArchive("bitcomp-wrapper", 0,
                                   "container truncated inside a segment "
                                   "the preview needs");
      frames[i] = lossless::lzss_parse_frame(container.payloads[i], ws);
      if (!container.legacy)
        check_wrap_frame(s.method, static_cast<std::size_t>(s.raw_size),
                         frames[i], 0);
      parsed[i] = 1;
    }
    return frames[i];
  };
  std::vector<std::size_t> seg_off(nwseg);
  std::size_t raw_size = 0;
  for (std::size_t i = 0; i < nwseg; ++i) {
    seg_off[i] = raw_size;
    // Legacy has no raw_size in its table — the frame header carries it.
    raw_size += container.legacy
                    ? static_cast<std::size_t>(frame_at(i).raw_size)
                    : static_cast<std::size_t>(container.segments[i].raw_size);
  }
  auto raw = ws.make<std::byte>(raw_size);

  const auto seg_len = [&](std::size_t i) {
    return container.legacy
               ? static_cast<std::size_t>(frames[i].raw_size)
               : static_cast<std::size_t>(container.segments[i].raw_size);
  };
  std::size_t cur = 0;  // wrapper segment cursor
  std::size_t nb = 0;   // blocks decoded within the current method-0 segment
  std::size_t decoded = 0;
  const auto ensure = [&](std::size_t off) {
    if (off > raw_size) off = raw_size;
    while (decoded < off) {
      if (cur >= nwseg) {
        decoded = raw_size;
        break;
      }
      const auto& fr = frame_at(cur);
      const auto m = container.segments[cur].method;
      const std::size_t soff = seg_off[cur];
      const std::size_t slen = seg_len(cur);
      if (m == lossless::Method::Lzss && nb < fr.nblocks) {
        const std::size_t begin = nb * fr.block_size;
        const std::size_t len = std::min(fr.block_size, fr.raw_size - begin);
        lossless::lzss_decompress_block(fr, nb,
                                        {raw.data() + soff + begin, len});
        ++nb;
        decoded = std::max(decoded, soff + begin + len);
        continue;
      }
      if (m != lossless::Method::Lzss) {
        auto tmp = ws.make<std::byte>(fr.raw_size);
        for (std::size_t k = 0; k < fr.nblocks; ++k) {
          const std::size_t begin = k * fr.block_size;
          const std::size_t len = std::min(fr.block_size, fr.raw_size - begin);
          lossless::lzss_decompress_block(fr, k, {tmp.data() + begin, len});
        }
        lossless::method_untransform(tmp, m, {raw.data() + soff, slen});
      }
      // Segment complete (transformed, exhausted method-0, or empty).
      decoded = std::max(decoded, soff + slen);
      ++cur;
      nb = 0;
    }
  };
  // Wrapper framing + compressed extent consumed so far. Fully-consumed
  // payloads count whole; a partially-decoded method-0 payload counts its
  // frame header plus the block extent, which for a legacy archive is
  // exactly the old framing + offsets[nb] accounting.
  const auto consumed_bytes = [&] {
    std::size_t consumed = container.table_bytes;
    for (std::size_t i = 0; i < cur; ++i)
      consumed += container.payloads[i].size();
    if (cur < nwseg && nb > 0) {
      const auto& fr = frames[cur];
      consumed += container.payloads[cur].size() - fr.stream.size();
      consumed += nb < fr.nblocks ? static_cast<std::size_t>(fr.offsets[nb])
                                  : fr.stream.size();
    }
    return consumed;
  };

  ensure(sizeof(std::uint32_t));
  std::uint32_t inner_magic = 0;
  if (raw_size >= sizeof(inner_magic))
    std::memcpy(&inner_magic, raw.data(), sizeof(inner_magic));
  if (inner_magic != kMagicV2)
    return progressive_from_full<T>(bytes, max_level, ws);
  double huff_s = 0;
  const auto p = read_v2_prefix<T>({raw.data(), raw_size}, ensure, max_level,
                                   ws, huff_s);
  return preview_from_prefix(p, consumed_bytes(), ws);
}

/// Version dispatch for the progressive entry points: 'BBCP'/'BBC2' →
/// payload-lazy wrapped path, 'SZI2' → raw prefix decode, anything else
/// ('SZI1' or garbage) → full decode + subsample (which rejects bad magic).
template <typename T>
ProgressiveResultT<T> decompress_progressive_typed(
    std::span<const std::byte> bytes, int max_level, dev::Workspace& ws) {
  const std::uint32_t magic = peek_magic(bytes);
  if (is_wrapper_magic(magic))
    return progressive_wrapped<T>(bytes, max_level, ws);
  if (magic == kMagicV2) return progressive_v2_raw<T>(bytes, max_level, ws);
  return progressive_from_full<T>(bytes, max_level, ws);
}

/// SZI2 directory parse for the public cuszi_archive_segments().
template <typename T>
std::vector<SegmentInfo> archive_segments_typed(
    std::span<const std::byte> bytes) {
  core::ByteReader rd(bytes, "cusz-i");
  const InnerHeader h = parse_inner_header<T>(rd, kMagicV2);
  const auto segs = parse_v2_directory<T>(rd, h);
  std::vector<SegmentInfo> out(segs.size());
  for (std::size_t i = 0; i < segs.size(); ++i) {
    out[i].kind = segs[i].kind;
    out[i].level = segs[i].level;
    out[i].count = segs[i].count;
    out[i].offset = segs[i].offset;
    out[i].size = segs[i].size;
  }
  return out;
}

/// The Compressor-interface adapter over the f32 typed API. Compression
/// runs the fused pipeline.
class Cuszi final : public Compressor {
 public:
  [[nodiscard]] std::string name() const override { return "cuSZ-i"; }

  [[nodiscard]] CompressResult compress(const Field& field,
                                        const CompressParams& p) override {
    CompressResult r;
    r.bytes = compress_typed<float>(field.data, field.dims, p, &r.timings,
                                    /*fused=*/true);
    return r;
  }

  [[nodiscard]] std::vector<float> decompress(std::span<const std::byte> bytes,
                                              double* decode_seconds) override {
    core::Timer total;
    auto out = decode_full_local<float>(bytes);
    if (decode_seconds) *decode_seconds = total.lap();
    return out;
  }

  [[nodiscard]] std::vector<float> decompress(std::span<const std::byte> bytes,
                                              double* decode_seconds,
                                              dev::Workspace& ws) override {
    core::Timer total;
    auto out = decode_full<float>(bytes, /*wrapped=*/false, ws);
    if (decode_seconds) *decode_seconds = total.lap();
    return out;
  }

  [[nodiscard]] CompressResult compress_bitcomp(
      const Field& field, const CompressParams& p) override {
    CompressResult r;
    dev::Workspace ws(dev::Arena::instance());
    r.bytes = compress_bitcomp_typed<float>(field.data, field.dims, p,
                                            &r.timings, ws,
                                            lossless::LzssMode::Lazy);
    return r;
  }

  [[nodiscard]] std::vector<float> decompress_bitcomp(
      std::span<const std::byte> bytes, double* decode_seconds) override {
    core::Timer total;
    dev::Workspace ws(dev::Arena::instance());
    auto out = decode_full<float>(bytes, /*wrapped=*/true, ws);
    if (decode_seconds) *decode_seconds = total.lap();
    return out;
  }

  [[nodiscard]] std::vector<float> decompress_stages(
      std::span<const std::byte> bytes, DecodeTimings& t) override {
    return decode_full_local<float>(bytes, &t);
  }

  [[nodiscard]] std::vector<float> decompress_bitcomp_stages(
      std::span<const std::byte> bytes, DecodeTimings& t) override {
    dev::Workspace ws(dev::Arena::instance());
    return decode_full<float>(bytes, /*wrapped=*/true, ws, &t);
  }

  [[nodiscard]] ProgressiveResult decompress_progressive(
      std::span<const std::byte> bytes, int max_level) override {
    dev::Workspace ws(dev::Arena::instance());
    return decompress_progressive_typed<float>(bytes, max_level, ws);
  }

  [[nodiscard]] RoiResult decompress_roi(std::span<const std::byte> bytes,
                                         const RoiBox& box) override {
    return cuszi_decompress_roi_f32(bytes, box);
  }
};

}  // namespace

std::unique_ptr<Compressor> make_cuszi() { return std::make_unique<Cuszi>(); }

std::vector<std::byte> cuszi_compress(std::span<const float> data,
                                      const dev::Dim3& dims,
                                      const CompressParams& params,
                                      StageTimings* timings) {
  return compress_typed<float>(data, dims, params, timings, /*fused=*/true);
}

std::vector<std::byte> cuszi_compress(std::span<const double> data,
                                      const dev::Dim3& dims,
                                      const CompressParams& params,
                                      StageTimings* timings) {
  return compress_typed<double>(data, dims, params, timings, /*fused=*/true);
}

std::vector<std::byte> cuszi_compress(std::span<const float> data,
                                      const dev::Dim3& dims,
                                      const CompressParams& params,
                                      StageTimings* timings,
                                      dev::Workspace& ws) {
  return compress_typed<float>(data, dims, params, timings, /*fused=*/true,
                               ws);
}

std::vector<std::byte> cuszi_compress(std::span<const double> data,
                                      const dev::Dim3& dims,
                                      const CompressParams& params,
                                      StageTimings* timings,
                                      dev::Workspace& ws) {
  return compress_typed<double>(data, dims, params, timings, /*fused=*/true,
                                ws);
}

std::vector<std::byte> cuszi_compress_unfused(std::span<const float> data,
                                              const dev::Dim3& dims,
                                              const CompressParams& params,
                                              StageTimings* timings) {
  return compress_typed<float>(data, dims, params, timings, /*fused=*/false);
}

std::vector<std::byte> cuszi_compress_unfused(std::span<const double> data,
                                              const dev::Dim3& dims,
                                              const CompressParams& params,
                                              StageTimings* timings) {
  return compress_typed<double>(data, dims, params, timings, /*fused=*/false);
}

std::vector<std::byte> cuszi_compress_bitcomp(std::span<const float> data,
                                              const dev::Dim3& dims,
                                              const CompressParams& params,
                                              StageTimings* timings,
                                              dev::Workspace& ws,
                                              lossless::LzssMode mode) {
  return compress_bitcomp_typed<float>(data, dims, params, timings, ws, mode);
}

std::vector<std::byte> cuszi_compress_bitcomp(std::span<const double> data,
                                              const dev::Dim3& dims,
                                              const CompressParams& params,
                                              StageTimings* timings,
                                              dev::Workspace& ws,
                                              lossless::LzssMode mode) {
  return compress_bitcomp_typed<double>(data, dims, params, timings, ws, mode);
}

/// One pool launch over min(workers, fields) lanes; lane j compresses
/// fields j, j + lanes, ... on one Workspace over arena shard j, so each
/// field reuses its predecessor's warm pages and lanes never contend on one
/// free-list mutex. Each field's kernels are nested launches that idle
/// workers help, and every kernel is deterministic regardless of
/// scheduling, so archives are byte-identical to per-field compression.
///
/// Each field's exception is caught inside its lane, so every field runs,
/// then the lowest-index failure is rethrown — what a sequential per-field
/// loop would have raised first. A field that threw may have left the
/// lane's Workspace holding blocks mid-flight; reset() before the next
/// field reuses it.
std::vector<std::vector<std::byte>> cuszi_compress_many(
    std::span<const FieldView> fields, const CompressParams& params,
    std::vector<StageTimings>* timings) {
  const std::size_t nf = fields.size();
  std::vector<std::vector<std::byte>> out(nf);
  std::vector<StageTimings> times(nf);
  std::vector<std::exception_ptr> errors(nf);
  auto& pool = dev::ThreadPool::instance();
  const std::size_t lanes = std::min<std::size_t>(pool.worker_count(), nf);
  pool.parallel_for(
      lanes,
      [&](std::size_t lane) {
        dev::Workspace ws(dev::Arena::shard(lane));
        for (std::size_t f = lane; f < nf; f += lanes) {
          try {
            out[f] = compress_typed<float>(fields[f].data, fields[f].dims,
                                           params, &times[f], /*fused=*/true,
                                           ws);
          } catch (...) {
            errors[f] = std::current_exception();
            ws.reset();
          }
        }
      },
      1);
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  if (timings) *timings = std::move(times);
  return out;
}

Precision cuszi_archive_precision(std::span<const std::byte> bytes) {
  // Buffers shorter than magic + precision throw CorruptArchive (not UB),
  // and the magic is verified before the precision byte is interpreted.
  core::ByteReader rd(bytes, "cusz-i");
  const auto magic = rd.read<std::uint32_t>();
  if (magic != kMagic && magic != kMagicV2) rd.fail("bad magic");
  const auto prec = rd.read<std::uint8_t>();
  if (prec > static_cast<std::uint8_t>(Precision::F64))
    rd.fail("unknown precision byte");
  return static_cast<Precision>(prec);
}

std::vector<SegmentInfo> cuszi_archive_segments(
    std::span<const std::byte> bytes) {
  const std::uint32_t magic = peek_magic(bytes);
  if (is_wrapper_magic(magic)) {
    const auto inner = bitcomp_unwrap_archive(bytes);
    return cuszi_archive_segments(inner);
  }
  if (peek_magic(bytes) == kMagic) return {};
  return cuszi_archive_precision(bytes) == Precision::F32
             ? archive_segments_typed<float>(bytes)
             : archive_segments_typed<double>(bytes);
}

std::vector<std::byte> cuszi_compress_v1(std::span<const float> data,
                                         const dev::Dim3& dims,
                                         const CompressParams& params,
                                         StageTimings* timings) {
  dev::Arena local;
  dev::Workspace ws(local);
  return compress_v1_typed<float>(data, dims, params, timings, ws);
}

std::vector<std::byte> cuszi_compress_v1(std::span<const double> data,
                                         const dev::Dim3& dims,
                                         const CompressParams& params,
                                         StageTimings* timings) {
  dev::Arena local;
  dev::Workspace ws(local);
  return compress_v1_typed<double>(data, dims, params, timings, ws);
}

ProgressiveResultT<float> cuszi_decompress_progressive_f32(
    std::span<const std::byte> bytes, int max_level) {
  dev::Arena local;
  dev::Workspace ws(local);
  return decompress_progressive_typed<float>(bytes, max_level, ws);
}

ProgressiveResultT<double> cuszi_decompress_progressive_f64(
    std::span<const std::byte> bytes, int max_level) {
  dev::Arena local;
  dev::Workspace ws(local);
  return decompress_progressive_typed<double>(bytes, max_level, ws);
}

ProgressiveResultT<float> cuszi_decompress_progressive_f32(
    std::span<const std::byte> bytes, int max_level, dev::Workspace& ws) {
  return decompress_progressive_typed<float>(bytes, max_level, ws);
}

RoiResultT<float> cuszi_decompress_roi_f32(io::ArchiveSource& src,
                                           const RoiBox& box) {
  return decompress_roi_typed<float>(src, box);
}

RoiResultT<double> cuszi_decompress_roi_f64(io::ArchiveSource& src,
                                            const RoiBox& box) {
  return decompress_roi_typed<double>(src, box);
}

RoiResultT<float> cuszi_decompress_roi_f32(std::span<const std::byte> bytes,
                                           const RoiBox& box) {
  io::MemorySource ms(bytes);
  return decompress_roi_typed<float>(ms, box);
}

RoiResultT<double> cuszi_decompress_roi_f64(std::span<const std::byte> bytes,
                                            const RoiBox& box) {
  io::MemorySource ms(bytes);
  return decompress_roi_typed<double>(ms, box);
}

ProgressiveResultT<double> cuszi_decompress_progressive_f64(
    std::span<const std::byte> bytes, int max_level, dev::Workspace& ws) {
  return decompress_progressive_typed<double>(bytes, max_level, ws);
}

std::vector<float> cuszi_decompress_f32(std::span<const std::byte> bytes,
                                        DecodeTimings* timings) {
  return decode_full_local<float>(bytes, timings);
}

std::vector<double> cuszi_decompress_f64(std::span<const std::byte> bytes,
                                         DecodeTimings* timings) {
  return decode_full_local<double>(bytes, timings);
}

std::vector<float> cuszi_decompress_f32(std::span<const std::byte> bytes,
                                        dev::Workspace& ws) {
  return decode_full<float>(bytes, /*wrapped=*/false, ws);
}

std::vector<double> cuszi_decompress_f64(std::span<const std::byte> bytes,
                                         dev::Workspace& ws) {
  return decode_full<double>(bytes, /*wrapped=*/false, ws);
}

std::vector<float> cuszi_decompress_bitcomp_f32(
    std::span<const std::byte> bytes, dev::Workspace& ws,
    DecodeTimings* timings) {
  return decode_full<float>(bytes, /*wrapped=*/true, ws, timings);
}

std::vector<double> cuszi_decompress_bitcomp_f64(
    std::span<const std::byte> bytes, dev::Workspace& ws,
    DecodeTimings* timings) {
  return decode_full<double>(bytes, /*wrapped=*/true, ws, timings);
}

}  // namespace szi
