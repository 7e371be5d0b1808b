// Decode-path equivalence: the overhauled decompression hot paths — the
// buffered BitReader + multi-symbol Huffman pack LUT (huffman::decode_chunks)
// and the in-place slab reconstruction (ginterp_decompress_into /
// GInterpReconstructorT) — must be bit-identical to the retained references:
// the single-symbol-per-probe chunk decoder (decode_chunks_reference) and the
// staged ginterp_decompress that reconstructs through a separate scatter
// buffer. End to end, the one full-decode engine (raw and wrapped, SZI1 and
// SZI2) must match a test-side decoder composed only of those references.
// Mirrors tests/test_fused_equiv.cc for the compress side.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/bytes.hh"
#include "core/cuszi.hh"
#include "datagen/datasets.hh"
#include "device/arena.hh"
#include "device/thread_pool.hh"
#include "huffman/huffman.hh"
#include "lossless/lzss.hh"
#include "predictor/ginterp.hh"

namespace {

using szi::CompressParams;
using szi::ErrorMode;
using szi::dev::Dim3;
using szi::predictor::InterpConfig;
using szi::quant::Code;

constexpr CompressParams kRel{ErrorMode::Rel, 1e-3};

/// Single-symbol reference decode of one framed Huffman stream.
std::vector<Code> reference_stream(std::span<const std::byte> stream) {
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto plan = szi::huffman::decode_plan(stream, ws);
  std::vector<Code> syms(plan.n);
  szi::huffman::decode_chunks_reference(plan, 0, plan.nchunks, syms);
  return syms;
}

/// Independent end-to-end oracle for raw cuSZ-i archives, composed only of
/// the retained references: decode_chunks_reference per Huffman stream (one
/// per SZI2 level segment, scattered through LevelScatterCursor; the single
/// SZI1 stream is the code array), then the staged ginterp_decompress.
template <typename T>
std::vector<T> reference_decode(std::span<const std::byte> archive) {
  // Fixed header: magic | precision | dims | eb | alpha | cubic[3] |
  // order[3] | radius.
  szi::core::ByteReader rd(archive, "reference");
  const auto magic = rd.read<std::uint32_t>();
  (void)rd.read<std::uint8_t>();
  Dim3 dims;
  dims.x = rd.read<std::uint64_t>();
  dims.y = rd.read<std::uint64_t>();
  dims.z = rd.read<std::uint64_t>();
  const double eb = rd.read<double>();
  InterpConfig cfg;
  cfg.alpha = rd.read<double>();
  for (auto& c : cfg.cubic)
    c = static_cast<szi::predictor::CubicKind>(rd.read<std::uint8_t>());
  for (auto& o : cfg.dim_order) o = rd.read<std::uint8_t>();
  const int radius = rd.read<std::uint16_t>();

  const auto read_outliers = [](szi::core::ByteReader& r) {
    szi::quant::OutlierSetT<T> o;
    const auto n = static_cast<std::size_t>(r.read<std::uint64_t>());
    o.indices = r.read_array<std::uint64_t>(n);
    o.values = r.read_array<T>(n);
    return o;
  };
  std::vector<T> anchors;
  szi::quant::OutlierSetT<T> outliers;
  std::vector<Code> codes;
  if (magic == 0x32495A53) {  // 'SZI2'
    const auto segs = szi::cuszi_archive_segments(archive);
    const auto seg_bytes = [&](const szi::SegmentInfo& s) {
      return archive.subspan(static_cast<std::size_t>(s.offset),
                             static_cast<std::size_t>(s.size));
    };
    szi::core::ByteReader ar(seg_bytes(segs[0]), "reference");
    anchors = ar.read_array<T>(static_cast<std::size_t>(segs[0].count));
    szi::core::ByteReader orr(seg_bytes(segs[1]), "reference");
    outliers = read_outliers(orr);
    codes.assign(dims.volume(), static_cast<Code>(radius));
    for (const auto& s : segs) {
      if (s.kind != 2) continue;
      const auto syms = reference_stream(seg_bytes(s));
      szi::predictor::LevelScatterCursor cur(dims, s.level);
      cur.advance(syms, syms.size(), codes);
    }
  } else {  // 'SZI1': u64-counted anchors, outlier blob, one Huffman blob
    anchors = rd.read_array<T>(
        static_cast<std::size_t>(rd.read<std::uint64_t>()));
    szi::core::ByteReader orr(rd.read_length_prefixed(), "reference");
    outliers = read_outliers(orr);
    codes = reference_stream(rd.read_length_prefixed());
  }
  return szi::predictor::ginterp_decompress(codes, std::span<const T>(anchors),
                                            outliers, dims, eb, cfg, radius);
}

template <typename T>
void expect_bits_equal(const std::vector<T>& got, const std::vector<T>& want,
                       const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(T)))
      << what;
}

/// Raw and wrapped engine decodes of `inner` against the oracle.
template <typename T>
void expect_engine_matches_reference(std::span<const std::byte> inner) {
  const auto want = reference_decode<T>(inner);
  const auto wrapped = szi::bitcomp_wrap_archive(inner);
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  if constexpr (sizeof(T) == 4) {
    expect_bits_equal(szi::cuszi_decompress_f32(inner), want, "raw");
    expect_bits_equal(szi::cuszi_decompress_bitcomp_f32(wrapped, ws), want,
                      "wrapped");
  } else {
    expect_bits_equal(szi::cuszi_decompress_f64(inner), want, "raw");
    expect_bits_equal(szi::cuszi_decompress_bitcomp_f64(wrapped, ws), want,
                      "wrapped");
  }
}

/// Both chunk decoders over one encoded stream; returns the packed result
/// after asserting it equals the reference symbol-for-symbol.
std::vector<Code> decode_both_ways(std::span<const Code> codes,
                                   std::size_t nbins, std::size_t chunk_size) {
  const auto stream = szi::huffman::encode(codes, nbins, chunk_size);
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto plan = szi::huffman::decode_plan(stream, ws);
  std::vector<Code> fast(plan.n), ref(plan.n);
  szi::huffman::decode_chunks(plan, 0, plan.nchunks, fast);
  szi::huffman::decode_chunks_reference(plan, 0, plan.nchunks, ref);
  EXPECT_EQ(fast, ref);
  return fast;
}

/// Staged reference reconstruction vs the in-place path, with the in-place
/// destination prefilled with garbage to prove prior contents are invisible.
template <typename T>
void expect_inplace_matches_staged(std::span<const T> data, const Dim3& dims,
                                   double eb) {
  const InterpConfig cfg;
  const auto enc = szi::predictor::ginterp_compress(data, dims, eb, cfg);
  const auto staged = szi::predictor::ginterp_decompress(
      enc.codes, std::span<const T>(enc.anchors), enc.outliers, dims, eb, cfg);

  std::vector<T> inplace(dims.volume(), static_cast<T>(-7.25e11));
  szi::quant::OutlierViewT<T> ov;
  ov.indices = enc.outliers.indices;
  ov.values = enc.outliers.values;
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  szi::predictor::ginterp_decompress_into(
      enc.codes, std::span<const T>(enc.anchors), ov, dims, eb, cfg,
      szi::quant::kDefaultRadius, std::span<T>(inplace), ws);
  ASSERT_EQ(staged.size(), inplace.size());
  // Bit-level comparison: NaNs or signed zeros must match exactly too.
  ASSERT_EQ(0, std::memcmp(staged.data(), inplace.data(),
                           staged.size() * sizeof(T)))
      << dims.x << "x" << dims.y << "x" << dims.z;
}

// Every field of every generated dataset, decoded through both Huffman chunk
// decoders and both reconstruction paths.
TEST(DecodeEquiv, AllDatasetsByteIdentical) {
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  for (const auto& name : szi::datagen::dataset_names()) {
    const auto fields =
        szi::datagen::make_dataset(name, szi::datagen::Size::Small);
    for (const auto& f : fields) {
      const std::span<const float> d(f.data);
      const double eb = szi::resolve_abs_eb(kRel, d, "test_decode_equiv");
      expect_inplace_matches_staged<float>(d, f.dims, eb);

      const InterpConfig cfg;
      const auto enc = szi::predictor::ginterp_compress(d, f.dims, eb, cfg);
      const auto decoded = decode_both_ways(
          enc.codes, 2 * szi::quant::kDefaultRadius, szi::huffman::kDefaultChunk);
      EXPECT_EQ(decoded, enc.codes) << name << "/" << f.name;

      // End to end: raw and wrapped engine decodes must reproduce the
      // reference composition bit for bit.
      SCOPED_TRACE(name + "/" + f.name);
      expect_engine_matches_reference<float>(
          szi::cuszi_compress(d, f.dims, kRel));
    }
  }
}

// Odd, even, and degenerate extents in both precisions: slab scheduling and
// the in-place border reads are where a tile-order dependence would first
// show (partial tiles, single-slab grids, scalar fields).
TEST(DecodeEquiv, ShapesAndPrecisions) {
  const Dim3 shapes[] = {{33, 17, 9}, {32, 16, 8}, {64, 64, 1}, {129, 1, 1},
                         {5, 3, 2},   {2, 2, 2},   {1, 1, 1},   {7, 1, 1}};
  for (const auto& dims : shapes) {
    std::vector<float> v32(dims.volume());
    std::vector<double> v64(dims.volume());
    for (std::size_t i = 0; i < v32.size(); ++i) {
      v64[i] = std::sin(0.05 * static_cast<double>(i)) +
               0.3 * std::cos(0.011 * static_cast<double>(i * i % 1009));
      v32[i] = static_cast<float>(v64[i]);
    }
    expect_inplace_matches_staged<float>(v32, dims, 1e-4);
    expect_inplace_matches_staged<double>(v64, dims, 1e-4);
  }
}

// Huffman pack-LUT edge shapes: tiny streams (shorter than one pack), chunk
// sizes that leave sub-pack tails, streams that end mid-window, and a
// codebook deep enough that the slow-path escape actually runs.
TEST(DecodeEquiv, HuffmanPackEdgeCases) {
  // Concentrated two-hot stream: windows pack the maximum symbol count.
  std::vector<Code> concentrated(100000);
  for (std::size_t i = 0; i < concentrated.size(); ++i)
    concentrated[i] = static_cast<Code>(512 + (i % 2));
  (void)decode_both_ways(concentrated, 1024, szi::huffman::kDefaultChunk);

  // Geometric spread over many symbols: code lengths past kLutBits force
  // the escape path inside packed windows.
  std::vector<Code> spread(200000);
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  for (auto& c : spread) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    // Favor symbol 0 heavily so rare symbols get long codes.
    const unsigned r = static_cast<unsigned>(s >> 59);
    c = static_cast<Code>(r < 24 ? 0 : (s >> 32) % 4096);
  }
  (void)decode_both_ways(spread, 4096, szi::huffman::kDefaultChunk);

  // Tails and tiny streams around the pack width.
  for (const std::size_t n : {1ul, 5ul, 6ul, 7ul, 13ul, 100ul})
    (void)decode_both_ways(std::span<const Code>(spread).first(n), 4096, 64);
}

// Both LZSS parameterizations through the full pipelined decode (widened
// match copies + literal batching are exercised by both token mixes).
TEST(DecodeEquiv, BothLzssModes) {
  const auto f =
      szi::datagen::make_dataset("nyx", szi::datagen::Size::Small).front();
  const std::span<const float> d(f.data);
  const auto inner = szi::cuszi_compress(d, f.dims, kRel);
  const auto ref = reference_decode<float>(inner);
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  for (const auto mode :
       {szi::lossless::LzssMode::Greedy, szi::lossless::LzssMode::Lazy}) {
    szi::core::ByteWriter w;
    w.put(szi::kBitcompWrapMagic);
    w.put_blob(
        szi::lossless::lzss_compress(inner, szi::lossless::kLzssBlock, mode));
    ASSERT_EQ(szi::cuszi_decompress_bitcomp_f32(w.take(), ws), ref);
  }
}

// Fields whose bulk stream spans many chunk groups, so slabs reconstruct as
// pool tasks while later groups still decode — SZI2 and legacy SZI1,
// both precisions, against the reference composition.
TEST(DecodeEquiv, PipelinedSlabsMatchReference) {
  const Dim3 dims{96, 80, 72};
  std::vector<double> v64(dims.volume());
  std::uint64_t s = 0x2545f4914f6cdd1dull;
  for (std::size_t i = 0; i < v64.size(); ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    // Smooth trend plus white noise: the noise keeps the level-1 payload
    // well past one 256 KiB chunk group at this bound.
    v64[i] = std::sin(0.01 * static_cast<double>(i)) +
             1e-2 * static_cast<double>(s >> 40) / static_cast<double>(1 << 24);
  }
  std::vector<float> v32(v64.begin(), v64.end());
  const CompressParams abs{ErrorMode::Abs, 1e-5};
  const auto inner =
      szi::cuszi_compress(std::span<const float>(v32), dims, abs);
  ASSERT_GT(inner.size(), std::size_t{4} << 18);
  expect_engine_matches_reference<float>(inner);
  // Slabs start before the last chunk group only for a multi-group stream,
  // and they overlap the decode only when there are workers to run them.
  szi::DecodeTimings t;
  (void)szi::cuszi_decompress_f32(inner, &t);
  EXPECT_EQ(t.overlapped,
            szi::dev::ThreadPool::instance().worker_count() > 1);
  const auto small =
      szi::datagen::make_dataset("nyx", szi::datagen::Size::Small).front();
  (void)szi::cuszi_decompress_f32(
      szi::cuszi_compress(std::span<const float>(small.data), small.dims, kRel),
      &t);
  EXPECT_FALSE(t.overlapped);
  expect_engine_matches_reference<float>(
      szi::cuszi_compress_v1(std::span<const float>(v32), dims, abs));
  expect_engine_matches_reference<double>(
      szi::cuszi_compress(std::span<const double>(v64), dims, abs));
  expect_engine_matches_reference<double>(
      szi::cuszi_compress_v1(std::span<const double>(v64), dims, abs));
}

// A chunk table that lies about its extent must surface CorruptArchive from
// the pool workers of both chunk decoders (the launch-exception satellite:
// dev::launch_linear rethrows the first worker exception on the caller).
TEST(DecodeEquiv, CorruptChunkExtentThrowsThroughParallelLaunch) {
  // Hand-built stream: 4 symbols with Kraft-complete lengths {1,2,3,3},
  // claiming 100 symbols in one chunk whose payload is a single byte.
  // Decoding consumes >= 1 bit per symbol (past-end bits read as zero), so
  // position() overruns the 8-bit span and the extent check must throw.
  szi::core::ByteWriter w;
  w.put(std::uint32_t{4});
  for (const std::uint8_t len : {1, 2, 3, 3}) w.put(len);
  w.put(std::uint64_t{100});        // n_symbols
  w.put(std::uint32_t{100});        // chunk_size -> one chunk
  w.put(std::uint64_t{1});          // payload_bytes
  w.put(std::uint64_t{0});          // chunk 0 offset
  w.put(std::uint8_t{0xFF});        // payload
  const auto bytes = w.take();

  EXPECT_THROW((void)szi::huffman::decode(bytes), szi::core::CorruptArchive);

  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto plan = szi::huffman::decode_plan(bytes, ws);
  std::vector<Code> out(plan.n);
  EXPECT_THROW(
      szi::huffman::decode_chunks_reference(plan, 0, plan.nchunks, out),
      szi::core::CorruptArchive);
}

}  // namespace
