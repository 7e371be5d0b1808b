// Random-access (ROI) decode: every box must be bit-identical to the same
// crop of the full decompress — raw and 'BBC2'-wrapped, f32 and f64 — while
// the indexed path reads only a fraction of the archive. Archives the tile
// index cannot steer (legacy SZI1, pre-index SZI2, wrapped SZI1) fall back
// to full decode + crop through the same entry points, and every
// ArchiveSource backend (memory, mmap, pread) returns the same bytes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bytes.hh"
#include "core/compressor_iface.hh"
#include "core/cuszi.hh"
#include "baselines/registry.hh"
#include "datagen/datasets.hh"
#include "io/archive_source.hh"
#include "io/bin_io.hh"
#include "predictor/ginterp.hh"

namespace {

namespace fs = std::filesystem;

using szi::CompressParams;
using szi::ErrorMode;
using szi::RoiBox;
using szi::dev::Dim3;

template <typename T>
std::vector<T> crop(const std::vector<T>& full, const Dim3& dims,
                    const RoiBox& box) {
  std::vector<T> out(box.ext.volume());
  for (std::size_t z = 0; z < box.ext.z; ++z)
    for (std::size_t y = 0; y < box.ext.y; ++y)
      std::memcpy(
          out.data() + szi::dev::linearize(box.ext, 0, y, z),
          full.data() + szi::dev::linearize(dims, box.lo.x, box.lo.y + y,
                                            box.lo.z + z),
          box.ext.x * sizeof(T));
  return out;
}

/// Directory surgery: rewrite an indexed SZI2 archive as its pre-index
/// form — drop the trailing TIDX entry and payload, shift the remaining
/// segment offsets back by one directory row. Minting these proves the
/// fallback contract without keeping an old writer around.
std::vector<std::byte> strip_tidx(std::span<const std::byte> bytes) {
  const auto segs = szi::cuszi_archive_segments(bytes);
  EXPECT_EQ(segs.back().kind, 3);
  constexpr std::size_t kFixed = 53;   // inner header through PackedConfig
  constexpr std::size_t kEntry = 32;   // directory row stride
  const auto nseg = static_cast<std::uint32_t>(segs.size());
  std::vector<std::byte> out(bytes.begin(), bytes.begin() + kFixed);
  const std::uint32_t n2 = nseg - 1;
  out.resize(kFixed + sizeof(n2));
  std::memcpy(out.data() + kFixed, &n2, sizeof(n2));
  for (std::uint32_t i = 0; i < n2; ++i) {
    std::byte entry[kEntry];
    std::memcpy(entry, bytes.data() + kFixed + 4 + i * kEntry, kEntry);
    std::uint64_t off = 0;
    std::memcpy(&off, entry + 16, sizeof(off));
    off -= kEntry;
    std::memcpy(entry + 16, &off, sizeof(off));
    out.insert(out.end(), entry, entry + kEntry);
  }
  // Payloads, minus the trailing tile-index payload.
  out.insert(out.end(),
             bytes.begin() + static_cast<std::ptrdiff_t>(segs[0].offset),
             bytes.begin() + static_cast<std::ptrdiff_t>(segs.back().offset));
  return out;
}

/// Every box — interior, origin corner, far corner, 1-wide slivers, the
/// whole field — decodes bit-identical to the cropped full decompress, raw
/// and wrapped, with the tile index steering both.
TEST(Roi, MatchesCroppedFullDecode) {
  const auto fields =
      szi::datagen::make_dataset("miranda", szi::datagen::Size::Small);
  const auto& f = fields.front();  // 128 x 128 x 96
  const auto bytes = szi::cuszi_compress(std::span<const float>(f.data),
                                         f.dims, {ErrorMode::Rel, 1e-3});
  const auto wrapped = szi::bitcomp_wrap_archive(bytes);
  const auto full = szi::cuszi_decompress_f32(bytes);
  const std::vector<RoiBox> boxes = {
      {{40, 33, 21}, {32, 32, 32}},                    // interior, unaligned
      {{0, 0, 0}, {16, 16, 16}},                       // origin corner
      {{128 - 17, 128 - 5, 96 - 9}, {17, 5, 9}},       // far corner
      {{63, 0, 0}, {1, 128, 96}},                      // 1-wide x sliver
      {{0, 0, 47}, {128, 128, 1}},                     // single z-plane
      {{0, 0, 0}, {128, 128, 96}},                     // whole field
  };
  for (const auto& box : boxes) {
    const auto want = crop(full, f.dims, box);
    const auto r = szi::cuszi_decompress_roi_f32(bytes, box);
    EXPECT_TRUE(r.indexed);
    EXPECT_EQ(r.dims, box.ext);
    ASSERT_EQ(r.data.size(), want.size());
    EXPECT_EQ(0, std::memcmp(r.data.data(), want.data(),
                             want.size() * sizeof(float)))
        << "box lo=(" << box.lo.x << "," << box.lo.y << "," << box.lo.z << ")";
    const auto rw = szi::cuszi_decompress_roi_f32(wrapped, box);
    EXPECT_TRUE(rw.indexed);
    ASSERT_EQ(rw.data.size(), want.size());
    EXPECT_EQ(0, std::memcmp(rw.data.data(), want.data(),
                             want.size() * sizeof(float)));
  }
}

/// The point of the index: a small box touches a small fraction of the
/// archive. Headers, directory, anchors, and the whole outlier blob are
/// fixed overhead, so the bound here is loose; bench/roi checks the paper
/// target (<= 10% for a 64^3 box of the full-size field).
TEST(Roi, SmallBoxReadsSmallFractionOfArchive) {
  const auto fields =
      szi::datagen::make_dataset("miranda", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const auto bytes = szi::cuszi_compress(std::span<const float>(f.data),
                                         f.dims, {ErrorMode::Rel, 1e-3});
  const RoiBox box{{48, 48, 32}, {16, 16, 16}};
  const auto r = szi::cuszi_decompress_roi_f32(bytes, box);
  EXPECT_TRUE(r.indexed);
  EXPECT_GT(r.bytes_read, 0u);
  EXPECT_LT(r.bytes_read, bytes.size() / 2);
  // The wrapped archive reads only covering LZSS blocks. 64 KiB block
  // granularity dominates on this small archive (a couple of blocks span
  // most of it), so only strict improvement is asserted here; the bench
  // measures the real fraction on the paper-size field.
  const auto wrapped = szi::bitcomp_wrap_archive(bytes);
  const auto rw = szi::cuszi_decompress_roi_f32(wrapped, box);
  EXPECT_TRUE(rw.indexed);
  EXPECT_LT(rw.bytes_read, wrapped.size());
}

/// f64 archives steer through the identical index.
TEST(Roi, F64MatchesCroppedFullDecode) {
  const Dim3 dims{96, 80, 64};
  std::vector<double> data(dims.volume());
  std::size_t i = 0;
  for (std::size_t z = 0; z < dims.z; ++z)
    for (std::size_t y = 0; y < dims.y; ++y)
      for (std::size_t x = 0; x < dims.x; ++x, ++i)
        data[i] = std::sin(0.07 * static_cast<double>(x)) *
                      std::cos(0.05 * static_cast<double>(y)) +
                  0.3 * std::sin(0.11 * static_cast<double>(z));
  const auto bytes = szi::cuszi_compress(std::span<const double>(data), dims,
                                         {ErrorMode::Rel, 1e-4});
  const auto full = szi::cuszi_decompress_f64(bytes);
  const RoiBox box{{17, 9, 30}, {40, 33, 20}};
  const auto want = crop(full, dims, box);
  const auto r = szi::cuszi_decompress_roi_f64(bytes, box);
  EXPECT_TRUE(r.indexed);
  ASSERT_EQ(r.data.size(), want.size());
  EXPECT_EQ(0, std::memcmp(r.data.data(), want.data(),
                           want.size() * sizeof(double)));
  const auto rw =
      szi::cuszi_decompress_roi_f64(szi::bitcomp_wrap_archive(bytes), box);
  EXPECT_TRUE(rw.indexed);
  EXPECT_EQ(0, std::memcmp(rw.data.data(), want.data(),
                           want.size() * sizeof(double)));
}

/// Archives without a tile index still serve ROI requests — legacy SZI1,
/// surgically de-indexed SZI2, and wrapped SZI1 all fall back to full
/// decode + crop (indexed=false, whole archive read).
TEST(Roi, PreIndexArchivesFallBackToFullDecode) {
  const auto fields =
      szi::datagen::make_dataset("s3d", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const CompressParams p{ErrorMode::Rel, 1e-3};
  const auto v2 = szi::cuszi_compress(std::span<const float>(f.data), f.dims, p);
  const auto full = szi::cuszi_decompress_f32(v2);
  const RoiBox box{{10, 20, 30}, {24, 24, 24}};
  const auto want = crop(full, f.dims, box);

  // Pre-index SZI2: same stream contents, directory one row shorter.
  const auto pre = strip_tidx(v2);
  const auto dec_pre = szi::cuszi_decompress_f32(pre);
  ASSERT_EQ(dec_pre.size(), full.size());
  EXPECT_EQ(0, std::memcmp(dec_pre.data(), full.data(),
                           full.size() * sizeof(float)));
  const auto r_pre = szi::cuszi_decompress_roi_f32(pre, box);
  EXPECT_FALSE(r_pre.indexed);
  ASSERT_EQ(r_pre.data.size(), want.size());
  EXPECT_EQ(0, std::memcmp(r_pre.data.data(), want.data(),
                           want.size() * sizeof(float)));

  // Legacy SZI1 and its wrapped form: same field, so same crop.
  const auto v1 = szi::cuszi_compress_v1(std::span<const float>(f.data),
                                         f.dims, p);
  const auto full1 = szi::cuszi_decompress_f32(v1);
  const auto want1 = crop(full1, f.dims, box);
  const auto r1 = szi::cuszi_decompress_roi_f32(v1, box);
  EXPECT_FALSE(r1.indexed);
  EXPECT_GE(r1.bytes_read, v1.size());  // magic peek + whole-archive read
  ASSERT_EQ(r1.data.size(), want1.size());
  EXPECT_EQ(0, std::memcmp(r1.data.data(), want1.data(),
                           want1.size() * sizeof(float)));
  const auto r1w =
      szi::cuszi_decompress_roi_f32(szi::bitcomp_wrap_archive(v1), box);
  EXPECT_FALSE(r1w.indexed);
  EXPECT_EQ(0, std::memcmp(r1w.data.data(), want1.data(),
                           want1.size() * sizeof(float)));
}

/// Memory, mmap, and pread sources return the identical box; file-backed
/// sources never need the archive in RAM.
TEST(Roi, AllArchiveSourcesAgree) {
  const auto fields =
      szi::datagen::make_dataset("nyx", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const auto bytes = szi::cuszi_compress(std::span<const float>(f.data),
                                         f.dims, {ErrorMode::Rel, 1e-3});
  const fs::path dir = fs::temp_directory_path() /
                       ("szi_roi_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const auto path = (dir / "a.szi").string();
  szi::io::write_bytes(path, bytes);

  const RoiBox box{{30, 40, 50}, {20, 24, 28}};
  const auto rm = szi::cuszi_decompress_roi_f32(bytes, box);
  EXPECT_TRUE(rm.indexed);
  {
    szi::io::MmapSource src(path);
    auto r = szi::cuszi_decompress_roi_f32(src, box);
    EXPECT_TRUE(r.indexed);
    EXPECT_EQ(r.data, rm.data);
    EXPECT_EQ(r.bytes_read, rm.bytes_read);
  }
  {
    szi::io::StreamSource src(path);
    auto r = szi::cuszi_decompress_roi_f32(src, box);
    EXPECT_TRUE(r.indexed);
    EXPECT_EQ(r.data, rm.data);
    EXPECT_EQ(r.bytes_read, rm.bytes_read);
  }
  {
    auto src = szi::io::open_archive(path);
    auto r = szi::cuszi_decompress_roi_f32(*src, box);
    EXPECT_EQ(r.data, rm.data);
  }
  fs::remove_all(dir);
}

/// Degenerate and out-of-range boxes are rejected up front — indexed and
/// fallback paths alike — and baseline compressors report no ROI support.
TEST(Roi, RejectsBadBoxesAndUnsupportedCompressors) {
  const auto fields =
      szi::datagen::make_dataset("miranda", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const CompressParams p{ErrorMode::Rel, 1e-3};
  const auto v2 = szi::cuszi_compress(std::span<const float>(f.data), f.dims, p);
  const auto v1 = szi::cuszi_compress_v1(std::span<const float>(f.data),
                                         f.dims, p);
  for (const auto& box : std::vector<RoiBox>{
           {{0, 0, 0}, {0, 8, 8}},        // empty extent
           {{0, 0, 0}, {129, 8, 8}},      // wider than the field
           {{128, 0, 0}, {1, 1, 1}},      // origin past the edge
           {{120, 0, 0}, {16, 8, 8}},     // spills past the edge
       }) {
    EXPECT_THROW((void)szi::cuszi_decompress_roi_f32(v2, box),
                 std::invalid_argument);
    EXPECT_THROW((void)szi::cuszi_decompress_roi_f32(v1, box),
                 std::invalid_argument);
  }
  // Through the Compressor interface: cuSZ-i serves ROI (wrapped too),
  // baselines throw the not-supported error.
  auto cuszi = szi::make_cuszi();
  const auto r = cuszi->decompress_roi(v2, {{8, 8, 8}, {16, 16, 16}});
  EXPECT_TRUE(r.indexed);
  auto sz3 = szi::baselines::make_compressor("sz3");
  const auto a = sz3->compress(f, p);
  EXPECT_THROW((void)sz3->decompress_roi(a.bytes, {{0, 0, 0}, {8, 8, 8}}),
               std::invalid_argument);
}

/// ROI reads are byte-identical across worker counts: the slab fan-out
/// changes scheduling, never values. (CI sweeps SZI_THREADS over this
/// suite; within one process the pool size is fixed, so this guards the
/// sequential/overlapped boundary via a 1-slab box vs a many-slab box.)
TEST(Roi, ManySlabBoxMatchesSingleSlabUnion) {
  const auto fields =
      szi::datagen::make_dataset("miranda", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const auto bytes = szi::cuszi_compress(std::span<const float>(f.data),
                                         f.dims, {ErrorMode::Rel, 1e-3});
  // One tall box spanning many z-slabs...
  const RoiBox tall{{32, 32, 0}, {32, 32, 96}};
  const auto rt = szi::cuszi_decompress_roi_f32(bytes, tall);
  // ...must equal the concatenation of its single-slab slices.
  const std::size_t slab_z = 8;  // 3D tile depth
  for (std::size_t z0 = 0; z0 < 96; z0 += slab_z) {
    const RoiBox slice{{32, 32, z0}, {32, 32, slab_z}};
    const auto rs = szi::cuszi_decompress_roi_f32(bytes, slice);
    EXPECT_EQ(0, std::memcmp(
                     rs.data.data(),
                     rt.data.data() + z0 * 32 * 32,
                     rs.data.size() * sizeof(float)))
        << "slab at z=" << z0;
  }
}

/// `bytes_read` counts what one call fetched, not what the shared source
/// served meanwhile: four readers of one mmap'd archive, raw and wrapped,
/// each report exactly the single-reader figure on every read.
TEST(Roi, ConcurrentReadersReportTheirOwnBytes) {
  const auto fields =
      szi::datagen::make_dataset("nyx", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const auto raw = szi::cuszi_compress(std::span<const float>(f.data), f.dims,
                                       {ErrorMode::Rel, 1e-3});
  const fs::path dir = fs::temp_directory_path() /
                       ("szi_roi_conc_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const RoiBox box{{30, 40, 50}, {20, 24, 28}};
  for (const auto& bytes : {raw, szi::bitcomp_wrap_archive(raw)}) {
    const auto path = (dir / "a.szi").string();
    szi::io::write_bytes(path, bytes);
    szi::io::MmapSource src(path);
    const auto solo = szi::cuszi_decompress_roi_f32(src, box);
    EXPECT_TRUE(solo.indexed);
    constexpr int kReaders = 4;
    constexpr int kReads = 8;
    std::vector<std::vector<std::size_t>> got(kReaders);
    std::atomic<int> ready{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t)
      readers.emplace_back([&, t] {
        ++ready;
        while (ready.load() < kReaders) std::this_thread::yield();
        for (int i = 0; i < kReads; ++i)
          got[static_cast<std::size_t>(t)].push_back(
              szi::cuszi_decompress_roi_f32(src, box).bytes_read);
      });
    for (auto& th : readers) th.join();
    for (const auto& g : got)
      for (const auto b : g) EXPECT_EQ(b, solo.bytes_read);
  }
  fs::remove_all(dir);
}

// ---- One tile body for every decode ---------------------------------------
//
// Full decode, preview and ROI all run the same box- and level-parameterized
// reconstructor over the same tile body. These shapes are ones no other ROI
// test uses: partial tiles on every axis, a 2D field, and 1D fields along x
// and along z (x and y degenerate under the 3D geometry).

template <typename T>
std::vector<T> smooth(const Dim3& dims) {
  std::vector<T> v(dims.volume());
  for (std::size_t z = 0; z < dims.z; ++z)
    for (std::size_t y = 0; y < dims.y; ++y)
      for (std::size_t x = 0; x < dims.x; ++x) {
        const double fx = static_cast<double>(x);
        const double fy = static_cast<double>(y);
        const double fz = static_cast<double>(z);
        v[szi::dev::linearize(dims, x, y, z)] = static_cast<T>(
            std::sin(0.13 * fx) * std::cos(0.07 * fy) +
            0.5 * std::sin(0.05 * fz) +
            0.01 * std::sin(1.7 * (fx + 3 * fy + 5 * fz)));
      }
  return v;
}

struct F32 {
  using T = float;
  static std::vector<T> full(std::span<const std::byte> b) {
    return szi::cuszi_decompress_f32(b);
  }
  static szi::RoiResultT<T> roi(std::span<const std::byte> b,
                                const RoiBox& box) {
    return szi::cuszi_decompress_roi_f32(b, box);
  }
  static szi::ProgressiveResultT<T> preview(std::span<const std::byte> b,
                                            int level) {
    return szi::cuszi_decompress_progressive_f32(b, level);
  }
};

struct F64 {
  using T = double;
  static std::vector<T> full(std::span<const std::byte> b) {
    return szi::cuszi_decompress_f64(b);
  }
  static szi::RoiResultT<T> roi(std::span<const std::byte> b,
                                const RoiBox& box) {
    return szi::cuszi_decompress_roi_f64(b, box);
  }
  static szi::ProgressiveResultT<T> preview(std::span<const std::byte> b,
                                            int level) {
    return szi::cuszi_decompress_progressive_f64(b, level);
  }
};

/// Boxes at the origin, at interior offsets (crossing tile boundaries where
/// the field has them), at the far corner, and the whole field.
std::vector<RoiBox> boxes_for(const Dim3& d) {
  const auto half = [](std::size_t n) { return (n + 1) / 2; };
  const auto third = [](std::size_t n) { return std::max<std::size_t>(1, n / 3); };
  const auto fifth = [](std::size_t n) { return std::max<std::size_t>(1, n / 5); };
  return {
      {{0, 0, 0}, {half(d.x), half(d.y), half(d.z)}},
      {{d.x / 3, d.y / 3, d.z / 3}, {third(d.x), third(d.y), third(d.z)}},
      {{d.x / 2, d.y / 4, d.z / 5}, {fifth(d.x), half(d.y), half(d.z)}},
      {{d.x - fifth(d.x), d.y - fifth(d.y), d.z - fifth(d.z)},
       {fifth(d.x), fifth(d.y), fifth(d.z)}},
      {{0, 0, 0}, d},
  };
}

template <typename Api>
void expect_one_tile_body(const Dim3& dims) {
  using T = typename Api::T;
  const auto data = smooth<T>(dims);
  const auto raw =
      szi::cuszi_compress(std::span<const T>(data), dims, {ErrorMode::Rel, 1e-3});
  const auto wrapped = szi::bitcomp_wrap_archive(raw);
  const auto full = Api::full(raw);
  ASSERT_EQ(full.size(), dims.volume());
  const std::pair<const char*, const std::vector<std::byte>*> archives[] = {
      {"raw", &raw}, {"wrapped", &wrapped}};
  for (const auto& [name, archive] : archives) {
    const std::span<const std::byte> bytes(*archive);
    for (const auto& box : boxes_for(dims)) {
      const auto want = crop(full, dims, box);
      const auto r = Api::roi(bytes, box);
      EXPECT_TRUE(r.indexed);
      EXPECT_EQ(r.dims, box.ext);
      ASSERT_EQ(r.data.size(), want.size());
      EXPECT_EQ(0, std::memcmp(r.data.data(), want.data(),
                               want.size() * sizeof(T)))
          << name << " box lo=(" << box.lo.x
          << "," << box.lo.y << "," << box.lo.z << ") ext=(" << box.ext.x
          << "," << box.ext.y << "," << box.ext.z << ")";
    }
    const int nlevels = szi::predictor::ginterp_level_count(dims);
    for (int l = 1; l <= nlevels + 1; ++l) {
      const auto p = Api::preview(bytes, l);
      const auto sub =
          szi::predictor::ginterp_subsample(std::span<const T>(full), dims, l);
      EXPECT_EQ(p.level, l);
      EXPECT_EQ(p.dims, szi::predictor::ginterp_preview_dims(dims, l));
      ASSERT_EQ(p.data.size(), sub.size()) << "level " << l;
      EXPECT_EQ(0, std::memcmp(p.data.data(), sub.data(),
                               sub.size() * sizeof(T)))
          << name << " level " << l;
    }
  }
}

class GInterpBox : public ::testing::TestWithParam<Dim3> {};

TEST_P(GInterpBox, RoiAndPreviewMatchFullDecodeF32) {
  expect_one_tile_body<F32>(GetParam());
}

TEST_P(GInterpBox, RoiAndPreviewMatchFullDecodeF64) {
  expect_one_tile_body<F64>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GInterpBox,
    ::testing::Values(Dim3{65, 33, 17}, Dim3{100, 70, 1}, Dim3{1000, 1, 1},
                      Dim3{1, 1, 300}),
    [](const ::testing::TestParamInfo<Dim3>& info) {
      const Dim3& d = info.param;
      return "d" + std::to_string(d.x) + "x" + std::to_string(d.y) + "x" +
             std::to_string(d.z);
    });

}  // namespace
