// Huffman codec tests: codebook properties, chunked round-trips, histogram
// equivalence (§VI-A).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "datagen/rng.hh"
#include "device/arena.hh"
#include "device/thread_pool.hh"
#include "huffman/codebook.hh"
#include "huffman/histogram.hh"
#include "huffman/huffman.hh"

namespace {

using szi::huffman::Codebook;
using szi::huffman::DecodeTable;
using szi::quant::Code;

std::vector<Code> geometric_codes(std::size_t n, double p, std::size_t nbins,
                                  std::uint64_t seed) {
  // Centered near nbins/2 with geometric tails — the shape of G-Interp
  // quant-code streams.
  szi::datagen::Rng rng(seed);
  std::vector<Code> codes(n);
  for (auto& c : codes) {
    int offset = 0;
    while (rng.uniform() > p && offset < static_cast<int>(nbins / 2) - 1)
      ++offset;
    const int sign = rng.uniform() < 0.5 ? -1 : 1;
    c = static_cast<Code>(static_cast<int>(nbins / 2) + sign * offset);
  }
  return codes;
}

TEST(Codebook, KraftInequalityHolds) {
  const auto codes = geometric_codes(50000, 0.4, 1024, 1);
  const auto hist = szi::huffman::histogram(codes, 1024);
  const auto book = Codebook::build(hist);
  long double kraft = 0;
  for (const auto len : book.lengths)
    if (len > 0) kraft += std::pow(2.0L, -static_cast<int>(len));
  EXPECT_LE(kraft, 1.0L + 1e-12L);
  // A full Huffman tree achieves equality.
  EXPECT_GT(kraft, 0.999L);
}

TEST(Codebook, PrefixFree) {
  const auto codes = geometric_codes(20000, 0.5, 256, 2);
  const auto hist = szi::huffman::histogram(codes, 256);
  const auto book = Codebook::build(hist);
  for (std::size_t a = 0; a < book.nbins(); ++a) {
    if (book.lengths[a] == 0) continue;
    for (std::size_t b = 0; b < book.nbins(); ++b) {
      if (a == b || book.lengths[b] == 0) continue;
      if (book.lengths[a] <= book.lengths[b]) {
        const auto prefix =
            book.codes[b] >> (book.lengths[b] - book.lengths[a]);
        EXPECT_FALSE(prefix == book.codes[a] &&
                     book.lengths[a] < book.lengths[b])
            << "code " << a << " prefixes " << b;
      }
    }
  }
}

TEST(Codebook, SingleSymbolGetsOneBit) {
  std::vector<std::uint32_t> hist(16, 0);
  hist[7] = 1000;
  const auto book = Codebook::build(hist);
  EXPECT_EQ(book.lengths[7], 1);
  for (std::size_t s = 0; s < hist.size(); ++s)
    if (s != 7) {
      EXPECT_EQ(book.lengths[s], 0);
    }
}

TEST(Codebook, SkewedDistributionStaysWithinLengthLimit) {
  // Exponentially exploding counts force deep optimal trees; the builder
  // must flatten to <= 32 bits.
  std::vector<std::uint32_t> hist(64);
  std::uint64_t c = 1;
  for (auto& h : hist) {
    h = static_cast<std::uint32_t>(std::min<std::uint64_t>(c, 0xFFFFFFFFu));
    c = c * 2 + 1;
  }
  const auto book = Codebook::build(hist);
  for (const auto len : book.lengths) EXPECT_LE(len, szi::huffman::kMaxCodeLen);
}

TEST(Codebook, ExpectedBitsNearEntropy) {
  const auto codes = geometric_codes(100000, 0.3, 1024, 3);
  const auto hist = szi::huffman::histogram(codes, 1024);
  const auto book = Codebook::build(hist);
  double entropy = 0;
  const double n = static_cast<double>(codes.size());
  for (const auto h : hist)
    if (h > 0) {
      const double p = h / n;
      entropy -= p * std::log2(p);
    }
  const double avg = book.expected_bits(hist);
  EXPECT_GE(avg + 1e-9, entropy);      // Shannon lower bound
  EXPECT_LE(avg, entropy + 1.0);       // Huffman redundancy bound
}

TEST(Histogram, TopkMatchesBaseline) {
  const auto codes = geometric_codes(123457, 0.35, 1024, 4);
  const auto a = szi::huffman::histogram(codes, 1024);
  const auto b = szi::huffman::histogram_topk(codes, 1024, 512, 16);
  EXPECT_EQ(a, b);
}

TEST(Histogram, TopkDegradesToK1) {
  const auto codes = geometric_codes(4096, 0.9, 1024, 5);
  const auto a = szi::huffman::histogram(codes, 1024);
  const auto b = szi::huffman::histogram_topk(codes, 1024, 512, 1);
  EXPECT_EQ(a, b);
}

TEST(Histogram, TopkClampsOversizedK) {
  const auto codes = geometric_codes(4096, 0.5, 1024, 6);
  const auto a = szi::huffman::histogram(codes, 1024);
  const auto b = szi::huffman::histogram_topk(codes, 1024, 512, 10000);
  EXPECT_EQ(a, b);
}

TEST(Huffman, RoundTripCentered) {
  const auto codes = geometric_codes(200001, 0.4, 1024, 7);
  const auto enc = szi::huffman::encode(codes, 1024);
  const auto dec = szi::huffman::decode(enc);
  EXPECT_EQ(codes, dec);
}

TEST(Huffman, RoundTripUniform) {
  szi::datagen::Rng rng(8);
  std::vector<Code> codes(65536);
  for (auto& c : codes) c = static_cast<Code>(rng.next_u64() % 1024);
  const auto enc = szi::huffman::encode(codes, 1024);
  EXPECT_EQ(szi::huffman::decode(enc), codes);
}

TEST(Huffman, RoundTripConstant) {
  std::vector<Code> codes(10000, 512);
  const auto enc = szi::huffman::encode(codes, 1024);
  EXPECT_EQ(szi::huffman::decode(enc), codes);
  // ~1 bit per symbol plus header.
  EXPECT_LT(enc.size(),
            10000 / 8 + szi::huffman::overhead_bytes(1024, 10000) + 16);
}

TEST(Huffman, RoundTripEmpty) {
  std::vector<Code> codes;
  const auto enc = szi::huffman::encode(codes, 1024);
  EXPECT_TRUE(szi::huffman::decode(enc).empty());
}

TEST(Huffman, RoundTripOddChunkBoundaries) {
  for (const std::size_t n : {1u, 4095u, 4096u, 4097u, 8193u}) {
    const auto codes = geometric_codes(n, 0.5, 256, 9 + n);
    const auto enc = szi::huffman::encode(codes, 256);
    EXPECT_EQ(szi::huffman::decode(enc), codes) << "n=" << n;
  }
}

TEST(Huffman, CompressesCenteredBetterThanUniform) {
  const auto centered = geometric_codes(100000, 0.6, 1024, 10);
  szi::datagen::Rng rng(11);
  std::vector<Code> uniform(100000);
  for (auto& c : uniform) c = static_cast<Code>(rng.next_u64() % 1024);
  EXPECT_LT(szi::huffman::encode(centered, 1024).size(),
            szi::huffman::encode(uniform, 1024).size() / 2);
}

TEST(PrebuiltCodebook, CoversEverySymbolAndRoundTrips) {
  const auto book = Codebook::prebuilt(1024, 512);
  for (const auto len : book.lengths) {
    EXPECT_GT(len, 0u);  // data-independent books must encode any symbol
    EXPECT_LE(len, szi::huffman::kMaxCodeLen);
  }
  // Encode a realistic centered stream with the prebuilt book and decode.
  const auto codes = geometric_codes(50000, 0.5, 1024, 21);
  const auto enc = szi::huffman::encode_with_book(codes, book);
  EXPECT_EQ(szi::huffman::decode(enc), codes);
}

TEST(PrebuiltCodebook, CostsLittleOnCenteredStreams) {
  // The §VI-A future-work tradeoff: skipping the host build costs some
  // ratio; on G-Interp-like concentrated codes it should stay small.
  const auto codes = geometric_codes(200000, 0.5, 1024, 22);
  const auto hist = szi::huffman::histogram(codes, 1024);
  const auto tuned = Codebook::build(hist);
  const auto fixed = Codebook::prebuilt(1024, 512);
  const double tuned_bits = tuned.expected_bits(hist);
  const double fixed_bits = fixed.expected_bits(hist);
  EXPECT_GE(fixed_bits, tuned_bits - 1e-9);
  EXPECT_LT(fixed_bits, tuned_bits * 1.6) << "prior should be in the ballpark";
}

TEST(FastDecode, MatchesBitSerialDecoder) {
  // The LUT path must decode exactly the same symbols as the canonical
  // bit-serial decoder, including long-tail codewords that escape the LUT.
  const auto codes = geometric_codes(100000, 0.2, 1024, 31);  // heavy tails
  const auto hist = szi::huffman::histogram(codes, 1024);
  const auto book = Codebook::build(hist);
  const auto enc = szi::huffman::encode_with_book(codes, book);
  EXPECT_EQ(szi::huffman::decode(enc), codes);

  // Direct comparison of both decoders on one raw bitstream.
  std::vector<std::uint8_t> bits;
  {
    szi::lossless::BitWriter bw(bits);
    for (std::size_t i = 0; i < 5000; ++i)
      bw.put(book.codes[codes[i]], book.lengths[codes[i]]);
    bw.align();
  }
  const auto slow_table = szi::huffman::DecodeTable::from(book);
  const auto fast_table = szi::huffman::FastDecodeTable::from(book);
  szi::lossless::BitReader slow_br(bits), fast_br(bits);
  for (std::size_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(slow_table.decode(slow_br), fast_table.decode(fast_br)) << i;
    ASSERT_EQ(slow_br.position(), fast_br.position()) << i;
  }
}

TEST(Huffman, ThrowsOnTruncatedStream) {
  const auto codes = geometric_codes(10000, 0.4, 1024, 12);
  auto enc = szi::huffman::encode(codes, 1024);
  enc.resize(enc.size() / 2);
  // Either the header or the payload check must fire.
  EXPECT_THROW((void)szi::huffman::decode(enc), std::runtime_error);
}

// Worker-slot indexing under nested launches: a histogram invoked from
// inside an outer parallel_for issues a nested launch that its caller
// drains while other workers help, so any thread may run any worker index.
// The slots are indexed by loop index (not thread id), so every private
// histogram must still land in its own slot and the totals must match the
// top-level run exactly.
TEST(Histogram, NestedLaunchMatchesTopLevel) {
  // > kHistogramMinPerWorker elements so multiple worker slots exist.
  const auto codes = geometric_codes(3 << 16, 0.35, 1024, 21);
  const auto reference = szi::huffman::histogram(codes, 1024);

  std::vector<std::vector<std::uint32_t>> nested(4);
  szi::dev::ThreadPool::instance().parallel_for(
      nested.size(),
      [&](std::size_t i) { nested[i] = szi::huffman::histogram(codes, 1024); },
      1);
  for (std::size_t i = 0; i < nested.size(); ++i)
    EXPECT_EQ(nested[i], reference) << "outer launch index " << i;
}

// Test-side copy of the byte-at-a-time bit writer the chunk emitter used
// before the word-wise writer: MSB-first, one byte stored per 8 bits,
// zero-padded to a byte boundary at the end of each chunk.
class ByteBitWriter {
 public:
  explicit ByteBitWriter(std::vector<std::byte>& out) : out_(out) {}

  void put(std::uint64_t bits, unsigned nbits) {
    while (nbits > 0) {
      const unsigned take = nbits < free_ ? nbits : free_;
      cur_ = static_cast<std::uint8_t>(
          cur_ | (((bits >> (nbits - take)) & ((1u << take) - 1))
                  << (free_ - take)));
      free_ -= take;
      nbits -= take;
      if (free_ == 0) flush_byte();
    }
  }

  void align() {
    if (free_ < 8) flush_byte();
  }

 private:
  void flush_byte() {
    out_.push_back(std::byte{cur_});
    cur_ = 0;
    free_ = 8;
  }
  std::vector<std::byte>& out_;
  std::uint8_t cur_ = 0;
  unsigned free_ = 8;
};

template <typename V>
void put_pod(std::vector<std::byte>& out, const V& v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof(V));
}

/// The documented stream layout, framed independently of the library:
/// u32 nbins | u8 lengths[nbins] | u64 n | u32 chunk_size |
/// u64 payload_bytes | u64 chunk_byte_offset[n_chunks] | payload.
std::vector<std::byte> reference_stream(const std::vector<Code>& codes,
                                        const Codebook& book,
                                        std::size_t chunk) {
  std::vector<std::byte> payload;
  std::vector<std::uint64_t> offsets;
  for (std::size_t begin = 0; begin < codes.size(); begin += chunk) {
    offsets.push_back(payload.size());
    ByteBitWriter bw(payload);
    for (std::size_t i = begin; i < std::min(begin + chunk, codes.size()); ++i)
      bw.put(book.codes[codes[i]], book.lengths[codes[i]]);
    bw.align();
  }
  std::vector<std::byte> out;
  put_pod(out, static_cast<std::uint32_t>(book.nbins()));
  for (const auto l : book.lengths) put_pod(out, l);
  put_pod(out, static_cast<std::uint64_t>(codes.size()));
  put_pod(out, static_cast<std::uint32_t>(chunk));
  put_pod(out, static_cast<std::uint64_t>(payload.size()));
  for (const auto o : offsets) put_pod(out, o);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// A random complete codebook over `nbins` symbols that holds a 1-bit and a
/// 32-bit code: start from the chain 1, 2, ..., 31, 32, 32 (Kraft sum 1),
/// split random leaves shorter than 32 bits (each split keeps the sum at 1),
/// and scatter the lengths over random symbols.
Codebook random_extreme_book(std::size_t nbins, std::uint64_t seed) {
  szi::datagen::Rng rng(seed);
  std::vector<std::uint8_t> leaves;
  for (unsigned l = 1; l <= szi::huffman::kMaxCodeLen; ++l)
    leaves.push_back(static_cast<std::uint8_t>(l));
  leaves.push_back(static_cast<std::uint8_t>(szi::huffman::kMaxCodeLen));
  const std::size_t target = 40 + rng.next_u64() % 200;
  while (leaves.size() < target) {
    // Leaf 0 is the 1-bit code; leaves of 32 bits cannot split.
    const std::size_t k = 1 + rng.next_u64() % (leaves.size() - 1);
    if (leaves[k] >= szi::huffman::kMaxCodeLen) continue;
    ++leaves[k];
    leaves.push_back(leaves[k]);
  }
  std::vector<std::size_t> symbols(nbins);
  for (std::size_t i = 0; i < nbins; ++i) symbols[i] = i;
  for (std::size_t i = nbins - 1; i > 0; --i)
    std::swap(symbols[i], symbols[rng.next_u64() % (i + 1)]);
  std::vector<std::uint8_t> lengths(nbins, 0);
  for (std::size_t i = 0; i < leaves.size(); ++i)
    lengths[symbols[i]] = leaves[i];
  return Codebook::from_lengths(std::move(lengths));
}

// The word-wise chunk emitter must reproduce the byte-at-a-time writer bit
// for bit: codebooks spanning 1- to 32-bit codes, symbols drawn uniformly
// over the used codes (so long codes dominate), and stream lengths around
// every chunk boundary, including empty streams and one-symbol chunks.
TEST(Huffman, WordWriterMatchesByteWriter) {
  constexpr std::size_t kBins = 1024;
  std::uint64_t seed = 1;
  for (const std::size_t c : {std::size_t{1}, std::size_t{7}, std::size_t{4096}})
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, c - 1, c,
                                c + 1, std::size_t{50000}}) {
      const auto book = random_extreme_book(kBins, ++seed);
      std::vector<Code> used;
      for (std::size_t s = 0; s < kBins; ++s)
        if (book.lengths[s] != 0) used.push_back(static_cast<Code>(s));
      std::vector<Code> codes(n);
      szi::datagen::Rng rng(seed * 7919);
      for (auto& code : codes) code = used[rng.next_u64() % used.size()];
      // Make sure both extremes are on the wire whenever there is room.
      for (std::size_t s = 0; s < kBins && n >= 2; ++s) {
        if (book.lengths[s] == 1) codes[0] = static_cast<Code>(s);
        if (book.lengths[s] == szi::huffman::kMaxCodeLen)
          codes[n - 1] = static_cast<Code>(s);
      }

      const auto got = szi::huffman::encode_with_book(codes, book, c);
      ASSERT_EQ(got, reference_stream(codes, book, c))
          << "chunk " << c << ", n " << n;
      EXPECT_EQ(szi::huffman::decode(got), codes)
          << "chunk " << c << ", n " << n;
    }
}

// build_level_books is just Codebook::build per histogram — including the
// all-zero histogram, whose empty book must still frame a decodable (empty)
// stream.
TEST(Huffman, LevelBooksMatchPerHistogramBuilds) {
  std::vector<std::vector<std::uint32_t>> hists;
  hists.push_back(szi::huffman::histogram(geometric_codes(4096, 0.5, 512, 1),
                                          512));
  hists.push_back(szi::huffman::histogram(geometric_codes(100, 0.2, 512, 2),
                                          512));
  hists.emplace_back(512, 0);  // empty level

  const auto books = szi::huffman::build_level_books(hists);
  ASSERT_EQ(books.size(), hists.size());
  for (std::size_t i = 0; i < hists.size(); ++i) {
    const auto ref = Codebook::build(hists[i]);
    EXPECT_EQ(books[i].codes, ref.codes) << "book " << i;
    EXPECT_EQ(books[i].lengths, ref.lengths) << "book " << i;
  }

  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto empty = szi::huffman::encode_with_book_serial(
      {}, books.back(), szi::huffman::kDefaultChunk, ws);
  const std::vector<std::byte> stream(empty.begin(), empty.end());
  EXPECT_TRUE(szi::huffman::decode(stream).empty());
}

}  // namespace
