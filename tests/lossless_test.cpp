// Unit tests for the lossless stack: canonical Huffman, LZ77, the zx
// container (the Zstd stand-in), and the "zstd" codec's repeat probe.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "compression/compressor.hpp"
#include "lossless/huffman.hpp"
#include "lossless/lz77.hpp"
#include "lossless/zx.hpp"

namespace cqs::lossless {
namespace {

Bytes to_bytes(const std::string& s) {
  Bytes b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

TEST(HuffmanTest, LengthsSatisfyKraft) {
  std::vector<std::uint64_t> counts(256, 0);
  counts['a'] = 1000;
  counts['b'] = 500;
  counts['c'] = 100;
  counts['d'] = 1;
  const auto lengths = build_code_lengths(counts);
  double kraft = 0.0;
  for (auto l : lengths) {
    if (l > 0) kraft += std::pow(2.0, -static_cast<double>(l));
  }
  EXPECT_LE(kraft, 1.0 + 1e-12);
  EXPECT_LE(lengths['a'], lengths['d']);
}

TEST(HuffmanTest, SingleSymbolGetsLengthOne) {
  std::vector<std::uint64_t> counts(256, 0);
  counts[42] = 100;
  const auto lengths = build_code_lengths(counts);
  EXPECT_EQ(lengths[42], 1);
}

TEST(HuffmanTest, DepthLimitRespectedOnPathologicalCounts) {
  // Fibonacci-like counts force deep trees without limiting.
  std::vector<std::uint64_t> counts(64, 0);
  std::uint64_t a = 1;
  std::uint64_t b = 1;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = a;
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  const auto lengths = build_code_lengths(counts);
  for (auto l : lengths) EXPECT_LE(l, kMaxCodeLength);
}

TEST(HuffmanTest, EncodeDecodeRoundTrip) {
  std::vector<std::uint64_t> counts(300, 0);
  Rng rng(3);
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 20000; ++i) {
    // Skewed distribution over a >256 alphabet (like SZ quant codes).
    const auto s = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(299, rng.next_below(16) * rng.next_below(20)));
    symbols.push_back(s);
    ++counts[s];
  }
  const auto encoder = HuffmanEncoder::from_counts(counts);
  Bytes buffer;
  encoder.write_table(buffer);
  {
    BitWriter writer(buffer);
    for (auto s : symbols) encoder.encode(writer, s);
  }
  std::size_t offset = 0;
  const auto decoder = HuffmanDecoder::read_table(buffer, offset, 300);
  BitReader reader(ByteSpan(buffer).subspan(offset));
  for (auto s : symbols) {
    ASSERT_EQ(decoder.decode(reader), s);
  }
}

TEST(Lz77Test, RoundTripText) {
  const Bytes input = to_bytes(
      "the quick brown fox jumps over the lazy dog; "
      "the quick brown fox jumps over the lazy dog again and again");
  Bytes tokens;
  lz77_tokenize(input, tokens);
  EXPECT_LT(tokens.size(), input.size());
  const Bytes output = lz77_detokenize(tokens, input.size());
  EXPECT_EQ(output, input);
}

TEST(Lz77Test, RoundTripAllZeros) {
  const Bytes input(1 << 16, std::byte{0});
  Bytes tokens;
  lz77_tokenize(input, tokens);
  EXPECT_LT(tokens.size(), 64u);  // one giant overlapping match
  EXPECT_EQ(lz77_detokenize(tokens, input.size()), input);
}

TEST(Lz77Test, RoundTripIncompressibleRandom) {
  Rng rng(11);
  Bytes input(10000);
  for (auto& b : input) {
    b = static_cast<std::byte>(rng.next_u64() & 0xff);
  }
  Bytes tokens;
  lz77_tokenize(input, tokens);
  EXPECT_EQ(lz77_detokenize(tokens, input.size()), input);
}

TEST(Lz77Test, EmptyInput) {
  Bytes tokens;
  lz77_tokenize({}, tokens);
  EXPECT_EQ(lz77_detokenize(tokens, 0).size(), 0u);
}

TEST(Lz77Test, ShortInputsBelowMinMatch) {
  for (std::size_t n = 1; n < kMinMatch; ++n) {
    Bytes input(n, std::byte{7});
    Bytes tokens;
    lz77_tokenize(input, tokens);
    EXPECT_EQ(lz77_detokenize(tokens, n), input);
  }
}

TEST(Lz77Test, DetokenizeRejectsBadOffset) {
  Bytes tokens;
  put_varint(tokens, 0);   // no literals
  put_varint(tokens, 1);   // match length 4
  put_varint(tokens, 10);  // offset beyond output
  EXPECT_THROW(lz77_detokenize(tokens, 4), std::runtime_error);
}

TEST(ZxTest, RoundTripVariousInputs) {
  Rng rng(23);
  std::vector<Bytes> inputs;
  inputs.push_back({});
  inputs.push_back(to_bytes("a"));
  inputs.push_back(to_bytes(std::string(100000, 'z')));
  Bytes random(50000);
  for (auto& b : random) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  inputs.push_back(random);
  Bytes structured;
  for (int i = 0; i < 10000; ++i) {
    structured.push_back(static_cast<std::byte>(i % 17));
  }
  inputs.push_back(structured);

  for (const auto& input : inputs) {
    const Bytes compressed = zx_compress(input);
    EXPECT_EQ(zx_original_size(compressed), input.size());
    EXPECT_EQ(zx_decompress(compressed), input);
  }
}

TEST(ZxTest, ZerosCompressMassively) {
  const Bytes zeros(1 << 20, std::byte{0});
  const Bytes compressed = zx_compress(zeros);
  EXPECT_LT(compressed.size(), zeros.size() / 1000);
}

TEST(ZxTest, NeverExpandsBeyondHeader) {
  Rng rng(5);
  Bytes random(4096);
  for (auto& b : random) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  const Bytes compressed = zx_compress(random);
  EXPECT_LE(compressed.size(), random.size() + 12);
}

TEST(ZxTest, RejectsCorruptMagic) {
  Bytes bogus = to_bytes("not a container");
  EXPECT_THROW(zx_decompress(bogus), std::runtime_error);
  EXPECT_THROW(zx_original_size(bogus), std::runtime_error);
}

TEST(ZxTest, StateVectorLikeDataRoundTrip) {
  // Doubles with repeated values (amplitudes sharing values, Section 3.4).
  std::vector<double> values(8192);
  Rng rng(31);
  const double palette[4] = {0.0, 0.125, -0.125, 0.7071067811865476};
  for (auto& v : values) v = palette[rng.next_below(4)];
  ByteSpan input = as_bytes_span<double>(values);
  const Bytes compressed = zx_compress(input);
  EXPECT_LT(compressed.size(), input.size() / 4);
  const Bytes output = zx_decompress(compressed);
  ASSERT_EQ(output.size(), input.size());
  EXPECT_EQ(0, std::memcmp(output.data(), input.data(), input.size()));
}

TEST(Lz77Test, DetokenizeRejectsMatchPastExpectedSize) {
  Bytes tokens;
  put_varint(tokens, 1);  // one literal
  tokens.push_back(std::byte{3});
  put_varint(tokens, 5);  // match length 8
  put_varint(tokens, 1);  // offset
  put_varint(tokens, 0);  // no trailing literals
  put_varint(tokens, 0);  // terminator
  EXPECT_EQ(lz77_detokenize(tokens, 9).size(), 9u);
  EXPECT_THROW(lz77_detokenize(tokens, 8), std::runtime_error);
}

/// Byte-at-a-time decoder for well-formed token streams: the reference
/// the memcpy-based match copy is checked against.
Bytes reference_detokenize(ByteSpan tokens) {
  Bytes out;
  std::size_t offset = 0;
  while (true) {
    const std::uint64_t lit_len = get_varint(tokens, offset);
    out.insert(out.end(), tokens.begin() + offset,
               tokens.begin() + offset + lit_len);
    offset += lit_len;
    const std::uint64_t len_code = get_varint(tokens, offset);
    if (len_code == 0) return out;
    const std::uint64_t length = len_code - 1 + kMinMatch;
    const std::uint64_t distance = get_varint(tokens, offset);
    for (std::uint64_t i = 0; i < length; ++i) {
      out.push_back(out[out.size() - distance]);
    }
  }
}

/// Appends one token: `literals`, then a match (length 0 = none).
void put_token(Bytes& tokens, ByteSpan literals, std::uint64_t length,
               std::uint64_t distance) {
  put_varint(tokens, literals.size());
  tokens.insert(tokens.end(), literals.begin(), literals.end());
  if (length == 0) {
    put_varint(tokens, 0);
    return;
  }
  put_varint(tokens, length - kMinMatch + 1);
  put_varint(tokens, distance);
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::byte>(rng.next_u64() & 0xff);
  return b;
}

TEST(Lz77Test, MatchCopyEqualsByteLoopReference) {
  // One match per stream, preceded by exactly `distance` literal bytes,
  // so every match ends exactly at expected_size.
  Rng rng(41);
  std::vector<std::uint64_t> distances;
  for (std::uint64_t d = 1; d <= 64; ++d) distances.push_back(d);
  for (std::uint64_t d : {100, 255, 1000, 4096, 65535}) {
    distances.push_back(d);
  }
  const std::uint64_t lengths[] = {4,    5,    7,     8,         15,
                                   16,   17,   24,    31,        33,
                                   63,   64,   65,    100,       1000,
                                   4097, 9999, 65539, 1u << 17};
  for (std::uint64_t distance : distances) {
    const Bytes literals = random_bytes(rng, distance);
    for (std::uint64_t length : lengths) {
      Bytes tokens;
      put_token(tokens, literals, length, distance);
      put_token(tokens, {}, 0, 0);
      const Bytes expected = reference_detokenize(tokens);
      ASSERT_EQ(expected.size(), distance + length);
      EXPECT_EQ(lz77_detokenize(tokens, expected.size()), expected)
          << "distance " << distance << " length " << length;
    }
  }
}

TEST(Lz77Test, RandomTokenStreamsEqualByteLoopReference) {
  Rng rng(43);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes tokens;
    std::size_t produced = 0;
    const int count = 1 + static_cast<int>(rng.next_below(20));
    for (int t = 0; t < count; ++t) {
      const Bytes literals =
          random_bytes(rng, produced == 0 ? 1 + rng.next_below(8)
                                          : rng.next_below(8));
      produced += literals.size();
      const std::uint64_t distance = 1 + rng.next_below(produced);
      const std::uint64_t length =
          kMinMatch + rng.next_below(rng.next_below(2) ? 16 : 3000);
      put_token(tokens, literals, length, distance);
      produced += length;
    }
    put_token(tokens, {}, 0, 0);  // the last match ends the output
    const Bytes expected = reference_detokenize(tokens);
    ASSERT_EQ(expected.size(), produced);
    EXPECT_EQ(lz77_detokenize(tokens, produced), expected)
        << "trial " << trial;
  }
}

TEST(ZxTest, PeriodicBlocksRoundTrip) {
  // A zero block and blocks with 8-, 16- and 24-byte periods, a whole
  // block and a ragged tail each: one long overlapping match apiece.
  Rng rng(47);
  for (std::size_t size : {std::size_t{1} << 16, (std::size_t{1} << 16) + 5}) {
    for (std::size_t period : {0, 8, 16, 24}) {
      Bytes input(size, std::byte{0});
      if (period != 0) {
        const Bytes pattern = random_bytes(rng, period);
        for (std::size_t i = 0; i < size; ++i) input[i] = pattern[i % period];
      }
      const Bytes compressed = zx_compress(input);
      EXPECT_LT(compressed.size(), 64u) << "period " << period;
      EXPECT_EQ(zx_decompress(compressed), input) << "period " << period;
    }
  }
}

TEST(Lz77Test, TokenizeRejectsInputsOf4GiB) {
  // Chain links are 32-bit positions. A lazily mapped, never touched
  // zero region stands in for the 4 GiB input.
  const std::size_t n = kMaxTokenizeBytes + 1;
  void* region = mmap(nullptr, n, PROT_READ,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (region == MAP_FAILED) GTEST_SKIP() << "cannot reserve 4 GiB";
  Bytes tokens;
  EXPECT_THROW(
      lz77_tokenize(ByteSpan(static_cast<const std::byte*>(region), n),
                    tokens),
      std::length_error);
  EXPECT_TRUE(tokens.empty());
  munmap(region, n);
}

// ---- The "zstd" codec's repeat probe -------------------------------------

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (auto& v : values) v = rng.next_normal();
  return values;
}

Bytes zstd_compress(std::span<const double> values) {
  return compression::make_compressor("zstd")->compress(
      values, compression::ErrorBound::lossless());
}

bool probe_finds_repeat(std::span<const double> values) {
  ZxScratch scratch;
  return zx_has_word_repeat(as_bytes_span(values), scratch);
}

TEST(ZxProbeTest, DistinctWordsAreStoredRawAndRoundTrip) {
  const auto values = random_doubles(4096, 41);
  EXPECT_FALSE(probe_finds_repeat(values));
  const Bytes container = zstd_compress(values);
  ASSERT_GT(container.size(), 2u);
  EXPECT_EQ(container[2], std::byte{0});  // raw mode
  std::vector<double> out(values.size());
  compression::make_compressor("zstd")->decompress(container, out);
  EXPECT_EQ(out, values);
}

TEST(ZxProbeTest, FirstWordRepeatedLastTakesFullPath) {
  auto values = random_doubles(4096, 42);
  values.back() = values.front();
  EXPECT_TRUE(probe_finds_repeat(values));
  EXPECT_EQ(zstd_compress(values), zx_compress(as_bytes_span<double>(values)));
}

TEST(ZxProbeTest, TopSixByteRepeatTakesFullPath) {
  auto values = random_doubles(4096, 43);
  std::uint64_t bits;
  std::memcpy(&bits, &values[7], sizeof bits);
  bits ^= 0x0101;  // low two bytes differ, top six shared
  std::memcpy(&values[3000], &bits, sizeof bits);
  EXPECT_TRUE(probe_finds_repeat(values));
  EXPECT_EQ(zstd_compress(values), zx_compress(as_bytes_span<double>(values)));
}

TEST(ZxProbeTest, ZerosAndEmptyBlockMatchUnprobedZx) {
  const std::vector<double> zeros(4096, 0.0);
  EXPECT_TRUE(probe_finds_repeat(zeros));
  EXPECT_EQ(zstd_compress(zeros), zx_compress(as_bytes_span<double>(zeros)));
  const std::vector<double> empty;
  EXPECT_FALSE(probe_finds_repeat(empty));
  EXPECT_EQ(zstd_compress(empty), zx_compress({}));
}

TEST(ZxProbeTest, BlocksBeyondTheTableOrRaggedTakeFullPath) {
  // More words than the capped table covers: the probe cannot rule out a
  // repeat, so it reports one.
  EXPECT_TRUE(probe_finds_repeat(random_doubles((1u << 15) + 1, 44)));
  EXPECT_FALSE(probe_finds_repeat(random_doubles(1u << 15, 44)));
  Bytes ragged(8 * 64 + 3);
  Rng rng(45);
  for (auto& b : ragged) b = static_cast<std::byte>(rng.next_u64());
  ZxScratch scratch;
  EXPECT_TRUE(zx_has_word_repeat(ragged, scratch));
}

TEST(ZxProbeTest, ReusedScratchForgetsEarlierBlocks) {
  // Generation stamps must hide the previous block's words: the same
  // distinct block probed twice in a row still has no repeat.
  const auto values = random_doubles(2048, 46);
  ZxScratch scratch;
  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_FALSE(zx_has_word_repeat(as_bytes_span<double>(values), scratch));
  }
  const auto smaller = random_doubles(100, 47);
  EXPECT_FALSE(zx_has_word_repeat(as_bytes_span<double>(smaller), scratch));
}

}  // namespace
}  // namespace cqs::lossless
