// Proves the scratch-pooled codec paths reach a zero-allocation steady
// state through the allocation-counting hook: the *_into entry points
// allocate nothing once warm, and the Compressor scratch overloads
// allocate exactly the one exact-sized payload they hand back.
#include <gtest/gtest.h>

#include <vector>

#include "alloc_hook.hpp"
#include "common/rng.hpp"
#include "compression/codec_scratch.hpp"
#include "compression/golden_blobs.hpp"
#include "lossless/zx.hpp"

namespace cqs::compression {
namespace {

using test::count_allocations;

TEST(CodecAllocTest, ZxIntoPathsAreAllocationFreeWhenWarm) {
  const auto& data = golden_fixture("spiky");
  const ByteSpan input = as_bytes_span<double>(data);
  lossless::ZxScratch scratch;
  Bytes compressed;
  Bytes decompressed;
  for (int warm = 0; warm < 3; ++warm) {
    compressed.clear();
    lossless::zx_compress_into(input, {}, scratch, compressed);
    lossless::zx_decompress_into(compressed, input.size(), scratch,
                                 decompressed);
  }
  const std::uint64_t compress_allocs = count_allocations([&] {
    compressed.clear();
    lossless::zx_compress_into(input, {}, scratch, compressed);
  });
  EXPECT_EQ(compress_allocs, 0u);
  const std::uint64_t decompress_allocs = count_allocations([&] {
    lossless::zx_decompress_into(compressed, input.size(), scratch,
                                 decompressed);
  });
  EXPECT_EQ(decompress_allocs, 0u);
  ASSERT_EQ(decompressed.size(), input.size());
}

TEST(CodecAllocTest, ScratchCompressorsReachSteadyState) {
  // Every registry codec is scratch-aware; on every fixture: decompress
  // allocates nothing, compress allocates exactly the returned payload.
  CodecScratch scratch;
  for (const auto& name : compressor_names()) {
    const auto codec = make_compressor(name);
    const ErrorBound bound =
        codec->supports(BoundMode::kPointwiseRelative)
            ? ErrorBound::relative(kGoldenRelativeBound)
            : ErrorBound::lossless();
    for (const char* fixture : {"spiky", "dense", "sparse"}) {
      const auto& data = golden_fixture(fixture);
      std::vector<double> out(data.size());
      Bytes compressed;
      for (int warm = 0; warm < 3; ++warm) {
        compressed = codec->compress(data, bound, scratch);
        codec->decompress(compressed, out, scratch);
      }
      std::uint64_t compress_allocs = 0;
      Bytes payload;
      compress_allocs = count_allocations(
          [&] { payload = codec->compress(data, bound, scratch); });
      EXPECT_LE(compress_allocs, 1u)
          << name << "/" << fixture
          << ": steady-state compress must only allocate the payload";
      EXPECT_FALSE(payload.empty()) << name << "/" << fixture;
      const std::uint64_t decompress_allocs = count_allocations(
          [&] { codec->decompress(payload, out, scratch); });
      EXPECT_EQ(decompress_allocs, 0u) << name << "/" << fixture;
    }
  }
}

TEST(CodecAllocTest, RepeatProbePathAllocatesOnlyThePayload) {
  // Random doubles have no repeated word, so the "zstd" codec stores them
  // raw without running LZ77; the probe table must be warm scratch too.
  Rng rng(5);
  std::vector<double> data(8192);
  for (auto& d : data) d = rng.next_normal();
  const auto codec = make_compressor("zstd");
  CodecScratch scratch;
  for (int warm = 0; warm < 2; ++warm) {
    (void)codec->compress(data, ErrorBound::lossless(), scratch);
  }
  Bytes payload;
  const std::uint64_t allocs = count_allocations([&] {
    payload = codec->compress(data, ErrorBound::lossless(), scratch);
  });
  EXPECT_EQ(allocs, 1u);
  EXPECT_EQ(payload.size(), data.size() * sizeof(double) + 6);  // raw
}

TEST(CodecAllocTest, Lz77ScratchReuseIsConstantCost) {
  // The generation-stamped head table must not be re-zero-filled per call:
  // tokenizing a tiny input with a warm scratch allocates nothing (the
  // 2^18-entry table would otherwise dominate every small block).
  lossless::Lz77Scratch scratch;
  const Bytes tiny(64, std::byte{7});
  Bytes tokens;
  for (int warm = 0; warm < 2; ++warm) {
    tokens.clear();
    lossless::lz77_tokenize(tiny, tokens, {}, scratch);
  }
  const std::uint64_t allocs = count_allocations([&] {
    for (int i = 0; i < 100; ++i) {
      tokens.clear();
      lossless::lz77_tokenize(tiny, tokens, {}, scratch);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(lossless::lz77_detokenize(tokens, tiny.size()), tiny);
}

}  // namespace
}  // namespace cqs::compression
