// Failure-injection tests: every codec and container parser must reject
// truncated or obviously corrupted inputs with an exception — never crash,
// hang, or silently return the wrong element count. (Bit-flip corruption
// inside entropy-coded payloads may legitimately decode to garbage values;
// these tests only demand memory-safe, exception-or-success behaviour.)
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "alloc_hook.hpp"
#include "common/bits.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "compression/codec_scratch.hpp"
#include "compression/compressor.hpp"
#include "lossless/huffman.hpp"
#include "lossless/zx.hpp"
#include "runtime/checkpoint.hpp"
#include "test_util.hpp"

namespace cqs {
namespace {

std::vector<double> test_data() {
  Rng rng(77);
  std::vector<double> data(2048);
  for (auto& d : data) d = rng.next_normal();
  return data;
}

compression::ErrorBound bound_for(const compression::Compressor& codec) {
  return codec.supports(compression::BoundMode::kPointwiseRelative)
             ? compression::ErrorBound::relative(1e-3)
             : compression::ErrorBound::lossless();
}

class CodecCorruptionTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(CodecCorruptionTest, TruncationAlwaysThrows) {
  const auto codec = compression::make_compressor(GetParam());
  const auto data = test_data();
  const Bytes compressed = codec->compress(data, bound_for(*codec));
  std::vector<double> out(data.size());
  // Cut the container at a spread of points, including pathological ones.
  for (std::size_t keep :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        compressed.size() / 4, compressed.size() / 2,
        compressed.size() - 1}) {
    const ByteSpan cut(compressed.data(), keep);
    EXPECT_THROW(codec->decompress(cut, out), std::exception)
        << GetParam() << " keep=" << keep;
  }
}

TEST_P(CodecCorruptionTest, EmptyInputThrows) {
  const auto codec = compression::make_compressor(GetParam());
  std::vector<double> out(16);
  EXPECT_THROW(codec->decompress({}, out), std::exception);
  EXPECT_THROW(codec->element_count({}), std::exception);
}

TEST_P(CodecCorruptionTest, WrongMagicThrows) {
  const auto codec = compression::make_compressor(GetParam());
  Bytes bogus(64, std::byte{0x5a});
  std::vector<double> out(16);
  EXPECT_THROW(codec->decompress(bogus, out), std::exception);
}

TEST_P(CodecCorruptionTest, HeaderByteFlipsAreSafe) {
  // Flipping bytes in the header region must either throw or decode into
  // the provided buffer — never crash. (Payload flips can decode to
  // garbage values; that is acceptable for a compression container
  // without checksums, as in the paper's pipeline.)
  const auto codec = compression::make_compressor(GetParam());
  const auto data = test_data();
  const Bytes original = codec->compress(data, bound_for(*codec));
  for (std::size_t pos = 0; pos < std::min<std::size_t>(8, original.size());
       ++pos) {
    for (std::uint8_t flip : {0x01, 0x80, 0xff}) {
      Bytes corrupted = original;
      corrupted[pos] ^= static_cast<std::byte>(flip);
      std::vector<double> out(data.size());
      try {
        codec->decompress(corrupted, out);
      } catch (const std::exception&) {
        // Expected for most header corruptions.
      }
    }
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecCorruptionTest,
                         ::testing::ValuesIn(compression::compressor_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(ZxCorruptionTest, ModeByteOutOfRange) {
  Bytes container;
  container.push_back(std::byte{'Z'});
  container.push_back(std::byte{'X'});
  container.push_back(std::byte{7});  // unknown mode
  container.push_back(std::byte{0});  // size varint 0
  EXPECT_THROW(lossless::zx_decompress(container), std::runtime_error);
}

TEST(ZxCorruptionTest, RawModeSizeMismatch) {
  Bytes container;
  container.push_back(std::byte{'Z'});
  container.push_back(std::byte{'X'});
  container.push_back(std::byte{0});   // raw mode
  container.push_back(std::byte{10});  // claims 10 bytes
  container.push_back(std::byte{1});   // provides 1
  EXPECT_THROW(lossless::zx_decompress(container), std::runtime_error);
}

// Hand-built zx containers whose lengths or counts claim 2^40 bytes: each
// must fail with std::runtime_error before anything near that size is
// allocated.
constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
constexpr std::size_t kBlockBytes = 8192;
constexpr std::size_t kSaneAllocation = std::size_t{1} << 20;

Bytes zx_header(std::uint8_t mode, std::uint64_t original_size) {
  Bytes c{std::byte{'Z'}, std::byte{'X'}, std::byte{mode}};
  put_varint(c, original_size);
  return c;
}

void expect_bounded_failure(ByteSpan container) {
  const test::AllocationStats stats = test::measure_allocations([&] {
    EXPECT_THROW(lossless::zx_decompress(container), std::runtime_error);
  });
  EXPECT_LT(stats.largest, kSaneAllocation);
}

TEST(ZxCorruptionTest, HugeHeaderSizeRejectedByZstdCodec) {
  const auto codec = compression::make_compressor("zstd");
  compression::CodecScratch scratch;
  std::vector<double> out(kBlockBytes / sizeof(double));
  for (std::uint8_t mode : {0, 2, 3}) {
    Bytes container = zx_header(mode, kHuge);
    put_varint(container, 0);  // a token stream that would end at once
    put_varint(container, 0);
    const test::AllocationStats stats = test::measure_allocations([&] {
      EXPECT_THROW(codec->decompress(container, out, scratch),
                   std::runtime_error)
          << "mode " << int{mode};
    });
    EXPECT_LT(stats.largest, kSaneAllocation) << "mode " << int{mode};
  }
}

TEST(ZxCorruptionTest, HugeLiteralLengthRejected) {
  Bytes container = zx_header(2, kBlockBytes);
  put_varint(container, kHuge);  // literal run
  container.resize(container.size() + 64, std::byte{1});
  expect_bounded_failure(container);
}

TEST(ZxCorruptionTest, HugeMatchLengthRejected) {
  Bytes container = zx_header(2, kBlockBytes);
  put_varint(container, 1);  // one literal byte
  container.push_back(std::byte{9});
  put_varint(container, kHuge);  // match length code
  put_varint(container, 1);      // offset
  put_varint(container, 0);
  expect_bounded_failure(container);
}

TEST(ZxCorruptionTest, HugeHuffmanTokenCountRejected) {
  std::vector<std::uint64_t> counts(256, 0);
  counts[0] = 3;
  counts[1] = 1;
  const auto encoder = lossless::HuffmanEncoder::from_counts(counts);
  for (std::uint64_t original : {std::uint64_t{kBlockBytes}, kHuge}) {
    Bytes container = zx_header(3, original);
    encoder.write_table(container);
    put_varint(container, kHuge - 1);  // token count
    container.resize(container.size() + 64, std::byte{0x5a});
    expect_bounded_failure(container);
  }
}

// Relative-mode sz containers around hand-built inner streams: the side
// channel masks and every count are untrusted, so a mask whose length is
// not the element count, or a count larger than the bytes left, must fail
// with std::runtime_error before anything is sized by it.
constexpr std::uint64_t kSzCount = 64;
constexpr std::uint32_t kSzBins = 256;

/// Outer sz header (relative flag) around `inner` compressed by zx.
Bytes sz_container(const Bytes& inner) {
  Bytes c{std::byte{'S'}, std::byte{'Z'}, std::byte{2}};
  put_varint(c, kSzCount);
  put_varint(c, kSzBins);
  put_scalar(c, 0.01);
  lossless::ZxScratch zx;
  lossless::zx_compress_into(inner, {}, zx, c);
  return c;
}

/// The inner stream's code section: a two-symbol Huffman table,
/// `code_count` as the stored count, kSzCount one-bit codes, and
/// `outlier_count` as the stored outlier count with no outliers after it.
Bytes sz_codes(std::uint64_t code_count, std::uint64_t outlier_count) {
  std::vector<std::uint64_t> counts(kSzBins, 0);
  counts[128] = 3;
  counts[129] = 1;
  const auto encoder = lossless::HuffmanEncoder::from_counts(counts);
  Bytes inner;
  encoder.write_table(inner);
  put_varint(inner, code_count);
  {
    BitWriter writer(inner);
    for (std::uint64_t i = 0; i < kSzCount; ++i) encoder.encode(writer, 128);
  }
  put_varint(inner, outlier_count);
  return inner;
}

void expect_bounded_sz_failure(const Bytes& inner) {
  const auto codec = compression::make_compressor("sz");
  const Bytes container = sz_container(inner);
  compression::CodecScratch scratch;
  std::vector<double> out(kSzCount);
  const test::AllocationStats stats = test::measure_allocations([&] {
    EXPECT_THROW(codec->decompress(container, out, scratch),
                 std::runtime_error);
  });
  EXPECT_LT(stats.largest, kSaneAllocation);
}

TEST(SzCorruptionTest, EmptyMaskRejected) {
  Bytes inner = sz_codes(kSzCount, 0);
  put_varint(inner, 0);  // sign mask of no elements
  put_varint(inner, 0);  // special mask of no elements
  put_varint(inner, 0);  // no special values
  expect_bounded_sz_failure(inner);
}

TEST(SzCorruptionTest, HugeMaskLengthRejected) {
  Bytes inner = sz_codes(kSzCount, 0);
  put_varint(inner, kHuge);  // sign mask
  inner.resize(inner.size() + 64, std::byte{0});
  expect_bounded_sz_failure(inner);
}

TEST(SzCorruptionTest, HugeCodeCountRejected) {
  Bytes inner = sz_codes(kHuge, 0);
  inner.resize(inner.size() + 64, std::byte{0});
  expect_bounded_sz_failure(inner);
}

TEST(SzCorruptionTest, HugeOutlierCountRejected) {
  Bytes inner = sz_codes(kSzCount, kHuge);
  inner.resize(inner.size() + 64, std::byte{0});
  expect_bounded_sz_failure(inner);
}

TEST(SzCorruptionTest, HugeSpecialCountRejected) {
  Bytes inner = sz_codes(kSzCount, 0);
  const std::vector<bool> mask(kSzCount, false);
  write_bitmask(inner, mask);  // signs
  write_bitmask(inner, mask);  // no special values
  put_varint(inner, kHuge);    // special value count
  inner.resize(inner.size() + 64, std::byte{0});
  expect_bounded_sz_failure(inner);
}

// Each lossy codec's inner zx stream claims 2^40 bytes, far more than an
// inner stream of kSzCount elements can hold: the codec's per-element
// bound must reject it before zx sizes anything by it.
Bytes huge_inner_stream() {
  Bytes inner = zx_header(2, kHuge);
  put_varint(inner, 0);  // a token stream that would end at once
  put_varint(inner, 0);
  return inner;
}

void expect_bounded_codec_failure(const std::string& codec_name,
                                  Bytes container) {
  const Bytes inner = huge_inner_stream();
  container.insert(container.end(), inner.begin(), inner.end());
  const auto codec = compression::make_compressor(codec_name);
  compression::CodecScratch scratch;
  std::vector<double> out(kSzCount);
  const test::AllocationStats stats = test::measure_allocations([&] {
    EXPECT_THROW(codec->decompress(container, out, scratch),
                 std::runtime_error)
        << codec_name;
  });
  EXPECT_LT(stats.largest, kSaneAllocation) << codec_name;
}

TEST(SzCorruptionTest, HugeInnerStreamSizeRejected) {
  Bytes container{std::byte{'S'}, std::byte{'Z'}, std::byte{2}};
  put_varint(container, kSzCount);
  put_varint(container, kSzBins);
  put_scalar(container, 0.01);
  expect_bounded_codec_failure("sz", std::move(container));
}

TEST(FpzipCorruptionTest, HugeInnerStreamSizeRejected) {
  Bytes container{std::byte{'F'}, std::byte{'P'}, std::byte{20}};
  put_varint(container, kSzCount);
  expect_bounded_codec_failure("fpzip", std::move(container));
}

TEST(QzcCorruptionTest, HugeInnerStreamSizeRejected) {
  Bytes container{std::byte{'Q'}, std::byte{'Z'}, std::byte{0},
                  std::byte{20}};
  put_varint(container, kSzCount);
  expect_bounded_codec_failure("qzc", std::move(container));
}

/// A real relative-mode zfp container of kSzCount elements cut after its
/// log-magnitude blob, where the zx side channel starts.
Bytes zfp_prefix_before_sides() {
  const auto codec = compression::make_compressor("zfp");
  const std::vector<double> data(kSzCount, 0.5);
  const Bytes original =
      codec->compress(data, compression::ErrorBound::relative(1e-3));
  std::size_t offset = 3;
  get_varint(original, offset);  // element count
  const std::uint64_t inner_size = get_varint(original, offset);
  return Bytes(original.begin(),
               original.begin() +
                   static_cast<std::ptrdiff_t>(offset + inner_size));
}

TEST(ZfpCorruptionTest, HugeInnerStreamSizeRejected) {
  expect_bounded_codec_failure("zfp", zfp_prefix_before_sides());
}

TEST(ZfpCorruptionTest, EmptyMaskRejected) {
  // zfp's relative mode shares the side-channel format: keep a real
  // container's log-magnitude blob and replace its side channel.
  const auto codec = compression::make_compressor("zfp");
  std::vector<double> data(kSzCount, 0.5);
  Bytes container = zfp_prefix_before_sides();
  Bytes sides;
  put_varint(sides, 0);  // sign mask of no elements
  put_varint(sides, 0);  // special mask of no elements
  put_varint(sides, 0);  // no special values
  lossless::ZxScratch zx;
  lossless::zx_compress_into(sides, {}, zx, container);

  compression::CodecScratch scratch;
  EXPECT_THROW(codec->decompress(container, data, scratch),
               std::runtime_error);
}

using CheckpointCorruptionTest = test::TempDirFixture;

TEST_F(CheckpointCorruptionTest, TruncatedFilesThrow) {
  // Build a valid checkpoint in memory via the API, then truncate on disk.
  const std::string path = this->path("corrupt_ckpt.bin");
  runtime::CheckpointHeader header;
  header.num_qubits = 8;
  header.num_ranks = 1;
  header.blocks_per_rank = 2;
  header.codec_name = "qzc";
  std::vector<runtime::BlockStore> ranks;
  ranks.emplace_back(2);
  ranks[0].set_block(0, Bytes(100, std::byte{1}), {0});
  ranks[0].set_block(1, Bytes(100, std::byte{2}), {1});
  runtime::save_checkpoint(path, header, ranks);

  // Truncate progressively (strictly decreasing: growing a truncated file
  // back would zero-fill, which parses as an empty-but-valid checkpoint).
  for (long keep : {150L, 60L, 20L, 8L}) {
    std::filesystem::resize_file(path, keep);
    EXPECT_THROW(runtime::load_checkpoint(path), std::exception)
        << "keep=" << keep;
  }
}

TEST_F(CheckpointCorruptionTest, HugeBlockSizeVarintThrows) {
  // A corrupt block-size varint near UINT64_MAX used to wrap the
  // truncation check `offset + block_size > buffer.size()` and drive a
  // huge out-of-bounds read; the bound must reject it cleanly instead.
  Bytes image;
  const char magic[8] = {'C', 'Q', 'S', 'C', 'K', 'P', 'T', '5'};
  image.insert(image.end(), reinterpret_cast<const std::byte*>(magic),
               reinterpret_cast<const std::byte*>(magic) + 8);
  put_varint(image, 1);  // num_qubits
  put_varint(image, 1);  // num_ranks
  put_varint(image, 1);  // blocks_per_rank
  put_varint(image, 0);  // ladder_level
  put_varint(image, 0);  // next_gate_index
  put_scalar(image, 1.0);  // fidelity_bound
  put_varint(image, 0);  // lossy_passes
  put_varint(image, 3);  // codec name
  for (char ch : {'q', 'z', 'c'}) {
    image.push_back(static_cast<std::byte>(ch));
  }
  put_varint(image, 0);  // qubit map: identity
  put_varint(image, 1);  // rank count
  put_varint(image, 1);  // block count
  image.push_back(std::byte{0});  // meta.level
  image.push_back(std::byte{0});  // meta.codec
  image.push_back(std::byte{0});  // tier: resident
  put_varint(image, std::numeric_limits<std::uint64_t>::max());
  // A few trailing bytes keep offset < size, so only the wrapping bound
  // (not an end-of-buffer varint error) could let the read through.
  image.push_back(std::byte{0});
  image.push_back(std::byte{0});

  const std::string path = this->path("huge_block.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  }
  EXPECT_THROW(runtime::load_checkpoint(path), std::runtime_error);
}

}  // namespace
}  // namespace cqs
