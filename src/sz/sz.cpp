#include "sz/sz.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/bits.hpp"
#include "compression/codec_scratch.hpp"
#include "lossless/huffman.hpp"
#include "lossless/zx.hpp"
#include "sz/fast_log.hpp"

namespace cqs::sz {
namespace {

constexpr std::byte kMagic0{'S'};
constexpr std::byte kMagic1{'Z'};
constexpr std::uint8_t kFlagSplit = 1;
constexpr std::uint8_t kFlagRelative = 2;

/// At most two prediction chains exist (complex-split mode); a fixed
/// array keeps quantize/dequantize allocation-free.
constexpr int kMaxChains = 2;

/// Quantization code 0 is reserved for unpredictable (outlier) points.
/// Lorenzo prediction + linear-scaling quantization over `values`.
/// `chains` = 1 (Solution A) or 2 (Solution B: even/odd interleaved).
/// `quantum` is the bin width (2 * error bound). Reconstruction happens
/// inline so the predictor sees decompressed values, exactly as the
/// decompressor will. Writes one code per element into `codes` and the
/// raw value of every code-0 element into `outliers` (both reused).
void quantize(std::span<const double> values, double quantum,
              std::uint32_t bins, int chains,
              std::vector<std::uint32_t>& codes,
              std::vector<double>& outliers) {
  codes.resize(values.size());
  outliers.clear();
  const auto half_bins = static_cast<std::int64_t>(bins / 2);
  std::array<double, kMaxChains> prev{};
  for (std::size_t i = 0; i < values.size(); ++i) {
    double& pred = prev[i % chains];
    const double diff = values[i] - pred;
    const double scaled = diff / quantum;
    bool predictable = std::abs(scaled) < static_cast<double>(half_bins) - 1;
    if (predictable) {
      const auto q = static_cast<std::int64_t>(std::llround(scaled));
      const double recon = pred + static_cast<double>(q) * quantum;
      // Guard against floating-point rounding at bin edges.
      if (std::abs(recon - values[i]) <= quantum * 0.5 + 1e-300) {
        codes[i] = static_cast<std::uint32_t>(q + half_bins);
        pred = recon;
        continue;
      }
    }
    codes[i] = 0;
    outliers.push_back(values[i]);
    pred = values[i];
  }
}

void dequantize(std::span<const std::uint32_t> codes,
                std::span<const double> outliers, double quantum,
                std::uint32_t bins, int chains, std::span<double> out) {
  const auto half_bins = static_cast<std::int64_t>(bins / 2);
  std::array<double, kMaxChains> prev{};
  std::size_t outlier_pos = 0;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    double& pred = prev[i % chains];
    if (codes[i] == 0) {
      if (outlier_pos >= outliers.size()) {
        throw std::runtime_error("sz: outlier stream truncated");
      }
      pred = outliers[outlier_pos++];
    } else {
      const auto q = static_cast<std::int64_t>(codes[i]) - half_bins;
      pred += static_cast<double>(q) * quantum;
    }
    out[i] = pred;
  }
}

/// Encodes the code stream with Huffman and appends sections to `inner`.
void write_codes(Bytes& inner, std::span<const std::uint32_t> codes,
                 std::span<const double> outliers, std::uint32_t bins,
                 compression::CodecScratch& scratch) {
  scratch.counts.assign(bins, 0);
  for (auto c : codes) ++scratch.counts[c];
  scratch.huff_encoder.build(scratch.counts);
  scratch.huff_encoder.write_table(inner);
  put_varint(inner, codes.size());
  {
    BitWriter writer(inner);
    for (auto c : codes) scratch.huff_encoder.encode(writer, c);
  }
  put_varint(inner, outliers.size());
  for (double v : outliers) put_scalar(inner, v);
}

/// Reads the sections written by write_codes into the scratch vectors.
/// Both counts are untrusted and checked before anything is sized by them:
/// the code count must equal `count` and fit in the bits left (every
/// Huffman code is at least one bit long), and the outlier count must fit
/// in the bytes left.
void read_codes(ByteSpan inner, std::size_t& offset, std::uint32_t bins,
                std::uint64_t count, compression::CodecScratch& scratch) {
  scratch.huff_decoder.parse_table(inner, offset, bins);
  const std::uint64_t code_count = get_varint(inner, offset);
  if (code_count != count) {
    throw std::runtime_error("sz: code count mismatch");
  }
  if (code_count / 8 + (code_count % 8 != 0 ? 1 : 0) >
      inner.size() - offset) {
    throw std::runtime_error("sz: code stream truncated");
  }
  auto& codes = scratch.quant_codes;
  codes.resize(code_count);
  {
    BitReader reader(inner.subspan(offset));
    for (std::uint64_t i = 0; i < code_count; ++i) {
      codes[i] = scratch.huff_decoder.decode(reader);
    }
    offset += (reader.position() + 7) / 8;
  }
  const std::uint64_t outlier_count = get_varint(inner, offset);
  if (outlier_count > (inner.size() - offset) / sizeof(double)) {
    throw std::runtime_error("sz: outlier stream truncated");
  }
  auto& outliers = scratch.outliers;
  outliers.resize(outlier_count);
  for (std::uint64_t i = 0; i < outlier_count; ++i) {
    outliers[i] = get_scalar<double>(inner, offset);
  }
}

}  // namespace

Bytes SzCodec::compress(std::span<const double> data,
                        const compression::ErrorBound& bound) const {
  compression::CodecScratch scratch;
  return compress(data, bound, scratch);
}

void SzCodec::decompress(ByteSpan compressed, std::span<double> out) const {
  compression::CodecScratch scratch;
  decompress(compressed, out, scratch);
}

Bytes SzCodec::compress(std::span<const double> data,
                        const compression::ErrorBound& bound,
                        compression::CodecScratch& scratch) const {
  if (!supports(bound.mode) || !(bound.value > 0.0)) {
    throw std::invalid_argument("sz: unsupported or non-positive bound");
  }
  const bool relative =
      bound.mode == compression::BoundMode::kPointwiseRelative;
  const int chains = config_.complex_split ? 2 : 1;

  Bytes& inner = scratch.inner;
  inner.clear();
  double quantum;
  if (!relative) {
    quantum = 2.0 * bound.value;
    quantize(data, quantum, config_.max_bins, chains, scratch.quant_codes,
             scratch.outliers);
    write_codes(inner, scratch.quant_codes, scratch.outliers,
                config_.max_bins, scratch);
  } else {
    // Log-preprocessing: compress log2|d| under an absolute bound chosen so
    // that 2^|err| <= 1 + eps, with sign and exact-zero side channels.
    // Nonfinite values and exact zeros bypass the transform via the mask.
    // With the table-lookup transform the bound shrinks by the lookup's
    // worst-case error so the end-to-end relative bound still holds.
    const double log_bound =
        std::log2(1.0 + bound.value) -
        (config_.fast_log ? kFastLog2MaxError : 0.0);
    quantum = 2.0 * log_bound;
    auto& logs = scratch.values;
    logs.clear();
    logs.reserve(data.size());
    auto& negative = scratch.mask_a;
    auto& special = scratch.mask_b;  // zero or nonfinite
    negative.assign(data.size(), false);
    special.assign(data.size(), false);
    Bytes& special_values = scratch.special_bytes;
    special_values.clear();
    for (std::size_t i = 0; i < data.size(); ++i) {
      const double d = data[i];
      negative[i] = std::signbit(d);
      if (d == 0.0 || !std::isfinite(d)) {
        special[i] = true;
        put_scalar(special_values, d);
        // Keep prediction chains aligned: substitute a neutral log value.
        logs.push_back(0.0);
      } else {
        logs.push_back(config_.fast_log ? fast_log2_abs(d)
                                        : std::log2(std::abs(d)));
      }
    }
    quantize(logs, quantum, config_.max_bins, chains, scratch.quant_codes,
             scratch.outliers);
    write_codes(inner, scratch.quant_codes, scratch.outliers,
                config_.max_bins, scratch);
    write_bitmask(inner, negative);
    write_bitmask(inner, special);
    put_varint(inner, special_values.size() / sizeof(double));
    inner.insert(inner.end(), special_values.begin(), special_values.end());
  }

  Bytes& out = scratch.packed;
  out.clear();
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  std::uint8_t flags = 0;
  if (config_.complex_split) flags |= kFlagSplit;
  if (relative) flags |= kFlagRelative;
  out.push_back(static_cast<std::byte>(flags));
  put_varint(out, data.size());
  put_varint(out, config_.max_bins);
  put_scalar(out, quantum);
  lossless::zx_compress_into(inner, {}, scratch.zx, out);
  return Bytes(out.begin(), out.end());
}

void SzCodec::decompress(ByteSpan compressed, std::span<double> out,
                         compression::CodecScratch& scratch) const {
  if (compressed.size() < 3 || compressed[0] != kMagic0 ||
      compressed[1] != kMagic1) {
    throw std::runtime_error("sz: bad magic");
  }
  const auto flags = static_cast<std::uint8_t>(compressed[2]);
  const bool relative = (flags & kFlagRelative) != 0;
  const int chains = (flags & kFlagSplit) != 0 ? 2 : 1;
  std::size_t offset = 3;
  const std::uint64_t count = get_varint(compressed, offset);
  const auto bins =
      static_cast<std::uint32_t>(get_varint(compressed, offset));
  const auto quantum = get_scalar<double>(compressed, offset);
  if (out.size() != count) {
    throw std::runtime_error("sz: output size mismatch");
  }

  // The inner stream's size is untrusted too. Bound it by the most that
  // `count` elements can emit before zx sizes its output by it: a Huffman
  // table of at most 2^16 four-byte entries, then at most 20 bytes per
  // element (a 3-byte code, an 8-byte outlier, two mask bits and an 8-byte
  // special value).
  const ByteSpan packed = compressed.subspan(offset);
  if (lossless::zx_original_size(packed) >
      20 * count + (std::uint64_t{1} << 19)) {
    throw std::runtime_error("sz: inner stream larger than its elements");
  }
  Bytes& inner = scratch.inner;
  lossless::zx_decompress_into(packed, scratch.zx, inner);
  std::size_t pos = 0;
  read_codes(inner, pos, bins, count, scratch);

  if (!relative) {
    dequantize(scratch.quant_codes, scratch.outliers, quantum, bins, chains,
               out);
    return;
  }
  auto& logs = scratch.values;
  logs.resize(count);
  dequantize(scratch.quant_codes, scratch.outliers, quantum, bins, chains,
             logs);
  auto& negative = scratch.mask_a;
  auto& special = scratch.mask_b;
  read_bitmask(inner, pos, negative, out.size());
  read_bitmask(inner, pos, special, out.size());
  const std::uint64_t special_count = get_varint(inner, pos);
  if (special_count > (inner.size() - pos) / sizeof(double)) {
    throw std::runtime_error("sz: special stream truncated");
  }
  auto& special_values = scratch.special_values;
  special_values.resize(special_count);
  for (std::uint64_t i = 0; i < special_count; ++i) {
    special_values[i] = get_scalar<double>(inner, pos);
  }
  std::size_t special_pos = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (special[i]) {
      if (special_pos >= special_values.size()) {
        throw std::runtime_error("sz: special stream truncated");
      }
      out[i] = special_values[special_pos++];
    } else {
      const double magnitude = std::exp2(logs[i]);
      out[i] = negative[i] ? -magnitude : magnitude;
    }
  }
}

std::size_t SzCodec::element_count(ByteSpan compressed) const {
  if (compressed.size() < 3 || compressed[0] != kMagic0 ||
      compressed[1] != kMagic1) {
    throw std::runtime_error("sz: bad magic");
  }
  std::size_t offset = 3;
  return get_varint(compressed, offset);
}

}  // namespace cqs::sz
