#include "compression/zx_codec.hpp"

#include <cstring>
#include <stdexcept>

#include "compression/codec_scratch.hpp"
#include "lossless/zx.hpp"

namespace cqs::compression {

Bytes ZxCodec::compress(std::span<const double> data,
                        const ErrorBound& bound) const {
  CodecScratch scratch;
  return compress(data, bound, scratch);
}

void ZxCodec::decompress(ByteSpan compressed, std::span<double> out) const {
  CodecScratch scratch;
  decompress(compressed, out, scratch);
}

Bytes ZxCodec::compress(std::span<const double> data, const ErrorBound& bound,
                        CodecScratch& scratch) const {
  if (bound.mode != BoundMode::kLossless) {
    throw std::invalid_argument("ZxCodec is lossless only");
  }
  const ByteSpan input = as_bytes_span(data);
  scratch.packed.clear();
  if (lossless::zx_has_word_repeat(input, scratch.zx)) {
    lossless::zx_compress_into(input, {}, scratch.zx, scratch.packed);
  } else {
    lossless::zx_store_raw_into(input, scratch.packed);
  }
  return Bytes(scratch.packed.begin(), scratch.packed.end());
}

void ZxCodec::decompress(ByteSpan compressed, std::span<double> out,
                         CodecScratch& scratch) const {
  // The header size bounds every allocation the decode makes, so it is
  // checked against the destination first.
  if (lossless::zx_original_size(compressed) != out.size_bytes()) {
    throw std::runtime_error("ZxCodec: output size mismatch");
  }
  lossless::zx_decompress_into(compressed, out.size_bytes(), scratch.zx,
                               scratch.inner);
  if (!scratch.inner.empty()) {
    std::memcpy(out.data(), scratch.inner.data(), scratch.inner.size());
  }
}

std::size_t ZxCodec::element_count(ByteSpan compressed) const {
  return lossless::zx_original_size(compressed) / sizeof(double);
}

}  // namespace cqs::compression
