// Lossless Compressor over double arrays: the "Zstd" stage of the paper's
// hybrid pipeline (Section 3.7), backed by the zx codec.
//
// compress() first runs zx_has_word_repeat(): a block of at most 256 KiB
// in which no 8-byte amplitude word shares its top six bytes with an
// earlier one goes straight into zx's raw container without running LZ77;
// any other block takes the full zx path. The decoder is unchanged, so
// every container decodes as before; decompress() rejects a header size
// that differs from the destination before it decodes anything.
#pragma once

#include "compression/compressor.hpp"

namespace cqs::compression {

class ZxCodec final : public Compressor {
 public:
  std::string name() const override { return "zstd"; }
  bool supports(BoundMode mode) const override {
    return mode == BoundMode::kLossless;
  }
  Bytes compress(std::span<const double> data,
                 const ErrorBound& bound) const override;
  void decompress(ByteSpan compressed, std::span<double> out) const override;
  Bytes compress(std::span<const double> data, const ErrorBound& bound,
                 CodecScratch& scratch) const override;
  void decompress(ByteSpan compressed, std::span<double> out,
                  CodecScratch& scratch) const override;
  std::size_t element_count(ByteSpan compressed) const override;
};

}  // namespace cqs::compression
