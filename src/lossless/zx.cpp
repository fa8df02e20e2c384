#include "lossless/zx.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/bits.hpp"

namespace cqs::lossless {
namespace {

constexpr std::byte kMagic0{'Z'};
constexpr std::byte kMagic1{'X'};
constexpr std::byte kModeRaw{0};
constexpr std::byte kModeLz{2};
constexpr std::byte kModeLzHuff{3};

void huffman_bytes_into(ByteSpan data, ZxScratch& scratch, Bytes& out) {
  std::array<std::uint64_t, 256> counts{};
  for (std::byte b : data) ++counts[static_cast<std::uint8_t>(b)];
  scratch.encoder.build(counts);
  scratch.encoder.write_table(out);
  put_varint(out, data.size());
  BitWriter writer(out);
  for (std::byte b : data) {
    scratch.encoder.encode(writer, static_cast<std::uint8_t>(b));
  }
  writer.flush();
}

/// Decodes a Huffman-coded token stream. The encoder only keeps a token
/// stream shorter than the input, so `count` must stay below
/// `original_size`; every code is at least one bit, so it must also fit
/// the payload. Both are checked before `out` is sized.
void unhuffman_bytes_into(ByteSpan data, std::uint64_t original_size,
                          ZxScratch& scratch, Bytes& out) {
  std::size_t offset = 0;
  scratch.decoder.parse_table(data, offset, 256);
  const std::uint64_t count = get_varint(data, offset);
  if (count >= original_size || count / 8 > data.size() - offset) {
    throw std::runtime_error("cqs: zx token count exceeds its bounds");
  }
  out.resize(count);
  BitReader reader(data.subspan(offset));
  for (std::uint64_t i = 0; i < count; ++i) {
    out[i] = static_cast<std::byte>(scratch.decoder.decode(reader));
  }
}

/// Probe table cap: 2^16 stamped entries (512 KiB), kept at most half
/// full, so the probe covers blocks of up to 2^15 words (256 KiB).
constexpr std::size_t kProbeMaxEntries = std::size_t{1} << 16;

}  // namespace

void zx_store_raw_into(ByteSpan input, Bytes& out) {
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kModeRaw);
  put_varint(out, input.size());
  out.insert(out.end(), input.begin(), input.end());
}

bool zx_has_word_repeat(ByteSpan input, ZxScratch& scratch) {
  const std::size_t words = input.size() / 8;
  if (input.size() % 8 != 0 || 2 * words > kProbeMaxEntries) return true;
  if (words < 2) return false;

  // Open-addressing set of the words seen so far, keyed by their top six
  // bytes. Entries pack (generation << 32) | word index, so a pass only
  // touches the slots it probes.
  const std::size_t entries = std::bit_ceil(2 * words);
  auto& table = scratch.probe;
  if (table.size() < entries) table.assign(entries, 0);
  if (++scratch.probe_generation == 0) {
    std::fill(table.begin(), table.end(), 0);
    scratch.probe_generation = 1;
  }
  const std::uint32_t gen = scratch.probe_generation;
  const std::uint64_t stamp = std::uint64_t{gen} << 32;
  const int shift = 64 - std::countr_zero(entries);
  const std::size_t mask = entries - 1;
  const std::byte* base = input.data();
  // Bytes 2..7 of a little-endian double: sign, exponent and the top 36
  // mantissa bits.
  const auto top6 = [base](std::size_t word) {
    std::uint64_t v;
    std::memcpy(&v, base + 8 * word, 8);
    return v >> 16;
  };
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t key = top6(i);
    std::size_t slot = (key * 0x9e3779b185ebca87ull) >> shift;
    while (true) {
      const std::uint64_t e = table[slot];
      if ((e >> 32) != gen) {
        table[slot] = stamp | i;
        break;
      }
      if (top6(static_cast<std::uint32_t>(e)) == key) return true;
      slot = (slot + 1) & mask;
    }
  }
  return false;
}

void zx_compress_into(ByteSpan input, const ZxConfig& config,
                      ZxScratch& scratch, Bytes& out) {
  const std::size_t base = out.size();

  scratch.tokens.clear();
  lz77_tokenize(input, scratch.tokens, config.lz, scratch.lz);

  if (scratch.tokens.size() >= input.size()) {
    zx_store_raw_into(input, out);
    return;
  }

  ByteSpan payload = scratch.tokens;
  std::byte mode = kModeLz;
  if (config.enable_huffman && !scratch.tokens.empty()) {
    scratch.huffed.clear();
    huffman_bytes_into(scratch.tokens, scratch, scratch.huffed);
    if (scratch.huffed.size() < scratch.tokens.size()) {
      payload = scratch.huffed;
      mode = kModeLzHuff;
    }
  }

  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(mode);
  put_varint(out, input.size());
  out.insert(out.end(), payload.begin(), payload.end());
  // Raw fallback guarantee: if the pipeline expanded the data, store raw.
  if (out.size() - base > input.size() + 12) {
    out.resize(base);
    zx_store_raw_into(input, out);
  }
}

Bytes zx_compress(ByteSpan input, const ZxConfig& config) {
  ZxScratch scratch;
  Bytes out;
  zx_compress_into(input, config, scratch, out);
  return out;
}

void zx_decompress_into(ByteSpan compressed, std::size_t max_size,
                        ZxScratch& scratch, Bytes& out) {
  if (compressed.size() < 3 || compressed[0] != kMagic0 ||
      compressed[1] != kMagic1) {
    throw std::runtime_error("cqs: not a zx container");
  }
  const std::byte mode = compressed[2];
  std::size_t offset = 3;
  const std::uint64_t original_size = get_varint(compressed, offset);
  if (original_size > max_size) {
    throw std::runtime_error("cqs: zx size exceeds its bound");
  }
  const ByteSpan payload = compressed.subspan(offset);

  if (mode == kModeRaw) {
    if (payload.size() != original_size) {
      throw std::runtime_error("cqs: zx raw payload size mismatch");
    }
    out.assign(payload.begin(), payload.end());
    return;
  }
  ByteSpan tokens;
  if (mode == kModeLzHuff) {
    unhuffman_bytes_into(payload, original_size, scratch, scratch.tokens);
    tokens = scratch.tokens;
  } else if (mode == kModeLz) {
    tokens = payload;  // detokenize reads the container bytes in place
  } else {
    throw std::runtime_error("cqs: zx unknown mode");
  }
  lz77_detokenize(tokens, original_size, out);
  if (out.size() != original_size) {
    throw std::runtime_error("cqs: zx decompressed size mismatch");
  }
}

Bytes zx_decompress(ByteSpan compressed) {
  ZxScratch scratch;
  Bytes out;
  zx_decompress_into(compressed, std::numeric_limits<std::size_t>::max(),
                     scratch, out);
  return out;
}

std::size_t zx_original_size(ByteSpan compressed) {
  if (compressed.size() < 3 || compressed[0] != kMagic0 ||
      compressed[1] != kMagic1) {
    throw std::runtime_error("cqs: not a zx container");
  }
  std::size_t offset = 3;
  return get_varint(compressed, offset);
}

}  // namespace cqs::lossless
