// zx: the repository's Zstandard stand-in. A container that applies
// hash-chain LZ77 followed by canonical Huffman coding of the token
// stream, with a raw-store fallback so compression never expands data by
// more than the small header.
//
// Container layout:
//   magic   2 bytes  'Z' 'X'
//   mode    1 byte   0 = raw, 2 = lz77, 3 = lz77 + huffman
//   size    varint   original byte count
//   [mode 3] table + varint token byte count
//   payload
//
// Mode choice: LZ77 runs first; a token stream no shorter than the input
// (no match was emitted) is stored raw. Huffman is tried only on a token
// stream that did shrink. Huffman-coding literal-only streams was
// measured and left out: it saved 4% of peak compressed bytes on QFT-18,
// but decoding the resulting blocks made the read phase 16x slower
// (0.035 -> 0.57 s) and the run slower overall.
//
// Amplitude blocks skip LZ77 when zx_has_word_repeat() finds no aligned
// 8-byte word sharing its top six bytes with an earlier one; the "zstd"
// codec then stores the block raw straight away. That is the container
// LZ77 would have produced unless it found a match the probe does not
// look for (unaligned, or over low-order bytes only), which on amplitude
// data is rare. Inputs to the LZ77 stage are limited to 4 GiB (lz77.hpp).
//
// Decoding copies each LZ77 match of more than 32 bytes with memcpy: a
// match whose offset is at least its length in one call, an overlapping
// one (a run, such as the single offset-1 match of an all-zero block) by
// doubling copies of whole periods, each call moving at least as many
// bytes as are already in the match. Shorter matches, which fill the
// token streams of amplitude data, are copied byte by byte. A 64 KiB
// zero block decodes in a few microseconds instead of ~150 us.
//
// The *_into variants append/replace into caller-owned buffers and thread
// a ZxScratch, so a warm scratch makes a full compress/decompress round
// allocation-free; the value-returning entry points forward to them.
#pragma once

#include "common/bytes.hpp"
#include "lossless/huffman.hpp"
#include "lossless/lz77.hpp"

namespace cqs::lossless {

struct ZxConfig {
  Lz77Config lz;
  bool enable_huffman = true;
};

/// Reusable working state for one zx compress/decompress stream: the LZ77
/// hash chains, the repeat-probe table, token/entropy staging buffers, and
/// the Huffman coder pair.
struct ZxScratch {
  Lz77Scratch lz;
  /// zx_has_word_repeat's generation-stamped table, sized to the block.
  std::vector<std::uint64_t> probe;
  std::uint32_t probe_generation = 0;
  Bytes tokens;  // LZ77 token stream (compress) / decoded tokens (decompress)
  Bytes huffed;  // Huffman-coded candidate payload
  HuffmanEncoder encoder;
  HuffmanDecoder decoder;

  /// Bytes held across passes, Huffman coder pools included (Eq. 8
  /// accounting).
  std::size_t bytes() const {
    return lz.bytes() + probe.capacity() * sizeof(std::uint64_t) +
           tokens.capacity() + huffed.capacity() + encoder.bytes() +
           decoder.bytes();
  }
};

/// Compresses `input`; never throws on valid input and never expands beyond
/// input size + header bytes.
Bytes zx_compress(ByteSpan input, const ZxConfig& config = {});

/// Scratch-pooled variant producing the identical container byte-for-byte;
/// appends to `out` (existing contents untouched).
void zx_compress_into(ByteSpan input, const ZxConfig& config,
                      ZxScratch& scratch, Bytes& out);

/// Appends the raw (mode 0) container for `input` to `out`.
void zx_store_raw_into(ByteSpan input, Bytes& out);

/// Repeat probe for blocks of 8-byte words: false only if the input is a
/// whole number of words, at most 2^15 of them, and no word shares its top
/// six bytes (hence also no word equals) an earlier one. It stops at the
/// first repeat and costs only the words it examines. A false answer rules
/// out the matches amplitude data gives LZ77, so the block may be stored
/// raw.
bool zx_has_word_repeat(ByteSpan input, ZxScratch& scratch);

/// Decompresses a zx container. Throws std::runtime_error on corruption.
/// The header's size is not bounded, so this is for trusted input; decoders
/// of untrusted containers use zx_decompress_into with a bound.
Bytes zx_decompress(ByteSpan compressed);

/// Scratch-pooled variant; replaces the contents of `out`. A header size
/// above `max_size` throws std::runtime_error before anything is sized by
/// it, so callers decoding an inner stream pass the most its element count
/// can produce.
void zx_decompress_into(ByteSpan compressed, std::size_t max_size,
                        ZxScratch& scratch, Bytes& out);

/// Original (decompressed) size recorded in a zx container header.
std::size_t zx_original_size(ByteSpan compressed);

}  // namespace cqs::lossless
