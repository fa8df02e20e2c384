// Greedy hash-chain LZ77 tokenizer. Output token stream format (all
// varints little-endian LEB128):
//
//   repeat:
//     lit_len   varint
//     literals  lit_len raw bytes
//     match_len varint   (0 terminates the stream; otherwise length-4)
//     offset    varint   (>= 1, distance back from current position)
//
// Long runs (the all-zero early state vector) collapse to a single
// offset-1 match, which is what gives the lossless stage its high ratio at
// the start of a simulation.
//
// Positions are 32-bit, so the tokenizer accepts inputs below 4 GiB
// (kMaxTokenizeBytes) and throws std::length_error on anything larger.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"

namespace cqs::lossless {

inline constexpr std::size_t kMinMatch = 4;

/// Largest input lz77_tokenize accepts: chain links are uint32 positions,
/// with UINT32_MAX reserved as the end-of-chain marker.
inline constexpr std::size_t kMaxTokenizeBytes =
    (std::size_t{1} << 32) - 1;

struct Lz77Config {
  int max_chain = 16;        // positions examined per match attempt
  std::size_t max_match = 1 << 20;  // cap so pathological inputs stay O(n)
  /// Early exit: a match at least this long is accepted without walking
  /// the rest of the chain. Keeps highly repetitive inputs (hash buckets
  /// with thousands of candidates) from degrading to O(n * max_chain).
  std::size_t good_match = 32;
};

/// Reusable hash-chain state. Each of the 2^18 head entries packs the pass
/// generation (high 32 bits) with the most recent position (low 32 bits):
/// an entry only counts when its stamp matches the current pass, so
/// reusing the scratch costs O(1) instead of a 2 MiB zero-fill. The
/// chain-link table is grown monotonically (stale entries are unreachable
/// because every reachable link was written during the current pass).
struct Lz77Scratch {
  std::vector<std::uint64_t> head;   // hash -> (generation << 32) | position
  std::vector<std::uint32_t> prev;   // position -> previous in chain
  std::uint32_t generation = 0;

  /// Bytes held by the scratch (Eq. 8 accounting).
  std::size_t bytes() const {
    return head.capacity() * sizeof(std::uint64_t) +
           prev.capacity() * sizeof(std::uint32_t);
  }
};

/// Tokenizes `input`; appends the token stream to `out`. Throws
/// std::length_error if `input` exceeds kMaxTokenizeBytes.
void lz77_tokenize(ByteSpan input, Bytes& out, const Lz77Config& config = {});

/// Scratch-pooled variant: identical token stream, zero allocations once
/// `scratch` capacities are warm.
void lz77_tokenize(ByteSpan input, Bytes& out, const Lz77Config& config,
                   Lz77Scratch& scratch);

/// Reverses lz77_tokenize. `expected_size` reserves the output and bounds
/// it: a literal run or match that would grow the output past it is
/// rejected before anything is allocated. The stream is self-terminating.
/// Matches longer than 32 bytes are copied with memcpy, overlapping ones
/// (runs) by doubling copies of whole periods; the output bytes are those
/// of a forward byte-by-byte copy. Throws std::runtime_error on malformed
/// input.
Bytes lz77_detokenize(ByteSpan tokens, std::size_t expected_size);

/// In-place variant: replaces the contents of `out` (capacity reused).
void lz77_detokenize(ByteSpan tokens, std::size_t expected_size, Bytes& out);

}  // namespace cqs::lossless
