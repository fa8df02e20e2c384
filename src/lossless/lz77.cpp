#include "lossless/lz77.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace cqs::lossless {
namespace {

// Hash 6 bytes, not the minimum match length of 4: double-precision
// payloads share 4-byte prefixes (sign/exponent/top mantissa) so widely
// that 4-byte buckets degenerate into thousands of short false
// candidates; 6 bytes keeps buckets selective. Only matches of at least
// kMinEmit bytes are emitted (shorter ones barely cover token overhead).
inline std::uint32_t hash6(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  v &= 0xffffffffffffull;  // low 6 bytes
  return static_cast<std::uint32_t>((v * 0x9e3779b185ebca87ull) >> 46);
}

constexpr std::size_t kHashSize = 1u << 18;
constexpr std::size_t kMinEmit = 6;
constexpr std::size_t kHashBytes = 8;  // hash6 reads 8 bytes

/// Length of the common prefix of [a, limit) and [b, limit-relative).
inline std::size_t match_length(const std::byte* a, const std::byte* b,
                                const std::byte* limit) {
  const std::byte* start = a;
  while (a + 8 <= limit) {
    std::uint64_t va;
    std::uint64_t vb;
    std::memcpy(&va, a, 8);
    std::memcpy(&vb, b, 8);
    if (va != vb) {
      const std::uint64_t diff = va ^ vb;
      return static_cast<std::size_t>(a - start) +
             (std::countr_zero(diff) >> 3);
    }
    a += 8;
    b += 8;
  }
  while (a < limit && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<std::size_t>(a - start);
}

/// Chain terminator in `prev` and the empty-head value of head_at().
constexpr std::uint32_t kNoPosition = 0xffffffffu;

/// Opens a tokenize pass over `scratch`: bumps the generation so every
/// head-table entry from earlier passes reads as empty, and guarantees the
/// chain table covers `n` positions. Generation wrap (once per 2^32
/// passes) falls back to one full restamp.
void begin_pass(Lz77Scratch& scratch, std::size_t n) {
  if (scratch.head.size() != kHashSize) {
    scratch.head.assign(kHashSize, 0);
    scratch.generation = 0;
  }
  if (++scratch.generation == 0) {
    std::fill(scratch.head.begin(), scratch.head.end(), 0);
    scratch.generation = 1;
  }
  if (scratch.prev.size() < n) scratch.prev.resize(n);
}

/// Matches up to this many bytes are copied one byte at a time, which
/// costs less than a memcpy call for the short matches that fill the
/// token streams of amplitude data. Timing the decode alone on the zx
/// token stream of qaoa18 (4 MiB), memcpy for every match was about 20%
/// slower than the byte loop and a cutoff of 8 about 10% slower; cutoffs
/// of 16 to 256 were within noise of each other and of the byte loop.
constexpr std::size_t kShortMatch = 32;

/// Writes the `length`-byte match that starts `distance` bytes before
/// `dst`. An overlapping match (distance < length) repeats the last
/// `distance` bytes, so it cannot be one memmove. Instead the copy
/// doubles: [dst - distance, dst + done) always holds whole periods of the
/// run, so the next chunk is copied from `span` bytes back, where `span`
/// is the largest multiple of `distance` that is at most done + distance.
/// Source and destination of each memcpy are then disjoint, the first copy
/// moves `distance` bytes (the whole match when distance >= length), and
/// each later copy at least doubles `done`.
inline void copy_match(std::byte* dst, std::size_t distance,
                       std::size_t length) {
  if (length <= kShortMatch) {
    const std::byte* src = dst - distance;
    for (std::size_t i = 0; i < length; ++i) dst[i] = src[i];
    return;
  }
  std::size_t done = 0;
  while (done < length) {
    const std::size_t span = (done + distance) / distance * distance;
    const std::size_t chunk = std::min(span, length - done);
    std::memcpy(dst + done, dst + done - span, chunk);
    done += chunk;
  }
}

}  // namespace

void lz77_tokenize(ByteSpan input, Bytes& out, const Lz77Config& config,
                   Lz77Scratch& scratch) {
  const std::size_t n = input.size();
  if (n > kMaxTokenizeBytes) {
    throw std::length_error("cqs: lz77 input of 4 GiB or more");
  }
  const std::byte* base = input.data();
  begin_pass(scratch, n);

  auto* const head = scratch.head.data();
  auto* const prev = scratch.prev.data();
  const std::uint32_t gen = scratch.generation;
  const std::uint64_t stamp = std::uint64_t{gen} << 32;
  const auto head_at = [&](std::uint32_t h) -> std::uint32_t {
    const std::uint64_t e = head[h];
    return (e >> 32) == gen ? static_cast<std::uint32_t>(e) : kNoPosition;
  };
  const auto link = [&](std::uint32_t h, std::size_t p) {
    prev[p] = head_at(h);
    head[h] = stamp | p;
  };

  std::size_t literal_start = 0;
  std::size_t pos = 0;
  while (pos + kHashBytes <= n) {
    const std::uint32_t h = hash6(base + pos);
    std::uint32_t candidate = head_at(h);
    std::size_t best_len = 0;
    std::size_t best_offset = 0;
    int chain = config.max_chain;
    while (candidate != kNoPosition && chain-- > 0) {
      const std::size_t len =
          match_length(base + pos, base + candidate, base + n);
      if (len > best_len) {
        best_len = len;
        best_offset = pos - candidate;
        if (len >= config.good_match || len >= config.max_match) break;
      }
      candidate = prev[candidate];
    }

    if (best_len >= kMinEmit) {
      best_len = std::min(best_len, config.max_match);
      // Emit pending literals + this match.
      put_varint(out, pos - literal_start);
      out.insert(out.end(), base + literal_start, base + pos);
      put_varint(out, best_len - kMinMatch + 1);
      put_varint(out, best_offset);

      // Index the covered positions (sparsely for long matches to stay fast).
      const std::size_t end = pos + best_len;
      const std::size_t step = best_len > 512 ? 509 : 1;  // prime stride
      for (std::size_t i = pos; i + kHashBytes <= n && i < end; i += step) {
        link(hash6(base + i), i);
      }
      pos = end;
      literal_start = pos;
    } else {
      link(h, pos);
      ++pos;
    }
  }
  // Trailing literals + terminator.
  put_varint(out, n - literal_start);
  out.insert(out.end(), base + literal_start, base + n);
  put_varint(out, 0);
}

void lz77_tokenize(ByteSpan input, Bytes& out, const Lz77Config& config) {
  Lz77Scratch scratch;
  lz77_tokenize(input, out, config, scratch);
}

void lz77_detokenize(ByteSpan tokens, std::size_t expected_size, Bytes& out) {
  out.clear();
  out.reserve(expected_size);
  std::size_t offset = 0;
  while (true) {
    const std::uint64_t lit_len = get_varint(tokens, offset);
    if (lit_len > tokens.size() - offset) {
      throw std::runtime_error("cqs: lz77 literal overrun");
    }
    if (lit_len > expected_size - out.size()) {
      throw std::runtime_error("cqs: lz77 literals exceed expected size");
    }
    out.insert(out.end(), tokens.begin() + offset,
               tokens.begin() + offset + lit_len);
    offset += lit_len;
    const std::uint64_t len_code = get_varint(tokens, offset);
    if (len_code == 0) break;
    const std::size_t room = expected_size - out.size();
    if (room < kMinMatch || len_code - 1 > room - kMinMatch) {
      throw std::runtime_error("cqs: lz77 match exceeds expected size");
    }
    const std::uint64_t match_len = len_code - 1 + kMinMatch;
    const std::uint64_t match_offset = get_varint(tokens, offset);
    if (match_offset == 0 || match_offset > out.size()) {
      throw std::runtime_error("cqs: lz77 bad match offset");
    }
    // Growing by the match alone (not to expected_size up front) means a
    // forged header never makes the decoder touch more memory than the
    // tokens actually produce.
    const std::size_t old_size = out.size();
    out.resize(old_size + match_len);
    copy_match(out.data() + old_size, match_offset, match_len);
  }
}

Bytes lz77_detokenize(ByteSpan tokens, std::size_t expected_size) {
  Bytes out;
  lz77_detokenize(tokens, expected_size, out);
  return out;
}

}  // namespace cqs::lossless
