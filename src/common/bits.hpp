// MSB-first bit stream reader/writer used by the entropy coders and the
// embedded bit-plane coder. Both sides work a 64-bit word at a time: the
// writer batches whole words into the sink and the reader serves reads
// from an 8-byte peek window, so multi-bit write()/read() never loop per
// bit. The emitted byte stream is identical to the historical per-bit
// implementation (MSB-first, final partial byte zero-padded).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/bytes.hpp"

namespace cqs {

/// Host word -> big-endian byte order (the order MSB-first bits leave the
/// accumulator in).
inline std::uint64_t to_big_endian_u64(std::uint64_t x) {
  if constexpr (std::endian::native == std::endian::big) {
    return x;
  } else {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_bswap64(x);
#else
    x = ((x & 0x00ff00ff00ff00ffull) << 8) | ((x >> 8) & 0x00ff00ff00ff00ffull);
    x = ((x & 0x0000ffff0000ffffull) << 16) |
        ((x >> 16) & 0x0000ffff0000ffffull);
    return (x << 32) | (x >> 32);
#endif
  }
}

/// Accumulates bits MSB-first into a byte vector.
class BitWriter {
 public:
  explicit BitWriter(Bytes& sink) : sink_(sink) {}

  /// Writes the low `nbits` bits of `value`, most significant first.
  void write(std::uint64_t value, int nbits) {
    if (nbits <= 0) return;
    if (nbits < 64) value &= (std::uint64_t{1} << nbits) - 1;
    if (filled_ + nbits > 64) {
      drain();
      if (filled_ + nbits > 64) {
        // Residual 1..7 bits plus a wide value: emit the top chunk that
        // tops the accumulator off at exactly 64 bits, then the rest.
        const int lo = filled_ + nbits - 64;
        accum_ = (accum_ << (nbits - lo)) | (value >> lo);
        filled_ = 64;
        drain();
        value &= (std::uint64_t{1} << lo) - 1;
        nbits = lo;
      }
    }
    accum_ = filled_ == 0 ? value : (accum_ << nbits) | value;
    filled_ += nbits;
  }

  void write_bit(std::uint64_t bit) {
    if (filled_ == 64) drain();
    accum_ = (accum_ << 1) | (bit & 1u);
    ++filled_;
  }

  /// Pads the final partial byte with zero bits.
  void flush() {
    drain();
    if (filled_ > 0) {
      sink_.push_back(static_cast<std::byte>((accum_ << (8 - filled_)) & 0xff));
      accum_ = 0;
      filled_ = 0;
    }
  }

  ~BitWriter() { flush(); }

  BitWriter(const BitWriter&) = delete;
  BitWriter& operator=(const BitWriter&) = delete;

 private:
  /// Moves every whole byte of the accumulator into the sink in one
  /// word-wide append, keeping at most 7 residual bits.
  void drain() {
    const int nbytes = filled_ >> 3;
    if (nbytes == 0) return;
    const std::uint64_t be = to_big_endian_u64(accum_ << (64 - filled_));
    const auto* p = reinterpret_cast<const std::byte*>(&be);
    sink_.insert(sink_.end(), p, p + nbytes);
    filled_ &= 7;
    accum_ &= filled_ ? (std::uint64_t{1} << filled_) - 1 : 0;
  }

  Bytes& sink_;
  std::uint64_t accum_ = 0;
  int filled_ = 0;  // bits buffered in accum_, 0..64
};

/// Reads bits MSB-first from a byte span. Reads are served from an 8-byte
/// window loaded at the current bit position, so read()/peek() cost one
/// unaligned load instead of a per-bit loop.
class BitReader {
 public:
  explicit BitReader(ByteSpan data)
      : data_(data), total_bits_(data.size() * 8) {}

  std::uint32_t read_bit() {
    if (pos_ >= total_bits_) {
      throw std::out_of_range("cqs: bit stream truncated");
    }
    // Single-byte load: cheaper than the 8-byte window for the per-bit
    // callers (the zfp plane coder and the side-channel bitmasks).
    const auto byte = static_cast<std::uint8_t>(data_[pos_ >> 3]);
    const std::uint32_t bit = (byte >> (7 - (pos_ & 7))) & 1u;
    ++pos_;
    return bit;
  }

  std::uint64_t read(int nbits) {
    if (nbits <= 0) return 0;
    if (pos_ + static_cast<std::size_t>(nbits) > total_bits_) {
      throw std::out_of_range("cqs: bit stream truncated");
    }
    if (nbits > 57) {
      // The 8-byte window holds only 57+ guaranteed-valid bits when the
      // position is mid-byte; split the (rare) wide read.
      const std::uint64_t hi = read(nbits - 32);
      return (hi << 32) | read(32);
    }
    const std::uint64_t value = window() >> (64 - nbits);
    pos_ += static_cast<std::size_t>(nbits);
    return value;
  }

  /// Next `nbits` bits (1..57) without consuming, zero-padded past the end
  /// of the stream. Pair with consume() for table-driven decoders.
  std::uint64_t peek(int nbits) const {
    return window() >> (64 - nbits);
  }

  /// Consumes bits previously examined via peek(). Throws when fewer than
  /// `nbits` real bits remain (a peek past the end saw zero padding).
  void consume(int nbits) {
    if (pos_ + static_cast<std::size_t>(nbits) > total_bits_) {
      throw std::out_of_range("cqs: bit stream truncated");
    }
    pos_ += static_cast<std::size_t>(nbits);
  }

  /// Bits consumed so far.
  std::size_t position() const { return pos_; }

  /// True when fewer than `nbits` remain.
  bool exhausted(int nbits = 1) const {
    return pos_ + static_cast<std::size_t>(nbits) > total_bits_;
  }

 private:
  /// 64-bit window left-justified at the current bit position; bytes past
  /// the end of the stream read as zero.
  std::uint64_t window() const {
    const std::size_t byte = pos_ >> 3;
    std::uint64_t chunk;
    if (byte + 8 <= data_.size()) {
      std::memcpy(&chunk, data_.data() + byte, 8);
      chunk = to_big_endian_u64(chunk);
    } else {
      chunk = 0;
      for (std::size_t i = byte; i < data_.size(); ++i) {
        chunk |= static_cast<std::uint64_t>(data_[i])
                 << (56 - 8 * (i - byte));
      }
    }
    return chunk << (pos_ & 7);
  }

  ByteSpan data_;
  std::size_t pos_ = 0;
  std::size_t total_bits_;
};

/// Number of leading zero *bytes* of a 64-bit value (big-endian byte order).
inline int leading_zero_bytes(std::uint64_t x) {
  if (x == 0) return 8;
  return std::countl_zero(x) / 8;
}

/// Packs one bit per element: varint count, then the bits MSB-first.
/// Shared by the sz and zfp relative-mode side channels.
inline void write_bitmask(Bytes& out, const std::vector<bool>& mask) {
  put_varint(out, mask.size());
  BitWriter writer(out);
  for (bool b : mask) writer.write_bit(b ? 1 : 0);
}

/// Reverses write_bitmask into `mask` (capacity reused), advancing
/// `offset` past the padded final byte. The stored length is untrusted: it
/// must equal `expected` and its bits must fit in the bytes left in `in`,
/// both checked before the mask is sized.
inline void read_bitmask(ByteSpan in, std::size_t& offset,
                         std::vector<bool>& mask, std::size_t expected) {
  const std::uint64_t n = get_varint(in, offset);
  if (n != expected) {
    throw std::runtime_error("cqs: bitmask length mismatch");
  }
  if (n / 8 + (n % 8 != 0 ? 1 : 0) > in.size() - offset) {
    throw std::runtime_error("cqs: bitmask truncated");
  }
  mask.assign(n, false);
  BitReader reader(in.subspan(offset));
  for (std::uint64_t i = 0; i < n; ++i) mask[i] = reader.read_bit() != 0;
  offset += (reader.position() + 7) / 8;
}

}  // namespace cqs
