// FZModules — bit-level helpers shared by the encoders.
#pragma once

#include <bit>
#include <cstring>

#include "fzmod/common/types.hh"

namespace fzmod {

/// Number of bits needed to represent `v` (0 -> 0 bits).
[[nodiscard]] constexpr u32 bit_width_u32(u32 v) {
  return static_cast<u32>(std::bit_width(v));
}

/// ZigZag map: interleaves signed values so small magnitudes become small
/// unsigned values (0,-1,1,-2,2 -> 0,1,2,3,4). Quantization deltas cluster
/// around zero, so this is the canonical pre-step for bit-plane encoders
/// (FZ-GPU's bitshuffle, cuSZp2's fix-length packing).
[[nodiscard]] constexpr u32 zigzag_encode(i32 v) {
  return (static_cast<u32>(v) << 1) ^ static_cast<u32>(v >> 31);
}

[[nodiscard]] constexpr i32 zigzag_decode(u32 v) {
  return static_cast<i32>(v >> 1) ^ -static_cast<i32>(v & 1);
}

[[nodiscard]] constexpr u64 zigzag_encode64(i64 v) {
  return (static_cast<u64>(v) << 1) ^ static_cast<u64>(v >> 63);
}

[[nodiscard]] constexpr i64 zigzag_decode64(u64 v) {
  return static_cast<i64>(v >> 1) ^ -static_cast<i64>(v & 1);
}

/// Append `nbits` (<= 57) of `value` to a byte-addressed bit cursor.
/// The caller guarantees the destination has 8 spare bytes past the cursor
/// (encoders over-allocate by a tail pad); writes use memcpy so unaligned
/// stores are well defined.
class bit_writer {
 public:
  explicit bit_writer(u8* dst) : dst_(dst) {}

  void put(u64 value, u32 nbits) {
    // Merge into the current partial byte via a 64-bit window.
    u64 window;
    std::memcpy(&window, dst_ + (bitpos_ >> 3), 8);
    window |= value << (bitpos_ & 7);
    std::memcpy(dst_ + (bitpos_ >> 3), &window, 8);
    bitpos_ += nbits;
  }

  [[nodiscard]] u64 bits_written() const { return bitpos_; }
  [[nodiscard]] u64 bytes_written() const { return (bitpos_ + 7) >> 3; }

 private:
  u8* dst_;
  u64 bitpos_ = 0;
};

/// Byte-reverse a 64-bit word (std::byteswap is C++23; this repo is C++20).
[[nodiscard]] constexpr u64 byteswap64(u64 v) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_bswap64(v);
#else
  v = ((v & 0x00ff00ff00ff00ffULL) << 8) | ((v >> 8) & 0x00ff00ff00ff00ffULL);
  v = ((v & 0x0000ffff0000ffffULL) << 16) |
      ((v >> 16) & 0x0000ffff0000ffffULL);
  return (v << 32) | (v >> 32);
#endif
}

/// 64-bit MSB-first bit reservoir: the Huffman decode fast path's reader.
///
/// The canonical decoder consumes an MSB-first bitstream (bit 7 of byte 0
/// first). The seed decode loop re-assembled a 4-byte window from scratch
/// for every symbol; this reader instead keeps the next 57..64 bits
/// left-aligned in one register and refills with a single unaligned
/// 64-bit load (+ byteswap on little-endian hosts) only when the window
/// runs low — the rapidgzip refill discipline. Between refills, peek and
/// consume are pure register ops.
///
/// Contract: the source must stay readable for 8 bytes past the highest
/// byte the cursor reaches (decoders pad their payload copies; callers
/// bound consumption with an external bit limit before each step).
class msb_bit_reservoir {
 public:
  explicit msb_bit_reservoir(const u8* src) : src_(src) { reload(); }

  /// Guarantee `nbits` (<= 57) peekable bits; at most one load.
  void ensure(u32 nbits) {
    if (avail_ < nbits) reload();
  }

  /// Top `nbits` (1..63) of the window, right-aligned. Requires a prior
  /// ensure(nbits) since the last consume.
  [[nodiscard]] u64 peek(u32 nbits) const { return window_ >> (64 - nbits); }

  /// Drop `nbits` (<= avail) from the front of the window.
  void consume(u32 nbits) {
    window_ <<= nbits;
    avail_ -= nbits;
    bitpos_ += nbits;
  }

  /// Absolute bit position from the start of the source.
  [[nodiscard]] u64 position() const { return bitpos_; }

 private:
  void reload() {
    u64 w;
    std::memcpy(&w, src_ + (bitpos_ >> 3), 8);
    if constexpr (std::endian::native == std::endian::little) {
      w = byteswap64(w);
    }
    window_ = w << (bitpos_ & 7);
    avail_ = static_cast<u32>(64 - (bitpos_ & 7));
  }

  const u8* src_;
  u64 window_ = 0;
  u64 bitpos_ = 0;
  u32 avail_ = 0;
};

/// 64-bit MSB-first accumulator writer: the Huffman encoder's output side
/// and the twin of msb_bit_reservoir (it writes exactly the bitstream the
/// reservoir reads).
///
/// Codes enter right-aligned at the bottom of the accumulator; once 32 or
/// more bits are pending, the oldest 32 leave as one big-endian word
/// store. Fewer than 32 bits are pending before a put and a code is at
/// most 32 bits, so the accumulator never overflows.
///
/// Contract: a stream of `b` bits touches exactly bytes [0, ceil(b/8)) of
/// `dst` — whole words while encoding, then flush() writes the tail bytes
/// with the last one zero-padded. Writers over adjacent byte ranges of one
/// buffer may therefore run concurrently.
class msb_bit_writer {
 public:
  explicit msb_bit_writer(u8* dst) : dst_(dst) {}

  /// Append the low `nbits` (<= 32) of `code`; higher bits must be zero.
  void put(u32 code, u32 nbits) {
    acc_ = (acc_ << nbits) | code;
    pending_ += nbits;
    if (pending_ >= 32) {
      pending_ -= 32;
      u32 w = static_cast<u32>(acc_ >> pending_);
      if constexpr (std::endian::native == std::endian::little) {
        w = static_cast<u32>(byteswap64(w) >> 32);
      }
      std::memcpy(dst_, &w, 4);
      dst_ += 4;
    }
  }

  /// Write the pending bits, zero-padding the final byte.
  void flush() {
    for (; pending_ >= 8; pending_ -= 8) {
      *dst_++ = static_cast<u8>(acc_ >> (pending_ - 8));
    }
    if (pending_) *dst_++ = static_cast<u8>(acc_ << (8 - pending_));
    pending_ = 0;
  }

 private:
  u8* dst_;
  u64 acc_ = 0;
  u32 pending_ = 0;
};

/// Read `nbits` (<= 57) starting at an arbitrary bit offset. The source
/// must have 8 readable bytes past the last consumed position (decoders
/// pad their input copies).
class bit_reader {
 public:
  explicit bit_reader(const u8* src, u64 start_bit = 0)
      : src_(src), bitpos_(start_bit) {}

  [[nodiscard]] u64 get(u32 nbits) {
    u64 window;
    std::memcpy(&window, src_ + (bitpos_ >> 3), 8);
    window >>= (bitpos_ & 7);
    bitpos_ += nbits;
    return nbits >= 64 ? window : window & ((u64{1} << nbits) - 1);
  }

  /// Peek 32 bits without consuming (canonical Huffman decode path).
  [[nodiscard]] u64 peek(u32 nbits) const {
    u64 window;
    std::memcpy(&window, src_ + (bitpos_ >> 3), 8);
    window >>= (bitpos_ & 7);
    return window & ((u64{1} << nbits) - 1);
  }

  void skip(u32 nbits) { bitpos_ += nbits; }
  [[nodiscard]] u64 position() const { return bitpos_; }

 private:
  const u8* src_;
  u64 bitpos_ = 0;
};

}  // namespace fzmod
