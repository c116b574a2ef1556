#include "fzmod/lossless/lz.hh"

#include <algorithm>
#include <cstring>

#include "fzmod/common/error.hh"
#include "fzmod/device/runtime.hh"
#include "fzmod/encoders/huffman.hh"

namespace fzmod::lossless {
namespace {

constexpr u32 lz_magic = 0x465a4c5a;  // "FZLZ"
constexpr std::size_t segment_size = 1u << 20;
constexpr std::size_t window = 1u << 16;
constexpr std::size_t min_match = 4;
constexpr std::size_t max_chain = 32;

struct header {
  u32 magic;
  u32 mode;  // 0 = LZ+Huffman, 1 = stored
  u64 raw_size;
  u64 token_size;
  u32 nsegments;
  u32 reserved;
};

void put_varint(std::vector<u8>& out, u64 v) {
  while (v >= 0x80) {
    out.push_back(static_cast<u8>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<u8>(v));
}

u64 get_varint(const u8*& p, const u8* end) {
  u64 v = 0;
  int shift = 0;
  for (;;) {
    FZMOD_REQUIRE(p < end, status::corrupt_archive, "lz: truncated varint");
    const u8 b = *p++;
    v |= static_cast<u64>(b & 0x7f) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
    FZMOD_REQUIRE(shift < 64, status::corrupt_archive, "lz: varint overflow");
  }
}

[[nodiscard]] inline u32 hash4(const u8* p) {
  u32 v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> 16;  // 16-bit hash
}

/// Greedy hash-chain LZ77 over one segment. Emits sequences of
/// [lit_len varint][literals][match_len-4 varint][dist varint]; the stream
/// ends when the decoder has reconstructed `n` bytes (a trailing sequence
/// may omit the match by encoding match_len sentinel 0... we instead always
/// emit a final literal-only sequence with match fields {0, 0}).
void lz_segment(const u8* src, std::size_t n, std::vector<u8>& out) {
  std::vector<i32> head(1u << 16, -1);
  std::vector<i32> prev(n, -1);
  std::size_t i = 0;
  std::size_t lit_start = 0;

  auto flush_sequence = [&](std::size_t match_len, std::size_t dist) {
    put_varint(out, i - lit_start);
    out.insert(out.end(), src + lit_start, src + i);
    put_varint(out, match_len >= min_match ? match_len - min_match + 1 : 0);
    if (match_len >= min_match) put_varint(out, dist);
  };

  while (i + min_match <= n) {
    const u32 h = hash4(src + i);
    std::size_t best_len = 0, best_dist = 0;
    i32 cand = head[h];
    std::size_t chain = 0;
    while (cand >= 0 && i - static_cast<std::size_t>(cand) <= window &&
           chain < max_chain) {
      const u8* a = src + cand;
      const u8* b = src + i;
      const std::size_t cap = n - i;
      std::size_t len = 0;
      while (len < cap && a[len] == b[len]) ++len;
      if (len > best_len) {
        best_len = len;
        best_dist = i - static_cast<std::size_t>(cand);
        if (len >= 128) break;  // long enough; stop searching
      }
      cand = prev[cand];
      ++chain;
    }
    if (best_len >= min_match) {
      flush_sequence(best_len, best_dist);
      // Insert hash entries for the matched region (sparsely for speed).
      const std::size_t end = i + best_len;
      const std::size_t step = best_len > 64 ? 4 : 1;
      for (; i + min_match <= n && i < end; i += step) {
        const u32 hh = hash4(src + i);
        prev[i] = head[hh];
        head[hh] = static_cast<i32>(i);
      }
      i = end;
      lit_start = i;
    } else {
      prev[i] = head[h];
      head[h] = static_cast<i32>(i);
      ++i;
    }
  }
  i = n;
  flush_sequence(0, 0);  // final literal-only sequence
}

void lz_expand_segment(const u8*& p, const u8* end, u8* dst,
                       std::size_t n) {
  std::size_t pos = 0;
  while (pos < n) {
    const u64 lit = get_varint(p, end);
    FZMOD_REQUIRE(lit <= n - pos && static_cast<u64>(end - p) >= lit,
                  status::corrupt_archive, "lz: literal overrun");
    std::memcpy(dst + pos, p, lit);
    p += lit;
    pos += lit;
    const u64 mlen_enc = get_varint(p, end);
    if (mlen_enc == 0) {
      FZMOD_REQUIRE(pos == n, status::corrupt_archive,
                    "lz: premature stream end");
      break;
    }
    const u64 mlen = mlen_enc - 1 + min_match;
    const u64 dist = get_varint(p, end);
    FZMOD_REQUIRE(dist >= 1 && dist <= pos, status::corrupt_archive,
                  "lz: invalid match distance");
    FZMOD_REQUIRE(mlen <= n - pos, status::corrupt_archive,
                  "lz: match overrun");
    // Overlapping copies are the RLE case; byte loop is required.
    for (u64 k = 0; k < mlen; ++k) dst[pos + k] = dst[pos + k - dist];
    pos += mlen;
  }
}

}  // namespace

void compress_into(std::span<const u8> raw, std::vector<u8>& out) {
  const std::size_t nseg =
      raw.empty() ? 0 : (raw.size() - 1) / segment_size + 1;
  std::vector<std::vector<u8>> seg_tokens(nseg);
  device::runtime::instance().pool().parallel_for(
      nseg, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t sg = lo; sg < hi; ++sg) {
          const std::size_t beg = sg * segment_size;
          const std::size_t len =
              std::min(segment_size, raw.size() - beg);
          seg_tokens[sg].reserve(len / 2);
          lz_segment(raw.data() + beg, len, seg_tokens[sg]);
        }
      });

  // Concatenate tokens with a segment offset table, then entropy-code.
  std::vector<u64> seg_offsets(nseg + 1, 0);
  for (std::size_t sg = 0; sg < nseg; ++sg) {
    seg_offsets[sg + 1] = seg_offsets[sg] + seg_tokens[sg].size();
  }
  const u64 token_size = seg_offsets[nseg];
  std::vector<u16> tokens(token_size);
  std::vector<u32> hist(256, 0);
  for (std::size_t sg = 0; sg < nseg; ++sg) {
    u16* dst = tokens.data() + seg_offsets[sg];
    for (std::size_t k = 0; k < seg_tokens[sg].size(); ++k) {
      dst[k] = seg_tokens[sg][k];
      hist[seg_tokens[sg][k]]++;
    }
  }

  std::vector<u8> entropy;
  if (token_size > 0) entropy = encoders::huffman_encode(tokens, hist);

  header hdr{lz_magic, 0, raw.size(), token_size,
             static_cast<u32>(nseg), 0};
  const std::size_t framed = sizeof(hdr) + (nseg + 1) * sizeof(u64) +
                             entropy.size();
  const std::size_t at = out.size();
  if (framed >= raw.size() + sizeof(hdr)) {
    // Stored mode: entropy coding did not pay off.
    hdr.mode = 1;
    out.resize(at + sizeof(hdr) + raw.size());
    std::memcpy(out.data() + at, &hdr, sizeof(hdr));
    // std::copy, not memcpy: an empty input's data() may be null.
    std::copy(raw.begin(), raw.end(), out.begin() + at + sizeof(hdr));
    return;
  }
  out.resize(at + framed);
  u8* p = out.data() + at;
  std::memcpy(p, &hdr, sizeof(hdr));
  p += sizeof(hdr);
  std::memcpy(p, seg_offsets.data(), (nseg + 1) * sizeof(u64));
  p += (nseg + 1) * sizeof(u64);
  std::memcpy(p, entropy.data(), entropy.size());
}

std::vector<u8> compress(std::span<const u8> raw) {
  std::vector<u8> blob;
  compress_into(raw, blob);
  return blob;
}

u64 decompressed_size(std::span<const u8> blob) {
  FZMOD_REQUIRE(blob.size() >= sizeof(header), status::corrupt_archive,
                "lz: blob too small");
  header hdr;
  std::memcpy(&hdr, blob.data(), sizeof(hdr));
  FZMOD_REQUIRE(hdr.magic == lz_magic, status::corrupt_archive,
                "lz: bad magic");
  return hdr.raw_size;
}

std::vector<u8> decompress(std::span<const u8> blob) {
  FZMOD_REQUIRE(blob.size() >= sizeof(header), status::corrupt_archive,
                "lz: blob too small");
  header hdr;
  std::memcpy(&hdr, blob.data(), sizeof(hdr));
  FZMOD_REQUIRE(hdr.magic == lz_magic, status::corrupt_archive,
                "lz: bad magic");
  // Resource guards: a corrupted size field must not drive an unbounded
  // allocation. Stored mode is 1:1; LZ mode emits at least one token byte
  // per segment and the token stream itself is bounded by the Huffman
  // chunk-table floor.
  FZMOD_REQUIRE(hdr.raw_size <= max_decode_bytes, status::corrupt_archive,
                "lz: declared size exceeds decoder cap");
  const std::size_t expect_nseg =
      hdr.raw_size == 0 ? 0
                        : (hdr.raw_size - 1) / segment_size + 1;
  FZMOD_REQUIRE(hdr.mode == 1 || hdr.nsegments == expect_nseg,
                status::corrupt_archive, "lz: segment count mismatch");
  FZMOD_REQUIRE(hdr.token_size <= max_decode_bytes &&
                    hdr.token_size / 8192 <= blob.size(),
                status::corrupt_archive, "lz: token stream implausible");
  std::vector<u8> raw(hdr.raw_size);
  if (hdr.mode == 1) {
    FZMOD_REQUIRE(blob.size() >= sizeof(hdr) + hdr.raw_size,
                  status::corrupt_archive, "lz: truncated stored blob");
    std::copy_n(blob.begin() + sizeof(hdr), hdr.raw_size, raw.begin());
    return raw;
  }
  const std::size_t nseg = hdr.nsegments;
  FZMOD_REQUIRE(blob.size() >= sizeof(hdr) + (nseg + 1) * sizeof(u64),
                status::corrupt_archive, "lz: truncated segment table");
  std::vector<u64> seg_offsets(nseg + 1);
  std::memcpy(seg_offsets.data(), blob.data() + sizeof(hdr),
              (nseg + 1) * sizeof(u64));
  FZMOD_REQUIRE(seg_offsets[nseg] == hdr.token_size,
                status::corrupt_archive, "lz: segment table mismatch");

  std::vector<u16> tokens16(hdr.token_size);
  if (hdr.token_size > 0) {
    encoders::huffman_decode(
        blob.subspan(sizeof(hdr) + (nseg + 1) * sizeof(u64)), tokens16);
  }
  std::vector<u8> tokens(hdr.token_size);
  for (std::size_t k = 0; k < tokens.size(); ++k) {
    tokens[k] = static_cast<u8>(tokens16[k]);
  }

  device::runtime::instance().pool().parallel_for(
      nseg, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t sg = lo; sg < hi; ++sg) {
          const std::size_t beg = sg * segment_size;
          const std::size_t len =
              std::min<std::size_t>(segment_size, hdr.raw_size - beg);
          const u8* p = tokens.data() + seg_offsets[sg];
          const u8* end = tokens.data() + seg_offsets[sg + 1];
          lz_expand_segment(p, end, raw.data() + beg, len);
        }
      });
  return raw;
}

}  // namespace fzmod::lossless
