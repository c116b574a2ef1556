// FZModules — canonical Huffman codec for quantization codes.
//
// This is the high-ratio primary lossless codec (cuSZ's Huffman stage). The
// paper's FZMod-Default and FZMod-Quality pipelines run it on the CPU
// ("CPU-based Huffman encoding due to low GPU performance of Huffman
// encoders", §3.3), so the API here is host-side: the pipeline pays an
// explicit D2H transfer for the code stream first, exactly like the hybrid
// design in the paper.
//
// Properties:
//  - canonical, length-limited codes (max 24 bits) built from the
//    histogram module's output, so codebook transmission is just one code
//    length per symbol;
//  - coarse-grained chunking (8192 symbols): chunks encode and decode
//    independently in parallel, mirroring cuSZ's coarse-grained GPU
//    Huffman layout;
//  - fully self-contained archive blob (header + lengths + chunk offsets +
//    bitstream), validated on decode.
//
// Encode runs in two chunk-parallel passes (cuSZ's prefix-summed bit
// offsets, at byte granularity since every chunk starts on a byte):
//  1. count — sum the code length of every symbol per chunk (rejecting
//     codes outside the alphabet or without a codeword), round each sum up
//     to whole bytes and prefix-sum them into the stored offset table;
//  2. write — size the blob exactly once, then encode every chunk straight
//     into its final byte range with the word-at-a-time msb_bit_writer
//     (common/bits.hh). A chunk touches only its own ceil(bits/8) bytes,
//     so all chunks write into the one blob concurrently.
#pragma once

#include <span>
#include <vector>

#include "fzmod/common/types.hh"

namespace fzmod::encoders {

inline constexpr u32 huffman_max_code_len = 24;
inline constexpr std::size_t huffman_chunk = 8192;

/// Canonical codebook: assignment of (code, length) per symbol.
struct huffman_codebook {
  std::vector<u32> code;  // canonical code value, MSB-first semantics
  std::vector<u8> len;    // 0 = symbol absent

  /// Build length-limited canonical codes from symbol frequencies.
  /// Throws on an all-zero histogram.
  static huffman_codebook build(std::span<const u32> freq);

  /// Average code length in bits under `freq` (the entropy-coder's
  /// achieved rate; used by tests and the ablation bench).
  [[nodiscard]] f64 expected_bits(std::span<const u32> freq) const;
};

/// Encode `codes` (symbols < nbins) given their histogram. Returns a
/// self-contained blob. Throws `status::invalid_argument` if a code is
/// >= hist.size() or has zero frequency in `hist` (no codeword).
[[nodiscard]] std::vector<u8> huffman_encode(std::span<const u16> codes,
                                             std::span<const u32> hist);

// ---- decoder tiers ------------------------------------------------------
//
// The decode fast path is a family of table-cached decoders over one
// 64-bit bit-reservoir reader (common/bits.hh), the rapidgzip playbook:
//
//  - `canonical`      the seed per-symbol canonical walk (reference tier
//                     and fallback for pathological codebooks);
//  - `single_cached`  one LUT[peek(max_len)] lookup resolves any symbol
//                     (requires max code length <= huffman_single_table_bits);
//  - `double_cached`  one LUT[peek(12)] lookup resolves up to TWO short
//                     codes at once; codes longer than the table fall back
//                     to the canonical walk per miss.
//
// The variant is selected **per 8192-symbol chunk** by
// `huffman_select_tier` from the codebook's maximum code length and the
// chunk's achieved bits/symbol (chunks encode independently, so their bit
// densities differ). `FZMOD_HUFF_TIER=auto|canonical|single|double`
// forces a tier process-wide; the explicit-tier overload forces it per
// call (benches and tests). The wire format is unchanged — every blob,
// including pre-existing archives, decodes through any tier.

enum class huffman_tier : u8 {
  canonical = 0,
  single_cached = 1,
  double_cached = 2,
  auto_select = 255,
};

[[nodiscard]] const char* to_string(huffman_tier t);

/// Parse a tier name ("auto"|"canonical"|"single"|"double" — the
/// FZMOD_HUFF_TIER values). Throws invalid_argument on anything else so
/// typos fail loudly instead of silently decoding in the wrong tier.
[[nodiscard]] huffman_tier parse_huffman_tier(std::string_view v);

/// LUT width caps: `single` builds 2^max_len entries (so max_len must be
/// small); `double` always builds 2^12 entries and uses the canonical
/// walk for codes that don't fit.
inline constexpr u32 huffman_single_table_bits = 14;
inline constexpr u32 huffman_double_table_bits = 12;

/// Per-chunk tier choice from the codebook's maximum code length and the
/// chunk's achieved average code length (chunk payload bits / symbols).
/// Pure — unit-tested directly.
[[nodiscard]] huffman_tier huffman_select_tier(u32 max_code_len,
                                               f64 chunk_avg_bits);

/// Cumulative count of chunks decoded by each tier (process-wide).
/// Tests read deltas; while tracing each decode also publishes them as
/// `huffman.chunks.<tier>` counter samples.
struct huffman_tier_counts {
  u64 canonical = 0;
  u64 single_cached = 0;
  u64 double_cached = 0;
};
[[nodiscard]] huffman_tier_counts huffman_tier_totals();

/// Decode a blob produced by huffman_encode into `out` (presized to the
/// original count, which callers know from the pipeline header). The
/// 2-arg form selects the decoder tier per chunk (or honours
/// FZMOD_HUFF_TIER); the 3-arg form forces one tier for every chunk —
/// a forced tier the codebook cannot support falls back to `canonical`.
void huffman_decode(std::span<const u8> blob, std::span<u16> out);
void huffman_decode(std::span<const u8> blob, std::span<u16> out,
                    huffman_tier tier);

/// Number of symbols stored in a blob (for callers sizing `out`).
/// Validates the full blob structure — magic, alphabet size, chunk table
/// extent and monotonic offsets, payload extent — so a truncated or
/// forged blob throws `status::corrupt_archive` here instead of returning
/// a count that reads past the span downstream.
[[nodiscard]] u64 huffman_decoded_count(std::span<const u8> blob);

}  // namespace fzmod::encoders
