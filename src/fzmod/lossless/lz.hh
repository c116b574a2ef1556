// FZModules — general-purpose lossless codec (the secondary-encoder slot).
//
// The paper wires zstd in as the optional secondary lossless encoder; no
// zstd is available offline, so this module fills the same pipeline slot
// with the same construction zstd uses at its core: LZ77 dictionary
// matching (64 KiB window, hash-chain search, LZ4-style sequence framing)
// followed by canonical Huffman entropy coding of the token stream.
//
// Input is segmented (1 MiB) so match-finding parallelizes across the
// worker pool; the Huffman pass is chunk-parallel already.
#pragma once

#include <span>
#include <vector>

#include "fzmod/common/types.hh"

namespace fzmod::lossless {

/// Compress an arbitrary byte blob. Never fails; incompressible input
/// grows by a small framing overhead (stored-mode fallback keeps the
/// expansion bounded by ~0.1% + 64 bytes).
[[nodiscard]] std::vector<u8> compress(std::span<const u8> raw);

/// compress(), appending the blob to `out` (which may already hold, say,
/// an outer archive header) instead of returning a fresh vector.
void compress_into(std::span<const u8> raw, std::vector<u8>& out);

/// Decompress a blob produced by compress(). Throws on corruption.
[[nodiscard]] std::vector<u8> decompress(std::span<const u8> blob);

/// Decompressed size without doing the work (archive sizing).
[[nodiscard]] u64 decompressed_size(std::span<const u8> blob);

}  // namespace fzmod::lossless
