// FZModules — raw binary field I/O (SDRBench convention: headerless
// little-endian f32/f64 arrays, dims supplied out of band).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "fzmod/common/types.hh"

namespace fzmod::data {

/// Read a whole binary file. Throws on missing/unreadable files.
[[nodiscard]] std::vector<u8> read_file(const std::string& path);

/// Read a file of exactly dst.size() bytes straight into `dst` (one
/// read, no staging buffer). Throws status::invalid_argument when the
/// file is missing, its size differs from dst.size(), or the read comes
/// up short.
void read_into(const std::string& path, std::span<u8> dst);

/// Write a whole binary file (overwrites). Throws on failure.
void write_file(const std::string& path, std::span<const u8> bytes);

/// Load a headerless f32 field of exactly dims.len() values (read_into
/// the result; a size mismatch throws status::invalid_argument).
[[nodiscard]] std::vector<f32> load_f32_field(const std::string& path,
                                              dims3 dims);

/// Store a field as raw f32 bytes.
void store_f32_field(const std::string& path, std::span<const f32> values);

}  // namespace fzmod::data
