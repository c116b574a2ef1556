#include "fzmod/data/io.hh"

#include <filesystem>
#include <fstream>
#include <span>
#include <string>

#include "fzmod/common/error.hh"

namespace fzmod::data {

std::vector<u8> read_file(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  FZMOD_REQUIRE(!ec, status::invalid_argument, "cannot open file: " + path);
  std::vector<u8> bytes(size);
  read_into(path, bytes);
  return bytes;
}

void read_into(const std::string& path, std::span<u8> dst) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  FZMOD_REQUIRE(f.good(), status::invalid_argument,
                "cannot open file: " + path);
  const auto size = static_cast<std::size_t>(f.tellg());
  FZMOD_REQUIRE(size == dst.size(), status::invalid_argument,
                "size mismatch for " + path + ": " +
                    std::to_string(size) + " bytes, expected " +
                    std::to_string(dst.size()));
  f.seekg(0);
  f.read(reinterpret_cast<char*>(dst.data()),
         static_cast<std::streamsize>(size));
  FZMOD_REQUIRE(static_cast<std::size_t>(f.gcount()) == size,
                status::invalid_argument, "short read: " + path);
}

void write_file(const std::string& path, std::span<const u8> bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  FZMOD_REQUIRE(f.good(), status::invalid_argument,
                "cannot create file: " + path);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  FZMOD_REQUIRE(f.good(), status::invalid_argument,
                "short write: " + path);
}

std::vector<f32> load_f32_field(const std::string& path, dims3 dims) {
  std::vector<f32> values(dims.len());
  read_into(path, {reinterpret_cast<u8*>(values.data()),
                   values.size() * sizeof(f32)});
  return values;
}

void store_f32_field(const std::string& path, std::span<const f32> values) {
  write_file(path,
             {reinterpret_cast<const u8*>(values.data()),
              values.size() * sizeof(f32)});
}

}  // namespace fzmod::data
