// Unit tests: decoder resource guards and structural validation added
// after fuzzing (DESIGN.md inventory row 23). Each test forges a specific
// corruption the guards must catch *by name*, complementing the random
// fuzz suite.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "fzmod/baselines/compressor.hh"
#include "fzmod/common/error.hh"
#include "fzmod/core/archive_format.hh"
#include "fzmod/core/pipeline.hh"
#include "fzmod/encoders/huffman.hh"
#include "fzmod/lossless/lz.hh"

namespace fzmod {
namespace {

std::vector<f32> field(std::size_t n) {
  std::vector<f32> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<f32>(std::sin(0.01 * static_cast<f64>(i)) * 10);
  }
  return v;
}

/// Scope guard that turns digest verification off, so tests exercise the
/// *structural* guards directly (with digests on, any header forgery is
/// caught by the header self-digest before the structural check runs).
struct verify_off {
  verify_off() { core::fmt::set_verify_enabled(false); }
  ~verify_off() { core::fmt::set_verify_enabled(true); }
};

// Forge an archive whose inner header declares absurd dims and verify the
// resource guard fires before any allocation-sized-by-dims happens.
TEST(Hardening, ForgedDimsRejected) {
  const verify_off off;
  const dims3 d{1000};
  const auto v = field(d.len());
  core::pipeline<f32> p(core::pipeline_config{});
  auto archive = p.compress(v, d);
  // inner_header.dims sits after outer(16) + magic(4)+ver(2)+type(1)+
  // mode(1)+eb(8)+ebx2(8) = offset 16+24 = 40.
  u64 huge = u64{1} << 60;
  std::memcpy(archive.data() + 40, &huge, sizeof(huge));
  try {
    (void)p.decompress(archive);
    FAIL() << "should have thrown";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive);
  }
}

TEST(Hardening, ForgedOutlierCountRejected) {
  const verify_off off;
  const dims3 d{2000};
  const auto v = field(d.len());
  core::pipeline<f32> p(core::pipeline_config{});
  auto archive = p.compress(v, d);
  const auto info = core::inspect_archive(archive);
  // n_outliers field offset in the inner header: after outer(16) +
  // magic..radius+hist+pad (4+2+1+1+8+8+24+4+1+3 = 56) + 3 names (48) =
  // 16 + 56 + 48 = 120.
  u64 huge = u64{1} << 40;
  std::memcpy(archive.data() + 120, &huge, sizeof(huge));
  EXPECT_THROW((void)p.decompress(archive), error);
  (void)info;
}

TEST(Hardening, VarintOverflowRejected) {
  // A 10th varint byte may only hold bit 63; any higher payload bit used
  // to be shifted out silently, decoding a different value than encoded.
  const u8 bytes[] = {0x80, 0x80, 0x80, 0x80, 0x80,
                      0x80, 0x80, 0x80, 0x80, 0x02};
  const u8* p = bytes;
  try {
    (void)core::fmt::get_varint(p, bytes + sizeof(bytes));
    FAIL() << "should have thrown";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive);
  }
  // Bit 63 alone is a legitimate encoding and must still decode.
  std::vector<u8> top;
  core::fmt::put_varint(top, u64{1} << 63);
  const u8* q = top.data();
  EXPECT_EQ(core::fmt::get_varint(q, top.data() + top.size()),
            u64{1} << 63);
}

TEST(Hardening, OutlierIndexWraparoundRejected) {
  // Delta-coded outlier indices accumulate in a u64; a hostile delta that
  // wraps the accumulator (or merely exits the field) must throw, not
  // hand a scatter loop an in-range-looking index.
  std::vector<u8> packed;
  core::fmt::put_varint(packed, 10);                   // index 10: fine
  core::fmt::put_varint(packed, zigzag_encode64(1));   // value
  core::fmt::put_varint(packed, ~u64{0} - 5);          // wrapping delta
  core::fmt::put_varint(packed, zigzag_encode64(2));
  try {
    (void)core::fmt::unpack_outliers(packed, 2, 1000);
    FAIL() << "should have thrown";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive);
  }
  // In-range deltas still unpack.
  std::vector<u8> good;
  core::fmt::put_varint(good, 10);
  core::fmt::put_varint(good, zigzag_encode64(1));
  core::fmt::put_varint(good, 989);  // lands on index 999 < 1000
  core::fmt::put_varint(good, zigzag_encode64(2));
  const auto out = core::fmt::unpack_outliers(good, 2, 1000);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].index, 999u);
}

TEST(Hardening, ZeroAnchorStrideRejected) {
  // anchor_stride = 0 would pin the anchor lattice walk in place.
  core::fmt::inner_header hdr{};
  hdr.dims[0] = 100;
  hdr.dims[1] = hdr.dims[2] = 1;
  hdr.n_anchors = 4;
  hdr.anchor_stride = 0;
  try {
    core::fmt::validate_anchor_geometry(hdr, dims3{100});
    FAIL() << "should have thrown";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive);
  }
  // A count inconsistent with dims/stride is equally hostile.
  hdr.anchor_stride = 64;
  hdr.n_anchors = 3;  // (100-1)/64+1 = 2 expected
  EXPECT_THROW(core::fmt::validate_anchor_geometry(hdr, dims3{100}), error);
  hdr.n_anchors = 2;
  EXPECT_NO_THROW(core::fmt::validate_anchor_geometry(hdr, dims3{100}));
}

TEST(Hardening, ForeignAnchorStrideRejected) {
  // Re-header a spline archive to anchor_stride 128 with the matching
  // anchor count, so the geometry check passes. Under that stride the
  // spline traversal (which refines from stride 64) would reach neither
  // x = 64 nor x = 192, and decode would return unwritten memory there.
  const verify_off off;
  const dims3 d{256};
  const auto v = field(d.len());
  core::pipeline_config cfg;
  cfg.predictor = core::predictor_spline;
  core::pipeline<f32> p(cfg);
  auto archive = p.compress(v, d);
  core::fmt::inner_header hdr;
  std::memcpy(&hdr, archive.data() + 16, sizeof(hdr));
  ASSERT_EQ(hdr.anchor_stride, 64u);
  ASSERT_EQ(hdr.n_anchors, 4u);
  const std::size_t anchors_at =
      16 + sizeof(hdr) + hdr.codec_bytes + hdr.outlier_bytes +
      hdr.n_value_outliers * sizeof(core::fmt::vo_record);
  // Keep two of the four stored anchors.
  archive.erase(archive.begin() + static_cast<std::ptrdiff_t>(anchors_at + 8),
                archive.begin() + static_cast<std::ptrdiff_t>(anchors_at + 16));
  hdr.anchor_stride = 128;
  hdr.n_anchors = 2;
  std::memcpy(archive.data() + 16, &hdr, sizeof(hdr));
  EXPECT_NO_THROW(core::fmt::validate_anchor_geometry(hdr, d));
  try {
    (void)p.decompress(archive);
    FAIL() << "should have thrown";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive);
  }
}

TEST(Hardening, HuffmanNonMonotonicOffsetsRejected) {
  std::vector<u16> codes(3 * encoders::huffman_chunk, 5);
  codes[1] = 6;
  std::vector<u32> hist(16, 0);
  for (const u16 c : codes) hist[c]++;
  auto blob = encoders::huffman_encode(codes, hist);
  // Offsets table starts after header(24) + nbins(16) bytes.
  const std::size_t off_table = 24 + 16;
  u64 bogus = u64{1} << 50;
  std::memcpy(blob.data() + off_table + 8, &bogus, sizeof(bogus));
  std::vector<u16> out(codes.size());
  EXPECT_THROW(encoders::huffman_decode(blob, out), error);
}

TEST(Hardening, HuffmanChunkCountMismatchRejected) {
  std::vector<u16> codes(1000, 3);
  codes[0] = 2;
  std::vector<u32> hist(8, 0);
  for (const u16 c : codes) hist[c]++;
  auto blob = encoders::huffman_encode(codes, hist);
  // header: magic(4) nbins(4) count(8) nchunks(4) chunk(4); corrupt
  // nchunks at offset 16.
  u32 bogus = 77;
  std::memcpy(blob.data() + 16, &bogus, sizeof(bogus));
  std::vector<u16> out(codes.size());
  EXPECT_THROW(encoders::huffman_decode(blob, out), error);
}

TEST(Hardening, HuffmanKraftViolationRejected) {
  std::vector<u16> codes(1000);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<u16>(i % 8);
  }
  std::vector<u32> hist(8, 0);
  for (const u16 c : codes) hist[c]++;
  auto blob = encoders::huffman_encode(codes, hist);
  // Code lengths live right after the 24-byte header; setting them all to
  // 1 over-subscribes the code space.
  for (int k = 0; k < 8; ++k) blob[24 + k] = 1;
  std::vector<u16> out(codes.size());
  EXPECT_THROW(encoders::huffman_decode(blob, out), error);
}

TEST(Hardening, LzForgedRawSizeRejected) {
  std::vector<u8> raw(10000, 42);
  auto blob = lossless::compress(raw);
  // header: magic(4) mode(4) raw_size(8) at offset 8.
  u64 huge = u64{1} << 50;
  std::memcpy(blob.data() + 8, &huge, sizeof(huge));
  EXPECT_THROW((void)lossless::decompress(blob), error);
}

TEST(Hardening, BaselineForgedSizesRejected) {
  const dims3 d{5000};
  const auto v = field(d.len());
  for (const auto& name : {"cuSZp2", "PFPL", "FZ-GPU"}) {
    auto c = baselines::make(name);
    auto archive = c->compress(v, d, {1e-3, eb_mode::rel});
    // Every baseline header stores its element count / dims in the first
    // 48 bytes; blast that region with a huge value at every offset and
    // require containment (throw or clean result, never a crash).
    for (std::size_t off = 8; off + 8 <= 48; off += 8) {
      auto mutated = archive;
      u64 huge = u64{1} << 58;
      std::memcpy(mutated.data() + off, &huge, sizeof(huge));
      auto fresh = baselines::make(name);
      try {
        (void)fresh->decompress(mutated);
      } catch (const error&) {
        // contained
      }
    }
  }
  SUCCEED();
}

TEST(Hardening, GuardsDoNotRejectLegitimateLargeArchives) {
  // A real 1M-element field must still round-trip through all guards.
  const dims3 d{1u << 20};
  const auto v = field(d.len());
  core::pipeline<f32> p(core::pipeline_config{});
  const auto rec = p.decompress(p.compress(v, d));
  EXPECT_EQ(rec.size(), v.size());
}

}  // namespace
}  // namespace fzmod
