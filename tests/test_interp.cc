// Unit + property tests: multi-level interpolation (G-Interp) predictor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>

#include "fzmod/common/hash.hh"
#include "fzmod/common/rng.hh"
#include "fzmod/core/pipeline.hh"
#include "fzmod/metrics/metrics.hh"
#include "fzmod/predictors/interp.hh"
#include "fzmod/predictors/lorenzo.hh"
#include "fzmod/spec/spec.hh"

namespace fzmod::predictors {
namespace {

template <class T>
device::buffer<T> to_device(const std::vector<T>& v) {
  device::buffer<T> d(v.size(), device::space::device);
  std::memcpy(d.data(), v.data(), v.size() * sizeof(T));
  return d;
}

struct interp_roundtrip_result {
  std::vector<f32> rec;
  quant_field field;
  interp_anchors anchors;
};

interp_roundtrip_result roundtrip(const std::vector<f32>& v, dims3 dims,
                                  f64 eb, int radius = default_radius) {
  interp_roundtrip_result out;
  auto dev = to_device(v);
  device::stream s;
  interp_compress_async(dev, dims, 2 * eb, radius, out.field, out.anchors,
                        s);
  s.sync();
  device::buffer<f32> rec(dims.len(), device::space::device);
  interp_decompress_async(out.field, out.anchors, rec, s);
  s.sync();
  out.rec.resize(dims.len());
  std::memcpy(out.rec.data(), rec.data(), rec.bytes());
  return out;
}

TEST(Interp, RoundTrip1D) {
  std::vector<f32> v(3001);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<f32>(std::sin(0.01 * static_cast<f64>(i)) * 20);
  }
  const f64 eb = 1e-4;
  const auto rt = roundtrip(v, dims3(v.size()), eb);
  const auto err = metrics::compare(v, rt.rec);
  EXPECT_LE(err.max_abs_err, metrics::f32_bound_slack(eb, 20.0));
}

TEST(Interp, RoundTrip2D) {
  const dims3 d{130, 121};
  std::vector<f32> v(d.len());
  for (std::size_t y = 0; y < d.y; ++y) {
    for (std::size_t x = 0; x < d.x; ++x) {
      v[d.at(x, y, 0)] = static_cast<f32>(
          std::sin(0.04 * x) * std::cos(0.05 * y) * 100 + 0.3 * x);
    }
  }
  const f64 eb = 1e-3;
  const auto rt = roundtrip(v, d, eb);
  const auto err = metrics::compare(v, rt.rec);
  EXPECT_LE(err.max_abs_err, metrics::f32_bound_slack(eb, 150.0));
}

TEST(Interp, RoundTrip3DNonPowerOfTwo) {
  const dims3 d{37, 41, 23};
  rng r(20);
  std::vector<f32> v(d.len());
  for (std::size_t z = 0; z < d.z; ++z) {
    for (std::size_t y = 0; y < d.y; ++y) {
      for (std::size_t x = 0; x < d.x; ++x) {
        v[d.at(x, y, z)] = static_cast<f32>(
            std::sin(0.1 * x) + std::cos(0.12 * y) + 0.05 * z +
            0.01 * r.normal());
      }
    }
  }
  const f64 eb = 1e-3;
  const auto rt = roundtrip(v, d, eb);
  const auto err = metrics::compare(v, rt.rec);
  EXPECT_LE(err.max_abs_err, metrics::f32_bound_slack(eb, 5.0));
}

TEST(Interp, AnchorsAreStoredOnStrideLattice) {
  const dims3 d{129, 129};
  std::vector<f32> v(d.len(), 0.0f);
  const auto rt = roundtrip(v, d, 1e-3);
  // ceil(129/64) = 3 anchor coordinates per dim (0, 64, 128).
  EXPECT_EQ(rt.anchors.stride, interp_anchor_stride);
  EXPECT_EQ(rt.anchors.lattice.size(), 9u);
}

TEST(Interp, SmootherFieldYieldsMoreConcentratedCodes) {
  // The spline predictor's selling point: on smooth data its codes cluster
  // at the radius (zero error) much more tightly than Lorenzo's.
  const dims3 d{200, 200};
  std::vector<f32> v(d.len());
  for (std::size_t y = 0; y < d.y; ++y) {
    for (std::size_t x = 0; x < d.x; ++x) {
      v[d.at(x, y, 0)] = static_cast<f32>(
          std::sin(0.02 * x) * std::cos(0.015 * y) * 1000);
    }
  }
  const f64 eb = 1e-5 * 2000;  // rel-1e-5-like

  const auto rt = roundtrip(v, d, eb);
  auto dev = to_device(v);
  quant_field lz;
  device::stream s;
  lorenzo_compress_async(dev, d, 2 * eb, default_radius, lz, s);
  s.sync();

  auto center_hits = [&](const quant_field& f) {
    u64 hits = 0;
    for (std::size_t i = 0; i < d.len(); ++i) {
      hits += (f.codes.data()[i] == static_cast<u16>(default_radius));
    }
    return hits;
  };
  EXPECT_GT(center_hits(rt.field), center_hits(lz));
}

TEST(Interp, ConstantField) {
  const dims3 d{65, 65, 65};
  std::vector<f32> v(d.len(), -7.5f);
  const auto rt = roundtrip(v, d, 1e-4);
  EXPECT_EQ(rt.field.n_outliers, 0u);
  for (std::size_t i = 0; i < d.len(); i += 1000) {
    EXPECT_NEAR(rt.rec[i], -7.5f, 1e-4);
  }
}

TEST(Interp, TinyFieldsSmallerThanAnchorStride) {
  for (const std::size_t n : {1u, 2u, 3u, 7u, 63u}) {
    std::vector<f32> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<f32>(i * i);
    const f64 eb = 1e-3;
    const auto rt = roundtrip(v, dims3(n), eb);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(rt.rec[i], v[i], eb * (1 + 1e-6)) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Interp, HugeMagnitudesGoThroughValueOutlierChannel) {
  std::vector<f32> v(100, 1.0f);
  v[37] = 4.2e30f;
  const f64 eb = 1e-4;
  const auto rt = roundtrip(v, dims3(v.size()), eb);
  EXPECT_EQ(rt.rec[37], 4.2e30f);
  EXPECT_NEAR(rt.rec[36], 1.0f, eb * 2);
}

TEST(Interp, SideChannelPrecedenceOnDecode) {
  // A raw value outlier beats a lattice fallback at the same index, and an
  // anchor ignores a fallback entry aimed at it (hostile-archive shapes).
  std::vector<f32> v(100, 1.0f);
  v[37] = 4.2e30f;
  const f64 eb = 1e-4;
  auto rt = roundtrip(v, dims3(v.size()), eb);
  quant_field& f = rt.field;
  const u64 n = f.n_outliers;
  device::buffer<kernels::outlier> more(n + 2, device::space::device);
  std::copy(f.outliers.data(), f.outliers.data() + n, more.data());
  more.data()[n] = {37, 5};
  more.data()[n + 1] = {0, 9};  // index 0 is an anchor
  f.outliers = std::move(more);
  f.n_outliers = n + 2;
  device::buffer<f32> rec(v.size(), device::space::device);
  device::stream s;
  interp_decompress_async(f, rt.anchors, rec, s);
  s.sync();
  EXPECT_EQ(rec.data()[37], 4.2e30f);
  EXPECT_NEAR(rec.data()[0], 1.0f, eb * 2);
}

TEST(Interp, EveryPointWrittenOverDirtyScratch) {
  // Neither direction clears its retained buffers, so every point must be
  // an anchor or a traversal target. Poison them; the results must still
  // match a run on fresh buffers.
  const f32 nan = std::numeric_limits<f32>::quiet_NaN();
  for (const dims3 d : {dims3{1}, dims3{7}, dims3{65, 3}, dims3{130, 67, 9},
                        dims3{200, 1, 70}}) {
    rng r(5);
    std::vector<f32> v(d.len());
    for (auto& x : v) x = static_cast<f32>(r.uniform(-1, 1));
    const f64 eb = 1e-3;
    const auto clean = roundtrip(v, d, eb);
    const std::size_t n = d.len();

    quant_field f;
    interp_anchors a;
    f.codes.ensure(n, device::space::device);
    f.recon_scratch.ensure(n, device::space::device);
    std::fill_n(f.codes.data(), n, u16{0xffff});
    std::fill_n(f.recon_scratch.data(), n, f64{nan});
    auto dev = to_device(v);
    device::stream s;
    interp_compress_async(dev, d, 2 * eb, default_radius, f, a, s);
    s.sync();
    EXPECT_TRUE(std::equal(f.codes.data(), f.codes.data() + n,
                           clean.field.codes.data()))
        << d.x << "x" << d.y << "x" << d.z;

    std::fill_n(f.recon_scratch.data(), n, f64{nan});
    device::buffer<f32> rec(n, device::space::device);
    std::fill_n(rec.data(), n, nan);
    interp_decompress_async(f, a, rec, s);
    s.sync();
    EXPECT_TRUE(std::equal(rec.data(), rec.data() + n, clean.rec.begin()))
        << d.x << "x" << d.y << "x" << d.z;
  }
}

TEST(Interp, ForeignAnchorStrideRejected) {
  // The traversal refines from interp_anchor_stride; a stride-128 lattice
  // on a 256-wide field leaves x = 64 and x = 192 unreached.
  std::vector<f32> v(256, 1.0f);
  auto rt = roundtrip(v, dims3(v.size()), 1e-3);
  rt.anchors.stride = 128;
  rt.anchors.lattice.resize(2);
  device::buffer<f32> rec(v.size(), device::space::device);
  device::stream s;
  try {
    interp_decompress_async(rt.field, rt.anchors, rec, s);
    s.sync();
    FAIL() << "should have thrown";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive);
  }
}

TEST(Interp, RoughDataBoundStillHolds) {
  rng r(21);
  const dims3 d{64, 64, 16};
  std::vector<f32> v(d.len());
  for (auto& x : v) x = static_cast<f32>(r.uniform(-100, 100));
  const f64 eb = 1e-2;
  const auto rt = roundtrip(v, d, eb);
  const auto err = metrics::compare(v, rt.rec);
  EXPECT_LE(err.max_abs_err, metrics::f32_bound_slack(eb, 100.0));
  // Rough data must be funneled through outliers, not silently distorted.
  EXPECT_GT(rt.field.n_outliers, 0u);
}

class InterpEbSweep : public ::testing::TestWithParam<f64> {};

TEST_P(InterpEbSweep, BoundHolds) {
  const f64 eb = GetParam();
  const dims3 d{77, 53};
  rng r(22);
  std::vector<f32> v(d.len());
  for (std::size_t y = 0; y < d.y; ++y) {
    for (std::size_t x = 0; x < d.x; ++x) {
      v[d.at(x, y, 0)] =
          static_cast<f32>(std::sin(0.07 * x) * 40 + r.normal());
    }
  }
  const auto rt = roundtrip(v, d, eb);
  const auto err = metrics::compare(v, rt.rec);
  EXPECT_LE(err.max_abs_err, metrics::f32_bound_slack(eb, 50.0)) << eb;
}

INSTANTIATE_TEST_SUITE_P(Bounds, InterpEbSweep,
                         ::testing::Values(1.0, 1e-1, 1e-2, 1e-3, 1e-4));

TEST(Interp, HigherAccuracyThanLorenzoOnSmoothData) {
  // FZMod-Quality's premise (paper §3.3): interpolation predicts smooth
  // fields better, leaving fewer/narrower residuals.
  const dims3 d{150, 150};
  std::vector<f32> v(d.len());
  for (std::size_t y = 0; y < d.y; ++y) {
    for (std::size_t x = 0; x < d.x; ++x) {
      v[d.at(x, y, 0)] = static_cast<f32>(
          std::exp(-0.001 * ((x - 75.0) * (x - 75.0) +
                             (y - 75.0) * (y - 75.0))) *
          500);
    }
  }
  const f64 eb = 5e-4;
  const auto rt = roundtrip(v, d, eb);
  auto dev = to_device(v);
  quant_field lz;
  device::stream s;
  lorenzo_compress_async(dev, d, 2 * eb, default_radius, lz, s);
  s.sync();

  // Compare residual entropy proxies: sum of |code - radius|.
  auto residual_mass = [&](const quant_field& f) {
    u64 mass = 0;
    for (std::size_t i = 0; i < d.len(); ++i) {
      const u16 c = f.codes.data()[i];
      if (c) mass += static_cast<u64>(std::abs(c - default_radius));
    }
    return mass;
  };
  EXPECT_LT(residual_mass(rt.field), residual_mass(lz));
}

// ---- byte identity ---------------------------------------------------------
//
// Golden xxhash64 digests of everything the predictor emits (codes, the
// index-sorted outlier and value-outlier lists, anchors) followed by the
// reconstructed field. Archives embed these bytes, so a traversal rewrite
// must reproduce them exactly. Inputs are built from integer draws and
// correctly rounded + - * only, so they are identical on every platform.

enum class golden_field { smooth, rough, huge };

template <class T>
std::vector<T> golden_input(dims3 d, golden_field kind, u64 seed) {
  rng r(seed);
  std::vector<T> v(d.len());
  for (std::size_t z = 0; z < d.z; ++z) {
    for (std::size_t y = 0; y < d.y; ++y) {
      for (std::size_t x = 0; x < d.x; ++x) {
        const f64 fx = static_cast<f64>(x), fy = static_cast<f64>(y),
                  fz = static_cast<f64>(z);
        const f64 noise = static_cast<f64>(r.next_u64() >> 44) * 0x1.0p-20;
        f64 val = 0.5 * fx - 0.002 * fx * fx + 0.25 * fy - 0.01 * fy * fz +
                  0.125 * fz + 0.003 * noise;
        if (kind == golden_field::rough) val = 200.0 * noise - 100.0;
        v[d.at(x, y, z)] = static_cast<T>(val);
      }
    }
  }
  if (kind == golden_field::huge) {
    // |x / ebx2| >= 2^27 at index 0 (an anchor) and every 97th point.
    for (std::size_t i = 0; i < v.size(); i += 97) {
      v[i] = static_cast<T>((i % 2 ? -3.0e9 : 3.0e9) + static_cast<f64>(i));
    }
  }
  return v;
}

void append_bytes(std::vector<u8>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const u8*>(p);
  out.insert(out.end(), b, b + n);
}

template <class T>
u64 golden_digest(dims3 d, golden_field kind, f64 eb) {
  const auto v = golden_input<T>(d, kind, 90 + d.len());
  auto dev = to_device(v);
  quant_field field;
  interp_anchors anchors;
  device::stream s;
  interp_compress_async(dev, d, 2 * eb, default_radius, field, anchors, s);
  s.sync();
  device::buffer<T> rec(d.len(), device::space::device);
  interp_decompress_async(field, anchors, rec, s);
  s.sync();

  // Side channels are collected from concurrent workers: sort them, as
  // the archive writer does, before hashing.
  std::vector<kernels::outlier> outliers(
      field.outliers.data(), field.outliers.data() + field.n_outliers);
  std::sort(outliers.begin(), outliers.end(),
            [](const auto& a, const auto& b) { return a.index < b.index; });
  auto vo = field.value_outliers;
  std::sort(vo.begin(), vo.end());

  std::vector<u8> bytes;
  append_bytes(bytes, field.codes.data(), field.codes.bytes());
  for (const auto& o : outliers) {
    append_bytes(bytes, &o.index, sizeof(o.index));
    append_bytes(bytes, &o.value, sizeof(o.value));
  }
  for (const auto& [idx, val] : vo) {
    append_bytes(bytes, &idx, sizeof(idx));
    append_bytes(bytes, &val, sizeof(val));
  }
  append_bytes(bytes, anchors.lattice.data(),
               anchors.lattice.size() * sizeof(i32));
  append_bytes(bytes, rec.data(), rec.bytes());
  if (kind == golden_field::rough) {
    EXPECT_GT(field.n_outliers, 0u);
  } else if (kind == golden_field::huge) {
    EXPECT_FALSE(field.value_outliers.empty());
  }
  return common::xxhash64(bytes.data(), bytes.size());
}

struct golden_case {
  dims3 dims;
  golden_field kind;
  f64 eb;
  u64 want_f32;
  u64 want_f64;
};

TEST(InterpGolden, PredictorOutputsAndReconstruction) {
  const golden_case cases[] = {
      {dims3(1), golden_field::smooth, 1e-3, 0x246b3c5abbeacb62ULL,
       0x3ad0356546aa1edeULL},
      {dims3(7), golden_field::smooth, 1e-3, 0x31b44c5886ab9d70ULL,
       0x17b1f435443a8609ULL},
      {dims3(65, 3), golden_field::smooth, 1e-3, 0xc92af3301240231cULL,
       0x7dec177dc72c789cULL},
      {dims3(130, 67, 9), golden_field::smooth, 1e-3, 0x25eb527ffe51845cULL,
       0x0c883c9d2c163f80ULL},
      {dims3(128, 128, 32), golden_field::smooth, 1e-3,
       0xd60fe31409bb4260ULL, 0x9cf0539021b84089ULL},
      {dims3(65, 3), golden_field::rough, 1e-2, 0x75c3917bcaabd90dULL,
       0x6594f12cb3c05887ULL},
      {dims3(130, 67, 9), golden_field::rough, 1e-2, 0x363cb0c59498f1a4ULL,
       0x84dee01688eec302ULL},
      {dims3(7), golden_field::huge, 1e-3, 0x9b88f90d0fb9e481ULL,
       0x36b5dfa246f1ad52ULL},
      {dims3(130, 67, 9), golden_field::huge, 1e-3, 0x2042a4787701b996ULL,
       0x461d9f52ac41e9ecULL},
  };
  for (const auto& c : cases) {
    const u64 got32 = golden_digest<f32>(c.dims, c.kind, c.eb);
    const u64 got64 = golden_digest<f64>(c.dims, c.kind, c.eb);
    EXPECT_EQ(got32, c.want_f32)
        << std::hex << "f32 got 0x" << got32 << std::dec << " dims "
        << c.dims.x << "x" << c.dims.y << "x" << c.dims.z << " kind "
        << static_cast<int>(c.kind);
    EXPECT_EQ(got64, c.want_f64)
        << std::hex << "f64 got 0x" << got64 << std::dec << " dims "
        << c.dims.x << "x" << c.dims.y << "x" << c.dims.z << " kind "
        << static_cast<int>(c.kind);
  }
}

TEST(InterpGolden, QualityPipelineArchive) {
  // The stream-archive spec, whole: value-range preprocess, spline,
  // top-k Huffman, LZ secondary.
  const dims3 d{128, 128, 32};
  const auto v = golden_input<f32>(d, golden_field::smooth, 93);
  const core::pipeline_config cfg = spec::to_config(
      spec::parse("value-range+spline+huffman(hist=topk)+lz"),
      eb_config{1e-4, eb_mode::rel});
  core::pipeline<f32> p(cfg);
  const auto archive = p.compress(std::span<const f32>(v), d);
  const auto rec = p.decompress(archive);
  const u64 got_archive = common::xxhash64(archive.data(), archive.size());
  const u64 got_rec = common::xxhash64(rec.data(), rec.size() * sizeof(f32));
  EXPECT_EQ(got_archive, 0x4f45ee7bd2227f55ULL)
      << std::hex << "got 0x" << got_archive;
  EXPECT_EQ(got_rec, 0x735c545baffa7f3bULL)
      << std::hex << "got 0x" << got_rec;
}

}  // namespace
}  // namespace fzmod::predictors
