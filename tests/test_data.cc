// Unit tests: synthetic dataset generators and raw field I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "fzmod/common/error.hh"
#include "fzmod/data/datasets.hh"
#include "fzmod/data/io.hh"
#include "fzmod/kernels/stats.hh"

namespace fzmod::data {
namespace {

TEST(Catalog, HasTheFourPaperDatasets) {
  const auto cat = catalog();
  ASSERT_EQ(cat.size(), 4u);
  EXPECT_EQ(cat[0].name, "CESM-ATM");
  EXPECT_EQ(cat[1].name, "HACC");
  EXPECT_EQ(cat[2].name, "HURR");
  EXPECT_EQ(cat[3].name, "Nyx");
  // Paper dims recorded (Table 2).
  EXPECT_EQ(cat[0].paper_dims, dims3(3600, 1800, 26));
  EXPECT_EQ(cat[1].paper_dims, dims3(280953867));
  EXPECT_EQ(cat[2].paper_dims, dims3(500, 500, 100));
  EXPECT_EQ(cat[3].paper_dims, dims3(512, 512, 512));
}

TEST(Catalog, FullscaleSwitchesToPaperDims) {
  for (const auto& ds : catalog(true)) {
    EXPECT_EQ(ds.dims, ds.paper_dims) << ds.name;
  }
  for (const auto& ds : catalog(false)) {
    EXPECT_LE(ds.dims.len(), ds.paper_dims.len()) << ds.name;
  }
}

TEST(Generate, DeterministicPerField) {
  const auto ds = describe(dataset_id::hurr);
  const auto a = generate(ds, 2);
  const auto b = generate(ds, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 1009) EXPECT_EQ(a[i], b[i]);
}

TEST(Generate, FieldsDiffer) {
  const auto ds = describe(dataset_id::cesm);
  const auto a = generate(ds, 0);
  const auto b = generate(ds, 1);
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < a.size(); i += 101) diffs += (a[i] != b[i]);
  EXPECT_GT(diffs, a.size() / 101 / 2);
}

TEST(Generate, AllFiniteAcrossCatalog) {
  for (const auto& ds : catalog()) {
    const auto v = generate(ds, 0);
    ASSERT_EQ(v.size(), ds.dims.len()) << ds.name;
    for (std::size_t i = 0; i < v.size(); i += 317) {
      ASSERT_TRUE(std::isfinite(v[i])) << ds.name << " @ " << i;
    }
  }
}

TEST(Generate, OutOfRangeFieldThrows) {
  const auto ds = describe(dataset_id::nyx);
  EXPECT_THROW((void)generate(ds, ds.n_fields), error);
  EXPECT_THROW((void)generate(ds, -1), error);
}

TEST(Generate, NyxDensityHasHugeDynamicRange) {
  // The log-normal field drives the paper's extreme Nyx CRs.
  const auto ds = describe(dataset_id::nyx);
  const auto v = generate(ds, 0);
  const auto mm = kernels::minmax_host<f32>(v);
  EXPECT_GT(mm.max / std::max(mm.min, 1e-30f), 1e3);
  EXPECT_GT(mm.min, 0.0f);  // densities are positive
}

TEST(Generate, HaccParticlesRoughCesmSmooth) {
  // Fine-scale roughness separates the regimes that drive Table 3: a
  // climate field varies gently cell-to-cell, while consecutive particles
  // (even halo-grouped ones) jump by the halo radius. Mean |delta| as a
  // fraction of range is the quantizer's-eye view of that.
  auto rel_delta = [](const std::vector<f32>& v) {
    f64 lo = v[0], hi = v[0], sum = 0;
    for (const f32 x : v) {
      lo = std::min<f64>(lo, x);
      hi = std::max<f64>(hi, x);
    }
    for (std::size_t i = 0; i + 1 < v.size(); ++i) {
      sum += std::fabs(static_cast<f64>(v[i + 1]) - v[i]);
    }
    return sum / static_cast<f64>(v.size() - 1) / (hi - lo);
  };
  const auto cesm = generate(describe(dataset_id::cesm), 0);
  const auto hacc = generate(describe(dataset_id::hacc), 0);
  EXPECT_GT(rel_delta(hacc), 20 * rel_delta(cesm));
}

TEST(Generate, HaccVelocityFieldsCentredAtZero) {
  const auto ds = describe(dataset_id::hacc);
  const auto v = generate(ds, 3);
  f64 mean = 0;
  for (const f32 x : v) mean += x;
  mean /= static_cast<f64>(v.size());
  EXPECT_NEAR(mean, 0.0, 10.0);
}

/// Run `f`, expecting an fzmod::error with status::invalid_argument.
template <class F>
void expect_invalid_argument(F f) {
  try {
    f();
    ADD_FAILURE() << "expected status::invalid_argument";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::invalid_argument) << e.what();
  }
}

TEST(Io, RoundTripRawField) {
  const auto path =
      (std::filesystem::temp_directory_path() / "fzmod_io_test.f32")
          .string();
  std::vector<f32> v{1.5f, -2.25f, 3.75f, 0.0f, 1e30f, -1e-30f};
  store_f32_field(path, v);
  const auto back = load_f32_field(path, dims3(v.size()));
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(back[i], v[i]);
  std::remove(path.c_str());
}

TEST(Io, SizeMismatchThrows) {
  const auto path =
      (std::filesystem::temp_directory_path() / "fzmod_io_test2.f32")
          .string();
  std::vector<f32> v(10, 1.0f);
  store_f32_field(path, v);
  expect_invalid_argument([&] { (void)load_f32_field(path, dims3(11)); });
  expect_invalid_argument([&] { (void)load_f32_field(path, dims3(9)); });
  // A byte count that is not a whole number of values is short too.
  write_file(path, std::vector<u8>(10 * sizeof(f32) - 1, 0));
  expect_invalid_argument([&] { (void)load_f32_field(path, dims3(10)); });
  std::remove(path.c_str());
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW((void)read_file("/nonexistent/fzmod/path.bin"), error);
  expect_invalid_argument([] {
    (void)load_f32_field("/nonexistent/fzmod/path.f32", dims3(10));
  });
}

TEST(Io, ReadIntoFillsAnExactSpan) {
  const auto path =
      (std::filesystem::temp_directory_path() / "fzmod_io_test3.bin")
          .string();
  const std::vector<u8> bytes{1, 2, 3, 4, 5, 6, 7, 8, 9};
  write_file(path, bytes);
  std::vector<u8> dst(bytes.size(), 0xEE);
  read_into(path, dst);
  EXPECT_EQ(dst, bytes);
  std::remove(path.c_str());
}

TEST(Io, ReadIntoRejectsSizeMismatchShortAndMissingFiles) {
  const auto path =
      (std::filesystem::temp_directory_path() / "fzmod_io_test4.bin")
          .string();
  write_file(path, std::vector<u8>(10, 7));
  std::vector<u8> longer(11), shorter(9);
  expect_invalid_argument([&] { read_into(path, longer); });   // short file
  expect_invalid_argument([&] { read_into(path, shorter); });  // long file
  expect_invalid_argument(
      [&] { read_into("/nonexistent/fzmod/path.bin", shorter); });
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fzmod::data
