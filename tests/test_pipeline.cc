// Integration tests: pipeline composer — presets, archive format, module
// resolution, cross-pipeline decompression, stage timings.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "fzmod/common/rng.hh"
#include "fzmod/core/pipeline.hh"
#include "fzmod/metrics/metrics.hh"

namespace fzmod::core {
namespace {

std::vector<f32> smooth_field(dims3 d, u64 seed = 99) {
  rng r(seed);
  std::vector<f32> v(d.len());
  for (std::size_t z = 0; z < d.z; ++z) {
    for (std::size_t y = 0; y < d.y; ++y) {
      for (std::size_t x = 0; x < d.x; ++x) {
        v[d.at(x, y, z)] = static_cast<f32>(
            std::sin(0.05 * x) * std::cos(0.04 * y) * 30 + 0.2 * z +
            0.05 * r.normal());
      }
    }
  }
  return v;
}

struct PresetCase {
  const char* label;
  pipeline_config (*make)(eb_config);
};

class PipelinePresets : public ::testing::TestWithParam<PresetCase> {};

TEST_P(PipelinePresets, RoundTripHonoursRelativeBound) {
  const dims3 d{60, 50, 20};
  const auto v = smooth_field(d);
  const eb_config eb{1e-4, eb_mode::rel};
  pipeline<f32> p(GetParam().make(eb));
  const auto archive = p.compress(v, d);
  const auto rec = p.decompress(archive);
  const auto err = metrics::compare(v, rec);
  EXPECT_LE(err.max_abs_err,
            metrics::f32_bound_slack(eb.eb * err.range, err.range))
      << GetParam().label;
  EXPECT_GT(metrics::compression_ratio(v.size() * 4, archive.size()), 1.0);
}

TEST_P(PipelinePresets, RoundTripHonoursAbsoluteBound) {
  const dims3 d{40, 40, 15};
  const auto v = smooth_field(d, 123);
  const eb_config eb{1e-3, eb_mode::abs};
  pipeline<f32> p(GetParam().make(eb));
  const auto archive = p.compress(v, d);
  const auto rec = p.decompress(archive);
  const auto err = metrics::compare(v, rec);
  EXPECT_LE(err.max_abs_err, metrics::f32_bound_slack(eb.eb, 40.0))
      << GetParam().label;
}

TEST_P(PipelinePresets, ArchiveIsSelfDescribing) {
  const dims3 d{33, 17};
  const auto v = smooth_field(d, 7);
  const eb_config eb{1e-3, eb_mode::rel};
  pipeline<f32> p(GetParam().make(eb));
  const auto archive = p.compress(v, d);
  const auto info = inspect_archive(archive);
  EXPECT_EQ(info.dims, d);
  EXPECT_EQ(info.type, dtype::f32);
  EXPECT_DOUBLE_EQ(info.eb_user, eb.eb);
  EXPECT_EQ(info.mode, eb_mode::rel);
  EXPECT_GT(info.ebx2, 0.0);
}

TEST_P(PipelinePresets, FreshPipelineDecompressesForeignArchive) {
  // Decompression resolves modules from the archive header, not from the
  // decompressing pipeline's own config.
  const dims3 d{48, 48};
  const auto v = smooth_field(d, 8);
  pipeline<f32> producer(GetParam().make({1e-3, eb_mode::rel}));
  const auto archive = producer.compress(v, d);
  pipeline<f32> consumer(pipeline_config{});  // default config
  const auto rec = consumer.decompress(archive);
  const auto err = metrics::compare(v, rec);
  EXPECT_LE(err.max_abs_err,
            metrics::f32_bound_slack(1e-3 * err.range, err.range));
}

INSTANTIATE_TEST_SUITE_P(
    Presets, PipelinePresets,
    ::testing::Values(
        PresetCase{"default", &pipeline_config::preset_default},
        PresetCase{"speed", &pipeline_config::preset_speed},
        PresetCase{"quality", &pipeline_config::preset_quality}),
    [](const auto& info) { return std::string(info.param.label); });

TEST(Pipeline, SecondaryEncoderShrinksArchive) {
  const dims3 d{100, 100};
  const auto v = smooth_field(d, 9);
  auto cfg = pipeline_config::preset_default({1e-3, eb_mode::rel});
  pipeline<f32> plain(cfg);
  cfg.secondary = true;
  pipeline<f32> packed(cfg);
  const auto a_plain = plain.compress(v, d);
  const auto a_packed = packed.compress(v, d);
  EXPECT_LT(a_packed.size(), a_plain.size());
  const auto rec = packed.decompress(a_packed);
  const auto err = metrics::compare(v, rec);
  EXPECT_LE(err.max_abs_err,
            metrics::f32_bound_slack(1e-3 * err.range, err.range));
}

TEST(Pipeline, QualityPresetBeatsSpeedPresetOnRatio) {
  const dims3 d{80, 80, 8};
  const auto v = smooth_field(d, 10);
  const eb_config eb{1e-4, eb_mode::rel};
  pipeline<f32> quality(pipeline_config::preset_quality(eb));
  pipeline<f32> speed(pipeline_config::preset_speed(eb));
  const auto a_q = quality.compress(v, d);
  const auto a_s = speed.compress(v, d);
  EXPECT_LT(a_q.size(), a_s.size());
}

TEST(Pipeline, StageTimingsPopulated) {
  const dims3 d{64, 64};
  const auto v = smooth_field(d, 11);
  pipeline<f32> p(pipeline_config::preset_default({1e-3, eb_mode::rel}));
  (void)p.compress(v, d);
  const auto& t = p.last_compress_timings();
  EXPECT_GT(t.predict, 0.0);
  EXPECT_GT(t.encode, 0.0);
  EXPECT_GT(t.total(), 0.0);
}

TEST(Pipeline, RejectsUnknownModuleName) {
  pipeline_config cfg;
  cfg.predictor = "nonexistent-predictor";
  EXPECT_THROW(pipeline<f32> p(cfg), error);
}

TEST(Pipeline, RejectsBadRadius) {
  pipeline_config cfg;
  cfg.radius = 1;
  EXPECT_THROW(pipeline<f32> p(cfg), error);
  cfg.radius = 1 << 20;
  EXPECT_THROW(pipeline<f32> p(cfg), error);
}

TEST(Pipeline, SpanDecodeMatchesVectorDecode) {
  const dims3 d{40, 30, 3};
  const auto v = smooth_field(d, 14);
  for (const bool secondary : {false, true}) {
    auto cfg = pipeline_config::preset_default({1e-4, eb_mode::rel});
    cfg.secondary = secondary;
    pipeline<f32> p(cfg);
    const auto archive = p.compress(v, d);
    const std::vector<f32> want = p.decompress(archive);
    std::vector<f32> got(d.len(), -1.0f);
    p.decompress(archive, std::span<f32>(got));
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * 4), 0);
    std::vector<f32> short_out(d.len() - 1);
    try {
      p.decompress(archive, std::span<f32>(short_out));
      ADD_FAILURE() << "expected invalid_argument";
    } catch (const error& e) {
      EXPECT_EQ(e.code(), status::invalid_argument);
    }
  }
}

TEST(Pipeline, RejectsCorruptArchive) {
  pipeline<f32> p(pipeline_config{});
  std::vector<u8> junk(100, 0xab);
  EXPECT_THROW((void)p.decompress(junk), error);
  EXPECT_THROW(inspect_archive(junk), error);
  std::vector<u8> tiny(2, 0);
  EXPECT_THROW((void)p.decompress(tiny), error);
}

TEST(Pipeline, RejectsTruncatedArchive) {
  const dims3 d{32, 32};
  const auto v = smooth_field(d, 12);
  pipeline<f32> p(pipeline_config{});
  auto archive = p.compress(v, d);
  archive.resize(archive.size() / 2);
  EXPECT_THROW((void)p.decompress(archive), error);
}

TEST(Pipeline, RejectsDtypeMismatch) {
  const dims3 d{32, 32};
  const auto v = smooth_field(d, 13);
  pipeline<f32> p32(pipeline_config{});
  const auto archive = p32.compress(v, d);
  pipeline<f64> p64(pipeline_config{});
  device::buffer<f64> out(d.len(), device::space::device);
  device::stream s;
  EXPECT_THROW(p64.decompress(archive, out, s), error);
}

TEST(Pipeline, F64RoundTrip) {
  const dims3 d{30, 30, 10};
  rng r(14);
  std::vector<f64> v(d.len());
  for (auto& x : v) x = 1e6 + r.normal();
  pipeline<f64> p(pipeline_config::preset_default({1e-5, eb_mode::rel}));
  device::stream s;
  device::buffer<f64> dev(d.len(), device::space::device);
  device::memcpy_async(dev.data(), v.data(), v.size() * 8,
                       device::copy_kind::h2d, s);
  const auto archive = p.compress(dev, d, s);
  device::buffer<f64> rec(d.len(), device::space::device);
  p.decompress(archive, rec, s);
  s.sync();
  const auto err =
      metrics::compare(std::span<const f64>(v),
                       std::span<const f64>(rec.data(), rec.size()));
  EXPECT_LE(err.max_abs_err, 1e-5 * err.range * (1 + 1e-9));
}

TEST(Pipeline, EmptyishSingleElementField) {
  std::vector<f32> v{42.0f};
  pipeline<f32> p(pipeline_config::preset_default({1e-3, eb_mode::abs}));
  const auto archive = p.compress(v, dims3(1));
  const auto rec = p.decompress(archive);
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_NEAR(rec[0], 42.0f, 1e-3 * 1.01);
}

TEST(Pipeline, TransferAccountingShowsHybridVsDeviceCodec) {
  // FZMod-Default moves the raw code stream D2H for CPU Huffman;
  // FZMod-Speed only moves the compressed payload. The runtime's transfer
  // ledger must reflect that (this is the paper's hybrid-design trade).
  const dims3 d{128, 128, 8};
  const auto v = smooth_field(d, 15);
  auto& st = device::runtime::instance().stats();

  pipeline<f32> def(pipeline_config::preset_default({1e-3, eb_mode::rel}));
  st.reset_transfers();
  (void)def.compress(v, d);
  const u64 d2h_default = st.d2h_bytes.load();

  pipeline<f32> speed(pipeline_config::preset_speed({1e-3, eb_mode::rel}));
  st.reset_transfers();
  (void)speed.compress(v, d);
  const u64 d2h_speed = st.d2h_bytes.load();

  EXPECT_GT(d2h_default, d2h_speed);
  // Default's D2H must cover at least the 2-byte code stream.
  EXPECT_GE(d2h_default, d.len() * sizeof(u16));
}

}  // namespace
}  // namespace fzmod::core
