// Microbenchmarks (google-benchmark) of the kernel primitives every
// pipeline stage is built from: histogram, scan, bitshuffle, Lorenzo,
// the spline interpolator, Huffman, the LZ secondary codec. These are the per-stage numbers that
// explain the end-to-end Figure 1 ordering.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>

#include "fzmod/common/rng.hh"
#include "fzmod/data/datasets.hh"
#include "fzmod/encoders/fixed_length.hh"
#include "fzmod/encoders/fzg.hh"
#include "fzmod/encoders/huffman.hh"
#include "fzmod/kernels/bitshuffle.hh"
#include "fzmod/kernels/histogram.hh"
#include "fzmod/kernels/scan.hh"
#include "fzmod/lossless/lz.hh"
#include "fzmod/predictors/interp.hh"
#include "fzmod/predictors/lorenzo.hh"

namespace {

using namespace fzmod;

std::vector<u16> make_codes(std::size_t n, f64 spread) {
  rng r(n);
  std::vector<u16> codes(n);
  for (auto& c : codes) {
    c = static_cast<u16>(
        std::clamp(r.normal() * spread + 512.0, 0.0, 1023.0));
  }
  return codes;
}

device::buffer<u16> to_device(const std::vector<u16>& v) {
  device::buffer<u16> d(v.size(), device::space::device);
  std::memcpy(d.data(), v.data(), v.size() * sizeof(u16));
  return d;
}

void BM_HistogramStandard(benchmark::State& state) {
  const auto codes = make_codes(1 << 20, 4.0);
  auto dev = to_device(codes);
  device::buffer<u32> bins(1024, device::space::device);
  for (auto _ : state) {
    device::stream s;
    kernels::histogram_async(dev, bins, s);
    s.sync();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_HistogramStandard)->UseRealTime();

// Vector kernel tier: 4-way sub-histogram banks (see docs/RUNTIME.md,
// "Decoder tiers & kernel tiers"). Same bins, different inner loop.
void BM_HistogramVector(benchmark::State& state) {
  const auto codes = make_codes(1 << 20, 4.0);
  auto dev = to_device(codes);
  device::buffer<u32> bins(1024, device::space::device);
  for (auto _ : state) {
    device::stream s;
    kernels::histogram_vector_async(dev, bins, s);
    s.sync();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_HistogramVector)->UseRealTime();

void BM_HistogramTopK(benchmark::State& state) {
  const auto codes = make_codes(1 << 20, 2.0);
  auto dev = to_device(codes);
  device::buffer<u32> bins(1024, device::space::device);
  for (auto _ : state) {
    device::stream s;
    kernels::histogram_topk_async(dev, bins, s);
    s.sync();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_HistogramTopK)->UseRealTime();

void BM_ExclusiveScan(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  device::buffer<u32> in(n, device::space::device);
  device::buffer<u32> out(n, device::space::device);
  for (std::size_t i = 0; i < n; ++i) in.data()[i] = 3;
  u32 total = 0;
  for (auto _ : state) {
    device::stream s;
    kernels::exclusive_scan_async(in, out, &total, s);
    s.sync();
  }
  benchmark::DoNotOptimize(total);
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n * 4));
}
BENCHMARK(BM_ExclusiveScan)->UseRealTime();

void BM_BitshuffleFwd(benchmark::State& state) {
  const auto codes = make_codes(1 << 20, 3.0);
  auto dev = to_device(codes);
  device::buffer<u32> planes(kernels::bitshuffle_words(codes.size()),
                             device::space::device);
  for (auto _ : state) {
    device::stream s;
    kernels::bitshuffle_fwd_async(dev, planes, s);
    s.sync();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_BitshuffleFwd)->UseRealTime();

void BM_LorenzoCompress3D(benchmark::State& state) {
  const dims3 d{128, 128, 64};
  rng r(9);
  device::buffer<f32> dev(d.len(), device::space::device);
  for (std::size_t i = 0; i < d.len(); ++i) {
    dev.data()[i] = static_cast<f32>(std::sin(0.05 * (i % 128)) * 50 +
                                     0.1 * r.normal());
  }
  for (auto _ : state) {
    predictors::quant_field field;
    device::stream s;
    predictors::lorenzo_compress_async(dev, d, 2e-3, 512, field, s);
    s.sync();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(d.len() * 4));
}
BENCHMARK(BM_LorenzoCompress3D)->UseRealTime();

/// One streaming chunk of the FZMod-Quality archive workload: the first
/// 128x128x32 slab of Nyx field 0 (2 MiB of f32) at a 1e-4 relative bound.
struct spline_chunk {
  dims3 d{128, 128, 32};
  device::buffer<f32> dev{d.len(), device::space::device};
  f64 ebx2 = 0;

  spline_chunk() {
    const auto field = data::generate(data::describe(data::dataset_id::nyx), 0);
    std::memcpy(dev.data(), field.data(), dev.bytes());
    const auto [lo, hi] = std::minmax_element(dev.data(), dev.data() + d.len());
    ebx2 = 2e-4 * static_cast<f64>(*hi - *lo);
  }
};

// Steady state, as a pipeline runs it: the quant_field (and with it the
// predictor's reconstruction scratch) is reused across iterations.
void BM_SplineCompress(benchmark::State& state) {
  const spline_chunk c;
  predictors::quant_field field;
  predictors::interp_anchors anchors;
  device::stream s;
  for (auto _ : state) {
    predictors::interp_compress_async(c.dev, c.d, c.ebx2, 512, field,
                                      anchors, s);
    s.sync();
  }
  state.counters["outliers"] = static_cast<f64>(field.n_outliers);
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(c.dev.bytes()));
}
BENCHMARK(BM_SplineCompress)->UseRealTime();

void BM_SplineDecompress(benchmark::State& state) {
  const spline_chunk c;
  predictors::quant_field field;
  predictors::interp_anchors anchors;
  device::stream s;
  predictors::interp_compress_async(c.dev, c.d, c.ebx2, 512, field, anchors,
                                    s);
  device::buffer<f32> out(c.d.len(), device::space::device);
  for (auto _ : state) {
    predictors::interp_decompress_async(field, anchors, out, s);
    s.sync();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(c.dev.bytes()));
}
BENCHMARK(BM_SplineDecompress)->UseRealTime();

void BM_HuffmanEncode(benchmark::State& state) {
  const auto codes = make_codes(1 << 20, 4.0);
  std::vector<u32> hist(1024, 0);
  for (const u16 c : codes) hist[c]++;
  for (auto _ : state) {
    auto blob = encoders::huffman_encode(codes, hist);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_HuffmanEncode)->UseRealTime();

void BM_HuffmanDecode(benchmark::State& state) {
  const auto codes = make_codes(1 << 20, 4.0);
  std::vector<u32> hist(1024, 0);
  for (const u16 c : codes) hist[c]++;
  const auto blob = encoders::huffman_encode(codes, hist);
  std::vector<u16> out(codes.size());
  for (auto _ : state) {
    encoders::huffman_decode(blob, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_HuffmanDecode)->UseRealTime();

// Forced decoder tiers on the same blob: canonical is the seed baseline,
// single/double are the table-cached paths (a tier the codebook cannot
// support falls back to canonical — see docs/RUNTIME.md).
void BM_HuffmanDecodeTier(benchmark::State& state,
                          encoders::huffman_tier tier) {
  const auto codes = make_codes(1 << 20, 4.0);
  std::vector<u32> hist(1024, 0);
  for (const u16 c : codes) hist[c]++;
  const auto blob = encoders::huffman_encode(codes, hist);
  std::vector<u16> out(codes.size());
  for (auto _ : state) {
    encoders::huffman_decode(blob, out, tier);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK_CAPTURE(BM_HuffmanDecodeTier, canonical,
                  fzmod::encoders::huffman_tier::canonical)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_HuffmanDecodeTier, single,
                  fzmod::encoders::huffman_tier::single_cached)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_HuffmanDecodeTier, double,
                  fzmod::encoders::huffman_tier::double_cached)
    ->UseRealTime();

void BM_FixedLengthEncode(benchmark::State& state) {
  const auto codes = make_codes(1 << 20, 4.0);
  for (auto _ : state) {
    auto blob = encoders::fixed_length_encode(codes, 512);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_FixedLengthEncode)->UseRealTime();

void BM_FzgEncode(benchmark::State& state) {
  const auto codes = make_codes(1 << 20, 3.0);
  auto dev = to_device(codes);
  for (auto _ : state) {
    encoders::fzg_result enc;
    device::stream s;
    encoders::fzg_encode_async(dev, 512, enc, s);
    s.sync();
    benchmark::DoNotOptimize(enc.packed_words);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_FzgEncode)->UseRealTime();

void BM_LzCompress(benchmark::State& state) {
  const auto codes = make_codes(1 << 19, 2.0);
  std::vector<u8> raw(codes.size() * 2);
  std::memcpy(raw.data(), codes.data(), raw.size());
  for (auto _ : state) {
    auto blob = lossless::compress(raw);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(raw.size()));
}
BENCHMARK(BM_LzCompress)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
