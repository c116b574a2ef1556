// Huffman encode + decode tier A/B bench: quantize every Figure-1 dataset
// with the Lorenzo predictor (eb 1e-4 rel, the fig1 operating point),
// Huffman-encode the quant codes (encode MB/s), then decode each blob
// through every decoder tier and report MB/s per tier plus the
// auto-vs-canonical speedup.
//
// This is the evidence bench for the Huffman codec: the committed
// bench_huffman_evidence.json is regenerated from this binary, and CI runs
// it with FZMOD_BENCH_CHECK=1 so a regression that drops the cached tiers
// back to canonical throughput fails the build. The encode row always
// exits nonzero if the library's blob differs by one byte from the
// bit-serial reference encoder below, so archives stay byte-identical.
//
// Knobs:
//   FZMOD_BENCH_REPS=N         best-of repetitions (default 3 here)
//   FZMOD_BENCH_JSON=path      append machine-readable lines
//   FZMOD_BENCH_CHECK=1        exit nonzero unless (a) every tier decodes
//                              every blob back to the exact code stream and
//                              (b) aggregate auto-tier speedup over forced
//                              canonical >= FZMOD_HUFF_MIN_SPEEDUP
//                              (default 1.5)
//   FZMOD_HUFF_MIN_SPEEDUP=X   override the speedup floor
#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "bench_common.hh"
#include "fzmod/encoders/huffman.hh"
#include "fzmod/predictors/lorenzo.hh"

namespace fzmod {
namespace {

using encoders::huffman_tier;

struct workload {
  std::string name;
  std::vector<u16> codes;
  std::vector<u32> hist;
  std::vector<u8> blob;
  f64 avg_bits = 0;  // payload bits per symbol — drives tier selection
};

/// Bit-serial reference encoder: the blob layout written out one bit at a
/// time (header | code lengths | chunk offsets | payload, every chunk
/// MSB-first and zero-padded to a byte). It shares only the codebook with
/// the library, so any drift in the library's bitstream shows up as a
/// byte mismatch.
std::vector<u8> reference_encode(std::span<const u16> codes,
                                 std::span<const u32> hist) {
  const auto book = encoders::huffman_codebook::build(hist);
  const std::size_t chunk = encoders::huffman_chunk;
  const std::size_t n = codes.size();
  const std::size_t nchunks = n ? (n - 1) / chunk + 1 : 0;
  std::vector<u8> payload;
  std::vector<u64> offsets{0};
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t base = payload.size();
    u64 bit = 0;
    for (std::size_t i = c * chunk; i < std::min(n, (c + 1) * chunk); ++i) {
      const u32 len = book.len[codes[i]];
      for (u32 b = len; b-- > 0; ++bit) {
        if (bit % 8 == 0) payload.push_back(0);
        if ((book.code[codes[i]] >> b) & 1u) {
          payload[base + bit / 8] |= static_cast<u8>(0x80u >> (bit % 8));
        }
      }
    }
    offsets.push_back(payload.size());
  }
  const auto put = [](std::vector<u8>& out, const auto v) {
    const auto* p = reinterpret_cast<const u8*>(&v);
    out.insert(out.end(), p, p + sizeof(v));
  };
  std::vector<u8> blob;
  put(blob, u32{0x48554646});  // "HUFF"
  put(blob, static_cast<u32>(hist.size()));
  put(blob, static_cast<u64>(n));
  put(blob, static_cast<u32>(nchunks));
  put(blob, static_cast<u32>(chunk));
  blob.insert(blob.end(), book.len.begin(), book.len.end());
  for (const u64 off : offsets) put(blob, off);
  blob.insert(blob.end(), payload.begin(), payload.end());
  return blob;
}

/// Quantize one field of `ds` and Huffman-encode the quant codes.
workload make_workload(const data::dataset_desc& ds) {
  const auto field = data::generate(ds, 0);
  f32 lo = field[0], hi = field[0];
  for (const f32 v : field) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const f64 ebx2 = 2.0 * 1e-4 * (static_cast<f64>(hi) - lo);

  device::buffer<f32> dev(field.size(), device::space::device);
  std::memcpy(dev.data(), field.data(), field.size() * sizeof(f32));
  predictors::quant_field qf;
  device::stream s;
  predictors::lorenzo_compress_async(dev, ds.dims, ebx2,
                                     predictors::default_radius, qf, s);
  s.sync();

  workload w;
  w.name = ds.name;
  w.codes.assign(qf.codes.data(), qf.codes.data() + qf.codes.size());
  w.hist.assign(2 * predictors::default_radius, 0);
  for (const u16 c : w.codes) w.hist[c]++;
  w.blob = encoders::huffman_encode(w.codes, w.hist);
  const u64 payload = w.blob.size() > 24 + w.hist.size()
                          ? w.blob.size() - 24 - w.hist.size()
                          : 0;
  w.avg_bits = static_cast<f64>(payload) * 8.0 /
               static_cast<f64>(std::max<std::size_t>(w.codes.size(), 1));
  return w;
}

/// Best-of-`reps` library encode of `w`; returns seconds, sets `identical`
/// false if the blob differs from the bit-serial reference.
f64 time_encode(const workload& w, int reps, bool& identical) {
  f64 best = 1e300;
  std::vector<u8> blob;
  for (int rep = 0; rep < reps; ++rep) {
    stopwatch sw;
    blob = encoders::huffman_encode(w.codes, w.hist);
    best = std::min(best, sw.seconds());
  }
  if (blob != reference_encode(w.codes, w.hist)) identical = false;
  return best;
}

/// Best-of-`reps` decode of `w` through `tier`; returns seconds, sets
/// `ok` false if any decoded stream mismatches the original codes.
f64 time_decode(const workload& w, huffman_tier tier, int reps, bool& ok) {
  std::vector<u16> out(w.codes.size());
  f64 best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    stopwatch sw;
    encoders::huffman_decode(w.blob, out, tier);
    best = std::min(best, sw.seconds());
  }
  if (out != w.codes) ok = false;
  return best;
}

int huffman_main() {
  bench::bench_json_name() = "huffman";
  const int reps = std::max(3, bench::timing_reps());
  const auto catalog = data::catalog(data::fullscale_requested());

  std::vector<workload> work;
  for (const auto& ds : catalog) work.push_back(make_workload(ds));

  constexpr huffman_tier tiers[] = {
      huffman_tier::canonical, huffman_tier::single_cached,
      huffman_tier::double_cached, huffman_tier::auto_select};

  bench::print_header(
      "Huffman encode + decode tiers — fig1 quant-code workload, "
      "eb=1e-4 rel");
  std::printf("%-10s %8s %9s %10s %10s %10s %10s %10s %9s\n", "dataset",
              "MB", "avg bits", "enc MB/s", "canon MB/s", "single", "double",
              "auto", "speedup");
  bench::print_rule(95);

  bool roundtrip_ok = true;
  bool encode_identical = true;
  f64 total_enc_s = 0;
  f64 total_canon_s = 0, total_auto_s = 0;
  u64 total_bytes = 0;
  // Chunk-tier mix of the auto runs only (the cumulative process counters
  // also include the forced-tier runs, so diff around the auto timing and
  // divide by reps).
  u64 auto_canon = 0, auto_single = 0, auto_double = 0;
  for (const auto& w : work) {
    const u64 bytes = w.codes.size() * sizeof(u16);
    const f64 enc_s = time_encode(w, reps, encode_identical);
    total_enc_s += enc_s;
    f64 secs[4];
    for (int t = 0; t < 4; ++t) {
      const auto before = encoders::huffman_tier_totals();
      secs[t] = time_decode(w, tiers[t], reps, roundtrip_ok);
      if (tiers[t] == huffman_tier::auto_select) {
        const auto after = encoders::huffman_tier_totals();
        const auto ureps = static_cast<u64>(reps);
        auto_canon += (after.canonical - before.canonical) / ureps;
        auto_single += (after.single_cached - before.single_cached) / ureps;
        auto_double += (after.double_cached - before.double_cached) / ureps;
      }
    }
    total_canon_s += secs[0];
    total_auto_s += secs[3];
    total_bytes += bytes;
    const f64 mb = static_cast<f64>(bytes) / (1 << 20);
    std::printf(
        "%-10s %8.1f %9.2f %10.1f %10.1f %10.1f %10.1f %10.1f %8.2fx\n",
        w.name.c_str(), mb, w.avg_bits, mb / enc_s, mb / secs[0],
        mb / secs[1], mb / secs[2], mb / secs[3], secs[0] / secs[3]);
    if (std::FILE* f = bench::bench_json_stream()) {
      std::fprintf(
          f,
          "{\"bench\":\"huffman\",\"label\":\"%s\",\"bytes\":%llu,"
          "\"avg_bits\":%.4f,\"encode_mbps\":%.2f,\"canonical_mbps\":%.2f,"
          "\"single_mbps\":%.2f,\"double_mbps\":%.2f,\"auto_mbps\":%.2f,"
          "\"speedup\":%.4f}\n",
          w.name.c_str(), static_cast<unsigned long long>(bytes), w.avg_bits,
          mb / enc_s, mb / secs[0], mb / secs[1], mb / secs[2], mb / secs[3],
          secs[0] / secs[3]);
      std::fflush(f);
    }
  }
  bench::print_rule(95);

  const f64 speedup = total_canon_s / total_auto_s;
  const f64 total_mb = static_cast<f64>(total_bytes) / (1 << 20);
  std::printf("encode: %.1f MB at %.1f MB/s, blobs %s the bit-serial "
              "reference\n",
              total_mb, total_mb / total_enc_s,
              encode_identical ? "identical to" : "DIFFER from");
  std::printf("aggregate: %.1f MB decoded, auto %.2fx vs canonical; "
              "auto chunk mix canonical %llu / single %llu / double %llu\n",
              total_mb, speedup,
              static_cast<unsigned long long>(auto_canon),
              static_cast<unsigned long long>(auto_single),
              static_cast<unsigned long long>(auto_double));
  std::printf("round-trip: %s\n", roundtrip_ok ? "ok" : "MISMATCH");

  if (std::FILE* f = bench::bench_json_stream()) {
    std::fprintf(
        f,
        "{\"bench\":\"huffman\",\"label\":\"aggregate\",\"bytes\":%llu,"
        "\"encode_mbps\":%.2f,\"encode_identical\":%s,"
        "\"speedup_auto_vs_canonical\":%.4f,\"roundtrip_ok\":%s,"
        "\"auto_chunks_canonical\":%llu,\"auto_chunks_single\":%llu,"
        "\"auto_chunks_double\":%llu}\n",
        static_cast<unsigned long long>(total_bytes), total_mb / total_enc_s,
        encode_identical ? "true" : "false", speedup,
        roundtrip_ok ? "true" : "false",
        static_cast<unsigned long long>(auto_canon),
        static_cast<unsigned long long>(auto_single),
        static_cast<unsigned long long>(auto_double));
    std::fflush(f);
  }

  if (!encode_identical) {
    std::fprintf(stderr, "huffman_encode blob differs from the bit-serial "
                         "reference encoder\n");
    return 1;
  }
  if (bench::env_int("FZMOD_BENCH_CHECK", 0)) {
    if (!roundtrip_ok) {
      std::fprintf(stderr, "FZMOD_BENCH_CHECK: tier decode mismatch\n");
      return 1;
    }
    const f64 floor = std::atof([&] {
      const char* v = std::getenv("FZMOD_HUFF_MIN_SPEEDUP");
      return v && *v ? v : "1.5";
    }());
    if (speedup < floor) {
      std::fprintf(stderr,
                   "FZMOD_BENCH_CHECK: auto-tier speedup %.2fx below "
                   "floor %.2fx\n",
                   speedup, floor);
      return 1;
    }
    std::printf("FZMOD_BENCH_CHECK: auto-tier speedup %.2fx >= %.2fx, "
                "round-trip ok\n",
                speedup, floor);
  }
  return 0;
}

}  // namespace
}  // namespace fzmod

int main() { return fzmod::huffman_main(); }
