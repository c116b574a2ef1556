// stream-archive: out-of-core archival of a Nyx-class field, then reads.
//
// Why: this is the only workload with spline prediction, the top-k
// histogram, LZ, streaming file IO, the chunk scheduler and the seekable
// reader's cache and prefetcher. It has a write phase and a read phase so
// a trade between the two shows. It has no first-touch cost and no
// serving.
//
//  - Write: core::compress_file_stream turns a 240 MiB field (30 Nyx
//    128^3 tiles) into a v3 container under a 64 MiB memory cap with
//    2 MiB chunks. The budget model charges each in-flight chunk 4x its
//    raw bytes and gives the window half the cap: 32 MiB / 8 MiB = a
//    window of 4, which admits nproc = 4 workers, and the field is ~4x
//    the cap.
//  - Read: a sequential full scan through a fresh reader, then zipfian
//    read() ranges through one long-lived reader whose cache and skew put
//    the hit rate near 70-75%, so the median read is a cache hit and the
//    90th percentile a miss (a chunk decode), neither near the boundary.
#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <thread>

#include "fzmod/core/reader.hh"
#include "fzmod/core/stream_io.hh"
#include "fzmod/data/datasets.hh"
#include "fzmod/data/io.hh"
#include "fzmod/device/runtime.hh"
#include "fzmod/spec/spec.hh"
#include "workloads.hh"

namespace pb {
namespace {

using namespace fzmod;

constexpr dims3 kTile{128, 128, 128};
constexpr int kTiles = 30;  // 5 copies of each of the 6 Nyx fields
constexpr dims3 kDims{128, 128, 128 * kTiles};
constexpr std::size_t kChunkMb = 2;
constexpr std::size_t kCapMb = 64;
constexpr const char* kSpec = "value-range+spline+huffman(hist=topk)+lz";
constexpr f64 kEb = 1e-4;
constexpr std::size_t kCacheMb = 36;
constexpr f64 kZipfS = 1.3;
constexpr std::size_t kReadMin = 1024, kReadMax = 16384;  // elements
constexpr f64 kLimitMs = 100;       // read latency limit for goodput
constexpr f64 kCompressShare = 0.45, kScanShare = 0.65;   // phase ends
constexpr std::size_t kMinReads = 200;
constexpr int kReplayChunks = 8;

std::string in_path(const args& a) { return a.dir + "/nyx_tiled.f32"; }
std::string out_path(const args& a) { return a.dir + "/nyx_tiled.fzmod"; }
std::string ref_path(const args& a) { return a.dir + "/nyx_tiled.ref.f32"; }

unsigned jobs() { return std::max(1u, std::thread::hardware_concurrency()); }

core::pipeline_config config() {
  const auto sp = spec::parse(kSpec);
  spec::validate<f32>(sp);
  return core::resolved(spec::to_config(sp, {kEb, eb_mode::rel}));
}

core::reader_options reader_opts() {
  core::reader_options o;
  o.cache_mb = kCacheMb;
  o.jobs = jobs();
  return o;
}

void pread_all(int fd, void* dst, std::size_t n, u64 off) {
  auto* p = static_cast<u8*>(dst);
  while (n) {
    const ssize_t r = ::pread(fd, p, n, static_cast<off_t>(off));
    if (r <= 0) throw std::runtime_error("short read of a benchmark file");
    p += r;
    off += static_cast<u64>(r);
    n -= static_cast<std::size_t>(r);
  }
}

void pwrite_all(int fd, const void* src, std::size_t n, u64 off) {
  const auto* p = static_cast<const u8*>(src);
  while (n) {
    const ssize_t r = ::pwrite(fd, p, n, static_cast<off_t>(off));
    if (r <= 0) throw std::runtime_error("short write of a benchmark file");
    p += r;
    off += static_cast<u64>(r);
    n -= static_cast<std::size_t>(r);
  }
}

struct fd_guard {
  int fd;
  explicit fd_guard(int f) : fd(f) {
    if (fd < 0) throw std::runtime_error("cannot open a benchmark file");
  }
  ~fd_guard() { ::close(fd); }
  fd_guard(const fd_guard&) = delete;
  fd_guard& operator=(const fd_guard&) = delete;
};

u64 file_digest(const std::string& path) {
  const auto bytes = data::read_file(path);
  return digest(bytes.data(), bytes.size());
}

}  // namespace

int prepare_stream(const args& a) {
  const auto ds = data::describe(data::dataset_id::nyx);
  if (ds.dims.len() != kTile.len() || kTiles % ds.n_fields != 0) {
    std::fprintf(stderr, "perfbench: unexpected Nyx catalog shape\n");
    return 1;
  }
  std::vector<std::vector<f32>> fields;
  for (int f = 0; f < ds.n_fields; ++f) fields.push_back(data::generate(ds, f));
  // Every field appears equally often; the seed picks the tile order and
  // each tile's cyclic z rotation (whole slabs).
  rng r(a.seed, 0x57e4);
  std::vector<int> order(kTiles);
  for (int i = 0; i < kTiles; ++i) order[i] = i % ds.n_fields;
  r.shuffle(order);
  const fd_guard out(::open(in_path(a).c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                            0644));
  const std::size_t slab = kTile.x * kTile.y;
  u64 at = 0;
  for (int i = 0; i < kTiles; ++i) {
    const std::size_t rot = r.below(kTile.z);
    const auto& v = fields[order[i]];
    for (std::size_t z = 0; z < kTile.z; ++z) {
      const f32* src = v.data() + ((z + rot) % kTile.z) * slab;
      pwrite_all(out.fd, src, slab * sizeof(f32), at);
      at += slab * sizeof(f32);
    }
  }
  // Flush now so no write-back of the input overlaps the timed phases.
  if (::fsync(out.fd) != 0) throw std::runtime_error("fsync of the input failed");
  return 0;
}

report run_stream(const args& a) {
  report rep;
  const core::pipeline_config cfg = config();
  core::stream_options sopt;
  sopt.chunk.chunk_mb = kChunkMb;
  sopt.chunk.jobs = jobs();
  sopt.chunk.stream_mem_mb = kCapMb;
  const auto budget = core::resolve_stream_budget(
      kCapMb << 20, kChunkMb << 20, jobs());
  rep.constants.str("spec", kSpec)
      .num("eb_rel", kEb)
      .str("field", "Nyx 128x128x3840 f32 (30 tiles of 128^3)")
      .num("field_mb", static_cast<f64>(kDims.len() * 4 >> 20))
      .num("stream_mem_mb", kCapMb)
      .num("chunk_mb", kChunkMb)
      .num("jobs", jobs())
      .num("window", static_cast<f64>(budget.window))
      .num("workers", budget.workers)
      .num("reader_cache_mb", kCacheMb)
      .num("zipf_s", kZipfS)
      .num("read_elems_min", kReadMin)
      .num("read_elems_max", kReadMax)
      .num("latency_limit_ms", kLimitMs)
      .str("phases", "compress to 45% of the time, full scans to 65%, "
                     "zipfian reads to the end");

  const f64 total_s = a.trace ? a.seconds / 2 : a.seconds;
  const u64 raw = kDims.len() * sizeof(f32);
  const auto extents = core::plan_chunks(
      kDims, sopt.chunk.resolve_chunk_elems(sizeof(f32)));
  const fd_guard in(::open(in_path(a).c_str(), O_RDONLY));
  std::vector<f64> setups;
  auto open_reader = [&] {
    const auto t0 = clk::now();
    auto r = core::reader<f32>::open_file(out_path(a), reader_opts());
    setups.push_back(seconds_since(t0));
    return r;
  };
  u64 ok = 0, within = 0;
  const auto t_start = clk::now();

  // ---- write phase ----
  std::vector<f64> comp_s;
  u64 arch_bytes = 0, first_digest = 0;
  core::stream_io_stats last{};
  const counters window;
  for (u64 k = 0; k == 0 || seconds_since(t_start) < kCompressShare * total_s;
       ++k) {
    ++rep.attempted;
    try {
      const auto t0 = clk::now();
      last = core::compress_file_stream<f32>(in_path(a), kDims, out_path(a),
                                             cfg, sopt);
      const f64 s = seconds_since(t0);
      const u64 d = file_digest(out_path(a));
      if (k == 0) {
        first_digest = d;
        arch_bytes = std::filesystem::file_size(out_path(a));
      } else if (d != first_digest) {
        rep.fail(k, "compress", "archive differs from the first compress");
        continue;
      }
      comp_s.push_back(s);
      ++ok;
      ++within;
    } catch (const std::exception& e) {
      rep.fail(k, "compress", e.what());
    }
  }
  const counter_window win = window.delta();
  const u64 chunks_compressed = comp_s.size() * extents.size();

  // ---- reference decode (untimed): bound, PSNR, per-chunk digests ----
  std::vector<u64> ref_digest(extents.size(), 0);
  quality qual;
  u64 in_digest = 0;
  {
    auto r = open_reader();
    const fd_guard ref(::open(ref_path(a).c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC, 0644));
    std::vector<f32> x;
    auto cur = r.chunks(0, r.size());
    core::reader<f32>::chunk_view v;
    while (cur.next(v)) {
      x.resize(v.data.size());
      pread_all(in.fd, x.data(), x.size() * 4, v.offset * 4);
      in_digest = digest(x.data(), x.size() * 4, in_digest);
      const std::string bad = check_bound(x, v.data, kEb, &qual);
      if (!bad.empty()) rep.fail(0, "reference decode", "chunk " +
                                    std::to_string(v.index) + ": " + bad);
      pwrite_all(ref.fd, v.data.data(), v.data.size_bytes(), v.offset * 4);
      ref_digest[v.index] = digest(v.data.data(), v.data.size_bytes());
    }
  }

  // ---- scan phase: fresh reader, sequential cursor walk ----
  std::vector<f64> scan_s;
  u64 prefetch_issued = 0, prefetch_used = 0;
  for (u64 k = 0; k == 0 || seconds_since(t_start) < kScanShare * total_s;
       ++k) {
    ++rep.attempted;
    try {
      auto r = open_reader();
      std::vector<u64> got(extents.size(), 0);
      const auto t0 = clk::now();
      auto cur = r.chunks(0, r.size());
      core::reader<f32>::chunk_view v;
      while (cur.next(v)) {
        // A digest per decoded chunk, so the scan can be checked against
        // the reference without holding it (about 1% of the scan time).
        got[v.index] = digest(v.data.data(), v.data.size_bytes());
      }
      const f64 s = seconds_since(t0);
      const auto st = r.stats();
      prefetch_issued += st.prefetch_issued;
      prefetch_used += st.prefetch_used;
      if (got != ref_digest) {
        rep.fail(k, "scan", "decoded chunks differ from the reference");
        continue;
      }
      scan_s.push_back(s);
      ++ok;
      ++within;
    } catch (const std::exception& e) {
      rep.fail(k, "scan", e.what());
    }
  }

  // ---- read phase: zipfian ranges through one long-lived reader ----
  std::vector<f64> read_ms, miss_ms;
  core::reader_stats rstats{};
  {
    auto r = open_reader();
    const fd_guard ref(::open(ref_path(a).c_str(), O_RDONLY));
    rng g(a.seed, 0x4ead);
    std::vector<std::size_t> rank_to_chunk(extents.size());
    for (std::size_t i = 0; i < extents.size(); ++i) rank_to_chunk[i] = i;
    g.shuffle(rank_to_chunk);
    const zipf z(extents.size(), kZipfS);
    std::vector<f32> expect;
    for (u64 k = 0; k < kMinReads || seconds_since(t_start) < total_s; ++k) {
      const auto& e = extents[rank_to_chunk[z.draw(g)]];
      const u64 off = e.offset + g.below(e.len);
      const u64 len = std::min<u64>(
          kReadMin + g.below(kReadMax - kReadMin + 1), e.offset + e.len - off);
      ++rep.attempted;
      try {
        const u64 misses = r.stats().misses;
        const auto t0 = clk::now();
        const std::vector<f32> v = r.read(off, len);
        const f64 ms = 1e3 * seconds_since(t0);
        expect.resize(len);
        pread_all(ref.fd, expect.data(), len * 4, off * 4);
        if (v.size() != len ||
            std::memcmp(v.data(), expect.data(), len * 4) != 0) {
          rep.fail(k, "read", "range differs from the full decode");
          continue;
        }
        read_ms.push_back(ms);
        if (r.stats().misses != misses) miss_ms.push_back(ms);
        ++ok;
        within += ms <= kLimitMs;
      } catch (const std::exception& ex) {
        rep.fail(k, "read", ex.what());
      }
    }
    rstats = r.stats();
  }
  const f64 attempted = static_cast<f64>(rep.attempted);
  rep.fixed.num("fixed_raw_bytes", static_cast<f64>(raw))
      .num("fixed_archive_bytes", static_cast<f64>(arch_bytes))
      .str("input_digest", hex(in_digest))
      .str("archive_digest", hex(first_digest))
      .num("fixed_ops", 1)
      .num("chunks", static_cast<f64>(extents.size()));

  auto sum = [](const std::vector<f64>& v) {
    f64 s = 0;
    for (f64 x : v) s += x;
    return s;
  };
  if (!a.trace) {
    rep.metric("compress_gbps",
               static_cast<f64>(raw * comp_s.size()) / sum(comp_s) / 1e9,
               "GB/s");
    rep.metric("decompress_gbps",
               static_cast<f64>(raw * scan_s.size()) / sum(scan_s) / 1e9,
               "GB/s");
    rep.metric("latency_p50_ms", pct(read_ms, 0.5), "ms");
    rep.metric("latency_p90_ms", pct(read_ms, 0.9), "ms");
    rep.metric("goodput_pct", 100.0 * static_cast<f64>(within) / attempted,
               "%");
    rep.metric("compression_ratio",
               static_cast<f64>(raw) / static_cast<f64>(arch_bytes), "x");
    rep.metric("psnr_db", qual.psnr(), "dB");
    rep.metric("ops_ok_pct", 100.0 * static_cast<f64>(ok) / attempted, "%");
    rep.metric("setup_s", median(setups), "s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return rep;
  }

  // Traced run: replay the first chunks of the field through the layers.
  std::vector<std::vector<f32>> inputs;
  std::vector<replay_op> ops;
  for (int i = 0; i < kReplayChunks; ++i) {
    inputs.emplace_back(extents[i].len);
    pread_all(in.fd, inputs.back().data(), extents[i].len * 4,
              extents[i].offset * 4);
  }
  for (int i = 0; i < kReplayChunks; ++i) {
    replay_op op;
    op.kind = path::stream_chunk;
    op.data = inputs[i];
    op.dims = extents[i].dims;
    ops.push_back(op);
  }
  traced t = trace_replay(ops);
  for (const auto& e : t.log.errors()) rep.fail(0, "replay", e);
  // The device counters of the real write phase, per compressed chunk;
  // the Huffman decoder-tier counts of the replay (writing decodes none).
  with_device_counters(t.window, win);
  // The op is one chunk of compress_file_stream: the time one worker
  // spends per chunk while all workers run (write-phase wall x workers /
  // chunks). What the replayed layers do not explain is contention for
  // the shared kernel pool, staging, assembly and file IO.
  const f64 op_ms = 1e3 * median(comp_s) * static_cast<f64>(last.workers) /
                    static_cast<f64>(extents.size());
  const attribution at = attribute(t.log, kReplayChunks, op_ms);
  put_layer_metrics(rep, t.log, t.window, chunks_compressed, t.memcpy_rate,
                    at.unattributed_pct, t.overhead_pct);
  const u64 lookups = rstats.hits + rstats.misses;
  jobj own;
  own.num("core.stream_workers", last.workers)
      .num("core.stream_read_stalls", static_cast<f64>(last.read_stalls))
      .num("core.stream_write_stalls", static_cast<f64>(last.write_stalls))
      .num("core.stream_peak_mb", static_cast<f64>(last.peak_bytes) / (1 << 20))
      .num("core.reader_hit_pct",
           lookups ? 100.0 * static_cast<f64>(rstats.hits) /
                         static_cast<f64>(lookups)
                   : 0.0)
      .num("core.prefetch_used_pct",
           prefetch_issued ? 100.0 * static_cast<f64>(prefetch_used) /
                                 static_cast<f64>(prefetch_issued)
                           : 0.0)
      .num("core.reader_miss_us",
           1e3 * rep.tail(pct(miss_ms, 0.5), "core.reader_miss_us"))
      .num("core.reader_reads", static_cast<f64>(rstats.reads))
      .num("core.reader_evictions", static_cast<f64>(rstats.evictions));
  rep.layers = layer_report(t, at, op_ms, own);
  return rep;
}

}  // namespace pb
