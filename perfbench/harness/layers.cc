#include "layers.hh"

#include <fstream>

#include "fzmod/data/io.hh"
#include "fzmod/device/runtime.hh"
#include "fzmod/encoders/fzg.hh"
#include "fzmod/encoders/huffman.hh"
#include "fzmod/kernels/chunked_hash.hh"
#include "fzmod/kernels/compact.hh"
#include "fzmod/kernels/histogram.hh"
#include "fzmod/kernels/stats.hh"
#include "fzmod/lossless/lz.hh"
#include "fzmod/predictors/interp.hh"
#include "fzmod/predictors/lorenzo.hh"

namespace pb {
namespace {

using namespace fzmod;
using device::copy_kind;
using device::space;

constexpr int radius = 512;  // the pipelines' default quantizer radius
constexpr std::size_t nbins = 2 * radius;
constexpr f64 eb_rel = 1e-4;  // every workload's relative error bound

/// Which layers are on a path's real route, and which side of the op
/// (compress, decompress) its wall time covers.
struct route {
  bool lorenzo = false, spline = false, hist = false, topk = false;
  bool huff = false, fzg = false, lz = false, file = false, cold = false;
  bool side_c = true, side_d = true;
};

route route_of(path k) {
  route r;
  switch (k) {
    case path::cli:
      r.lorenzo = r.hist = r.huff = r.file = r.cold = true;
      break;
    case path::serve_fzg:
      r.lorenzo = r.fzg = true;
      r.side_d = false;
      break;
    case path::serve_huffman:
      r.lorenzo = r.hist = r.huff = true;
      r.side_d = false;
      break;
    case path::serve_decompress:
      r.lorenzo = r.fzg = true;
      r.side_c = false;
      break;
    case path::stream_chunk:
      r.spline = r.topk = r.huff = r.lz = true;
      r.side_d = false;  // the op attributed is compress_file_stream
      break;
  }
  return r;
}

/// Per-op device scratch. The cli path rebuilds it every op (a fresh
/// process owns nothing); the in-process paths keep it, as the program's
/// pipelines keep their retained scratch.
struct scratch {
  predictors::quant_field lq, sq;
  predictors::interp_anchors anchors;
  device::buffer<u32> bins_std, bins_topk;
  device::buffer<u8> flags;
  device::buffer<i64> values;
  device::buffer<kernels::outlier> compacted;
  device::buffer<u16> host_codes, dec_codes;
  device::buffer<u32> host_bins;
  device::buffer<f32> out;
};

template <class T>
void copy(T* dst, const T* src, std::size_t n, copy_kind k,
          device::stream& s) {
  device::memcpy_async(dst, src, n * sizeof(T), k, s);
  s.sync();
}

void replay_one(const replay_op& op, span_log& log, scratch& sc) {
  auto& rt = device::runtime::instance();
  const auto tier = device::active_kernel_tier();
  const route rt_ = route_of(op.kind);
  const bool C = rt_.side_c, D = rt_.side_d;
  const std::size_t n = op.data.size();
  const u64 raw = n * sizeof(f32);
  const u64 cbytes = n * sizeof(u16);
  device::stream s;

  // ---- compress side ----
  std::vector<f32> from_file;
  std::span<const f32> host = op.data;
  if (rt_.file) {
    log.time("data.read", C, raw, [&] {
      from_file = data::load_f32_field(op.in_file, op.dims);
    });
    host = from_file;
  }
  // Cold H2D: a freshly allocated device buffer after the caching pools
  // were emptied, so the copy pays first-touch faults as a new process
  // does. Warm H2D: the same copy into an already-touched buffer.
  device::buffer<f32> d;
  {
    if (!rt_.cold) rt.trim_pools();
    device::buffer<f32> fresh(n, space::device);
    log.time("device.h2d_cold", C && rt_.cold, raw, [&] {
      copy(fresh.data(), host.data(), n, copy_kind::h2d, s);
    });
    d = std::move(fresh);
  }
  log.time("device.h2d", C && !rt_.cold, raw,
           [&] { copy(d.data(), host.data(), n, copy_kind::h2d, s); });

  f64 ebx2 = 0;
  log.time("kernels.minmax", C, raw, [&] {
    kernels::minmax_result<f32> mm;
    kernels::minmax_async(d, &mm, s);
    s.sync();
    ebx2 = 2.0 * eb_config{eb_rel, eb_mode::rel}.resolve(mm.range());
  });
  log.time("predictors.lorenzo_fwd", C && rt_.lorenzo, raw, [&] {
    predictors::lorenzo_compress_async(d, op.dims, ebx2, radius, sc.lq, s,
                                       tier);
    s.sync();
  });
  log.time("predictors.spline_fwd", C && rt_.spline, raw, [&] {
    predictors::interp_compress_async(d, op.dims, ebx2, radius, sc.sq,
                                      sc.anchors, s);
    s.sync();
  });
  predictors::quant_field& q = rt_.spline ? sc.sq : sc.lq;
  log.count("predictors.outliers", q.n_outliers);
  log.count("predictors.elements", n);

  sc.bins_std.ensure(nbins, space::device);
  sc.bins_topk.ensure(nbins, space::device);
  log.time("kernels.histogram", C && rt_.hist, cbytes, [&] {
    kernels::histogram_dispatch_async(kernels::histogram_kind::standard,
                                      q.codes, sc.bins_std, s, tier);
    s.sync();
  });
  log.time("kernels.histogram_topk", C && rt_.topk, cbytes, [&] {
    kernels::histogram_dispatch_async(kernels::histogram_kind::topk, q.codes,
                                      sc.bins_topk, s, tier);
    s.sync();
  });

  // Compaction probe: the outlier flags the codes imply (code 0 is the
  // outlier sentinel), so flag density matches the workload's data. Inside
  // the real path it runs within the predictor span.
  sc.flags.ensure(n, space::device);
  sc.values.ensure(n, space::device);
  sc.compacted.ensure(n, space::device);
  for (std::size_t i = 0; i < n; ++i) {
    sc.flags.data()[i] = q.codes.data()[i] == 0;
    sc.values.data()[i] = static_cast<i64>(i);
  }
  log.time("kernels.compact", false, n, [&] {
    u64 cnt = 0;
    kernels::compact_dispatch_async(sc.flags, sc.values, sc.compacted, &cnt,
                                    s, tier);
    s.sync();
  });

  sc.host_codes.ensure(n, space::host);
  sc.host_bins.ensure(nbins, space::host);
  log.time("device.d2h", C && rt_.huff, cbytes, [&] {
    copy(sc.host_codes.data(), q.codes.data(), n, copy_kind::d2h, s);
  });
  copy(sc.host_bins.data(),
       (rt_.topk ? sc.bins_topk : sc.bins_std).data(), nbins, copy_kind::d2h,
       s);
  std::vector<u8> blob;
  log.time("encoders.huffman_enc", C && rt_.huff, cbytes, [&] {
    blob = encoders::huffman_encode(sc.host_codes.span(), sc.host_bins.span());
  });

  encoders::fzg_result enc;
  std::vector<u8> payload;
  log.time("encoders.fzg_enc", C && rt_.fzg, cbytes, [&] {
    encoders::fzg_encode_async(q.codes, radius, enc, s);
    s.sync();
  });
  payload.resize(enc.bytes());
  log.time("device.d2h", C && rt_.fzg, enc.bytes(), [&] {
    copy(payload.data(), reinterpret_cast<const u8*>(enc.payload.data()),
         enc.bytes(), copy_kind::d2h, s);
  });
  const std::vector<u8>& codec_out = rt_.fzg ? payload : blob;
  log.time("kernels.hash", C, codec_out.size(),
           [&] { (void)kernels::chunked_hash(codec_out); });

  std::vector<u8> lzb;
  log.time("lossless.lz_enc", C && rt_.lz, blob.size(),
           [&] { lzb = lossless::compress(blob); });
  if (rt_.lz) {
    log.time("kernels.hash", C, lzb.size(),
             [&] { (void)kernels::chunked_hash(lzb); });
  }
  const std::vector<u8>& stored = rt_.lz ? lzb : codec_out;
  if (rt_.file) {
    log.time("data.write", C, stored.size(),
             [&] { data::write_file(op.work_file, stored); });
  }

  // ---- decompress side ----
  std::vector<u8> loaded;
  if (rt_.file) {
    log.time("data.read", D, stored.size(),
             [&] { loaded = data::read_file(op.work_file); });
  }
  log.time("kernels.hash", D, stored.size(),
           [&] { (void)kernels::chunked_hash(stored); });
  std::vector<u8> unlz;
  log.time("lossless.lz_dec", D && rt_.lz, blob.size(),
           [&] { unlz = lossless::decompress(lzb); });
  sc.dec_codes.ensure(n, space::host);
  log.time("encoders.huffman_dec", D && rt_.huff, cbytes,
           [&] { encoders::huffman_decode(blob, sc.dec_codes.span()); });
  device::buffer<u16> dev_codes(n, space::device);
  log.time("device.h2d", D && rt_.huff, cbytes, [&] {
    copy(dev_codes.data(), sc.dec_codes.data(), n, copy_kind::h2d, s);
  });
  encoders::fzg_result enc2;
  enc2.n_codes = enc.n_codes;
  enc2.bitmap_words = enc.bitmap_words;
  enc2.packed_words = enc.packed_words;
  enc2.radius = radius;
  enc2.payload = device::buffer<u32>(enc.payload_words(), space::device);
  log.time("device.h2d", D && rt_.fzg, enc.bytes(), [&] {
    copy(reinterpret_cast<u8*>(enc2.payload.data()), payload.data(),
         payload.size(), copy_kind::h2d, s);
  });
  log.time("encoders.fzg_dec", D && rt_.fzg, cbytes, [&] {
    encoders::fzg_decode_async(enc2, dev_codes, s);
    s.sync();
  });
  // Both codecs must give the quant codes back; the predictor inverses
  // below then run on those codes.
  if (std::memcmp(sc.dec_codes.data(), q.codes.data(), cbytes) != 0 ||
      std::memcmp(dev_codes.data(), q.codes.data(), cbytes) != 0) {
    log.error("a codec replay did not return the quant codes");
  }

  // The off-path predictor inverts first so the buffer holds the path
  // predictor's output when it crosses back.
  sc.out.ensure(n, space::device);
  auto lorenzo_inv = [&] {
    log.time("predictors.lorenzo_inv", D && rt_.lorenzo, raw, [&] {
      predictors::lorenzo_decompress_async(sc.lq, sc.out, s);
      s.sync();
    });
  };
  auto spline_inv = [&] {
    log.time("predictors.spline_inv", D && rt_.spline, raw, [&] {
      predictors::interp_decompress_async(sc.sq, sc.anchors, sc.out, s);
      s.sync();
    });
  };
  if (rt_.spline) {
    lorenzo_inv();
    spline_inv();
  } else {
    spline_inv();
    lorenzo_inv();
  }
  std::vector<f32> host_out(n);
  log.time("device.d2h", D, raw,
           [&] { copy(host_out.data(), sc.out.data(), n, copy_kind::d2h, s); });
  if (rt_.file) {
    log.time("data.write", D, raw, [&] {
      data::store_f32_field(op.work_file + ".out", host_out);
    });
  }
  // The replay is a measurement, but a replay that decodes wrongly would
  // measure the wrong work: hold it to the same bound as the real path.
  const std::string bad = check_bound(host, host_out, eb_rel, nullptr);
  if (!bad.empty()) log.error(bad);
}

}  // namespace

void span_log::count(const std::string& name, u64 v) { counts_[name] += v; }

u64 span_log::counted(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

void replay(const std::vector<replay_op>& ops, span_log& log) {
  scratch kept;
  for (u64 i = 0; i < ops.size(); ++i) {
    log.set_op(i);
    if (route_of(ops[i].kind).cold) {
      device::runtime::instance().trim_pools();
      scratch fresh;
      replay_one(ops[i], log, fresh);
    } else {
      replay_one(ops[i], log, kept);
    }
  }
}

counters::counters() { base_ = delta(); }  // base_ starts at zero

counter_window counters::delta() const {
  const auto s = device::runtime::instance().stats_snapshot();
  const auto t = device::kernel_tier_launch_totals();
  const auto h = encoders::huffman_tier_totals();
  counter_window w;
  w.kernels = s.kernels_launched - base_.kernels;
  w.h2d_bytes = s.h2d_bytes - base_.h2d_bytes;
  w.pool_hits = s.device_pool.hits + s.host_pool.hits - base_.pool_hits;
  w.pool_misses =
      s.device_pool.misses + s.host_pool.misses - base_.pool_misses;
  w.tier_vector = t.vector - base_.tier_vector;
  w.tier_portable = t.portable - base_.tier_portable;
  w.huff_canonical = h.canonical - base_.huff_canonical;
  w.huff_single = h.single_cached - base_.huff_single;
  w.huff_double = h.double_cached - base_.huff_double;
  return w;
}

f64 layer_rate(const span_log& log, const std::string& layer, f64 unit) {
  u64 bytes = 0, ns = 0;
  for (const auto& sp : log.spans()) {
    if (layer == sp.layer) {
      bytes += sp.bytes;
      ns += sp.ns;
    }
  }
  return ns ? static_cast<f64>(bytes) / static_cast<f64>(ns) * (1e9 / unit)
            : 0.0;
}

attribution attribute(const span_log& log, u64 nops, f64 op_wall_ms) {
  std::map<std::string, u64> self;
  u64 total = 0;
  for (const auto& sp : log.spans()) {
    if (!sp.on_path) continue;
    self[sp.layer] += sp.ns;
    total += sp.ns;
  }
  attribution a;
  const f64 per_op =
      static_cast<f64>(total) / 1e6 / static_cast<f64>(nops ? nops : 1);
  a.unattributed_pct = 100.0 * (op_wall_ms - per_op) / op_wall_ms;
  for (const auto& [layer, ns] : self) {
    const f64 ms =
        static_cast<f64>(ns) / 1e6 / static_cast<f64>(nops ? nops : 1);
    a.table.obj(layer, jobj().num("self_ms_per_op", ms)
                           .num("share_pct", 100.0 * ms / op_wall_ms));
  }
  return a;
}

std::size_t llc_bytes() {
  // The highest cache index in sysfs is the last level.
  std::size_t best = 0;
  for (int idx = 0; idx < 8; ++idx) {
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                    std::to_string(idx) + "/size");
    std::string v;
    if (!(f >> v) || v.empty()) continue;
    std::size_t mult = 1;
    if (v.back() == 'K') mult = 1024;
    if (v.back() == 'M') mult = 1024 * 1024;
    best = std::max<std::size_t>(best, std::stoull(v) * mult);
  }
  return best;
}

f64 memcpy_gbps(std::size_t bytes) {
  std::vector<u8> a(bytes, 1), b(bytes, 2);
  std::vector<f64> rates;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = clk::now();
    std::memcpy(b.data(), a.data(), bytes);
    const f64 s = seconds_since(t0);
    rates.push_back(static_cast<f64>(bytes) / s / 1e9);
    std::swap(a, b);
  }
  return median(rates);
}

void put_layer_metrics(report& rep, const span_log& log,
                       const counter_window& w, u64 ops, f64 memcpy_rate,
                       f64 unattributed_pct, f64 overhead_pct) {
  const f64 per = ops ? 1.0 / static_cast<f64>(ops) : 0.0;
  const u64 tiered = w.tier_vector + w.tier_portable;
  const u64 pool = w.pool_hits + w.pool_misses;
  auto g = [&](const char* metric, const char* layer) {
    rep.metric(metric, layer_rate(log, layer, 1e9), "GB/s");
  };
  auto m = [&](const char* metric, const char* layer) {
    rep.metric(metric, layer_rate(log, layer, 1e6), "MB/s");
  };
  rep.metric("host.memcpy_gbps", memcpy_rate, "GB/s");
  g("device.h2d_cold_gbps", "device.h2d_cold");
  g("device.h2d_warm_gbps", "device.h2d");
  g("device.d2h_gbps", "device.d2h");
  rep.metric("device.pool_hit_pct",
             pool ? 100.0 * static_cast<f64>(w.pool_hits) /
                        static_cast<f64>(pool)
                  : 0.0,
             "%");
  // An allocation is a pool miss: a block the caching pools had to get
  // from the system.
  rep.metric("device.allocs_per_op", static_cast<f64>(w.pool_misses) * per,
             "count");
  rep.metric("device.kernels_per_op", static_cast<f64>(w.kernels) * per,
             "count");
  rep.metric("device.h2d_bytes_per_op", static_cast<f64>(w.h2d_bytes) * per,
             "count");
  rep.metric("device.kernel_tier_vector_pct",
             tiered ? 100.0 * static_cast<f64>(w.tier_vector) /
                          static_cast<f64>(tiered)
                    : 0.0,
             "%");
  g("kernels.minmax_gbps", "kernels.minmax");
  g("kernels.histogram_gbps", "kernels.histogram");
  g("kernels.histogram_topk_gbps", "kernels.histogram_topk");
  g("kernels.compact_gbps", "kernels.compact");
  g("kernels.hash_gbps", "kernels.hash");
  g("predictors.lorenzo_fwd_gbps", "predictors.lorenzo_fwd");
  g("predictors.lorenzo_inv_gbps", "predictors.lorenzo_inv");
  g("predictors.spline_fwd_gbps", "predictors.spline_fwd");
  g("predictors.spline_inv_gbps", "predictors.spline_inv");
  const u64 elems = log.counted("predictors.elements");
  rep.metric("predictors.outlier_pct",
             elems ? 100.0 * static_cast<f64>(log.counted("predictors.outliers")) /
                         static_cast<f64>(elems)
                   : 0.0,
             "%");
  m("encoders.huffman_enc_mbps", "encoders.huffman_enc");
  m("encoders.huffman_dec_mbps", "encoders.huffman_dec");
  rep.metric("encoders.huffman_chunks_canonical",
             static_cast<f64>(w.huff_canonical), "count");
  rep.metric("encoders.huffman_chunks_single",
             static_cast<f64>(w.huff_single), "count");
  rep.metric("encoders.huffman_chunks_double",
             static_cast<f64>(w.huff_double), "count");
  g("encoders.fzg_enc_gbps", "encoders.fzg_enc");
  g("encoders.fzg_dec_gbps", "encoders.fzg_dec");
  m("lossless.lz_enc_mbps", "lossless.lz_enc");
  m("lossless.lz_dec_mbps", "lossless.lz_dec");
  rep.metric("core.unattributed_pct", unattributed_pct, "%");
  rep.metric("trace.overhead_pct", overhead_pct, "%");
}

}  // namespace pb
