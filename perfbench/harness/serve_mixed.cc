// serve-mixed: an open loop against an in-process serve::server running
// FZMod-Speed, driven by a seeded Poisson schedule at one fixed rate.
//
// Why: this is the only workload that stresses admission, tenant fairness,
// small-request coalescing, the pipeline pool and the FZG/bitshuffle codec.
// Two tenants send requests at or under the coalescing threshold:
// `climate` sends 64x64x16 blocks cut from HURR and Nyx fields, `cosmo`
// sends 65536-element HACC slices. The mix is 3 compress : 1 decompress
// (decompresses use archives made before the timed phase) and every 4th
// compress carries the spec `lorenzo+huffman`, which exercises the
// per-spec pools while keeping Huffman a minority. It never touches
// first-touch copies or file IO.
//
// Each request is timed from when it was due, not from when it was sent,
// so a stalled generator charges its lateness to the requests behind it;
// the generator's own lateness is reported separately.
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "fzmod/data/datasets.hh"
#include "fzmod/data/io.hh"
#include "fzmod/device/runtime.hh"
#include "fzmod/serve/serve.hh"
#include "workloads.hh"

namespace pb {
namespace {

using namespace fzmod;

// Offered load. At the commit that introduced this benchmark the open loop
// saturated near 1000 requests/s on a 4-core host (closed-loop capacity in
// bench_serving_evidence.json: ~850/s). At 400/s and even 300/s a briefly
// slower shared host pushed the queue up and the 90th percentile with it;
// 150/s stays clear of saturation, so no backlog grows.
constexpr f64 kRate = 150;
// Latency limit for goodput, set where that commit meets it for >= 99% of
// requests on this schedule.
constexpr f64 kLimitMs = 10;
constexpr dims3 kBlock{64, 64, 16};     // climate request shape
constexpr std::size_t kSlice = 65536;   // cosmo request length
constexpr u64 kRequestBytes = kSlice * sizeof(f32);
static_assert(kBlock.len() == kSlice, "both tenants send equal-size requests");
// Each tenant's pool draws the same number of blocks from every field of
// its datasets, so the seed moves the cut offsets but not the pool's mix
// of fields (which would move its compression ratio).
constexpr int kHurrPerField = 6;        // x 20 HURR fields
constexpr int kNyxPerField = 4;         // x 6 Nyx fields
constexpr int kHaccPerField = 24;       // x 6 HACC fields
constexpr int kPool = 144;              // blocks per tenant
constexpr f64 kEb = 1e-4;
constexpr const char* kSpecReq = "lorenzo+huffman";
constexpr int kSetups = 7;
constexpr int kReplayOps = 64;

serve::server_options server_opts() {
  serve::server_options o;
  o.pool.cap = 4;
  o.pool.warm = 4;
  // Deep enough that a transient stall of the host shows up as latency,
  // never as queue_full rejections (which would be op failures).
  o.queue_depth = 1024;
  o.deadline_ms = 0;
  o.batch_elems = 65536;
  o.batch_max = 8;
  o.workers = 2;
  return o;
}

std::string pool_path(const args& a) { return a.dir + "/serve_pool.f32"; }

struct plan_entry {
  f64 due = 0;       // seconds after the schedule starts
  bool decompress = false;
  int tenant = 0;    // 0 climate, 1 cosmo
  int block = 0;     // index into the tenant's pool
  bool spec = false; // carries kSpecReq
};

std::vector<plan_entry> make_plan(u64 seed, f64 seconds) {
  const std::size_t n =
      std::max<std::size_t>(8, static_cast<std::size_t>(kRate * seconds));
  rng r(seed, 0x5e7e);
  std::vector<plan_entry> p(n);
  std::vector<int> tenants(n);
  for (std::size_t i = 0; i < n; ++i) tenants[i] = static_cast<int>(i % 2);
  r.shuffle(tenants);
  f64 t = 0;
  std::size_t compresses = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - r.unit()) / kRate;
    p[i].due = t;
    if (i % 4 == 0) {
      // One decompress in every group of four, at a seeded position.
      const std::size_t at = i + r.below(4);
      for (std::size_t j = i; j < std::min(n, i + 4); ++j) {
        p[j].decompress = j == at;
      }
    }
    p[i].tenant = tenants[i];
    p[i].block = static_cast<int>(r.below(kPool));
    if (!p[i].decompress) p[i].spec = compresses++ % 4 == 3;
  }
  return p;
}

dims3 tenant_dims(int tenant) { return tenant == 0 ? kBlock : dims3{kSlice}; }

struct outcome {
  bool ok = false;
  f64 latency_ms = 0, queue_ms = 0, exec_ms = 0, late_ms = 0;
  u64 archive_bytes = 0;
};

struct pending {
  std::size_t i = 0;
  clk::time_point sent;
  std::future<serve::response> fut;
};

}  // namespace

int prepare_serve(const args& a) {
  rng r(a.seed, 0x5e7f);
  std::vector<f32> pool;
  pool.reserve(2 * kPool * kBlock.len());
  auto cut_blocks = [&](data::dataset_id id, int field, int per_field) {
    const auto ds = data::describe(id);
    const auto v = data::generate(ds, field);
    // Block k starts in the k-th of `per_field` equal bands along z
    // (stratified), at a seeded position within its band.
    const std::size_t zspan = ds.dims.z - kBlock.z + 1;
    for (int k = 0; k < per_field; ++k) {
      const std::size_t x0 = r.below(ds.dims.x - kBlock.x + 1);
      const std::size_t y0 = r.below(ds.dims.y - kBlock.y + 1);
      const std::size_t z0 =
          k * zspan / per_field + r.below(zspan / per_field);
      for (std::size_t z = 0; z < kBlock.z; ++z) {
        for (std::size_t y = 0; y < kBlock.y; ++y) {
          const f32* row =
              v.data() + ((z0 + z) * ds.dims.y + (y0 + y)) * ds.dims.x + x0;
          pool.insert(pool.end(), row, row + kBlock.x);
        }
      }
    }
  };
  auto cut_slices = [&](int field) {
    const auto ds = data::describe(data::dataset_id::hacc);
    const auto v = data::generate(ds, field);
    const std::size_t span = v.size() - kSlice + 1;
    for (int k = 0; k < kHaccPerField; ++k) {
      const std::size_t at =
          k * span / kHaccPerField + r.below(span / kHaccPerField);
      pool.insert(pool.end(), v.begin() + at, v.begin() + at + kSlice);
    }
  };
  const int n_hurr = data::describe(data::dataset_id::hurr).n_fields;
  const int n_nyx = data::describe(data::dataset_id::nyx).n_fields;
  const int n_hacc = data::describe(data::dataset_id::hacc).n_fields;
  if (n_hurr * kHurrPerField + n_nyx * kNyxPerField != kPool ||
      n_hacc * kHaccPerField != kPool) {
    std::fprintf(stderr, "perfbench: unexpected dataset catalog shape\n");
    return 1;
  }
  for (int f = 0; f < n_hurr; ++f) {
    cut_blocks(data::dataset_id::hurr, f, kHurrPerField);
  }
  for (int f = 0; f < n_nyx; ++f) {
    cut_blocks(data::dataset_id::nyx, f, kNyxPerField);
  }
  for (int f = 0; f < n_hacc; ++f) cut_slices(f);
  data::store_f32_field(pool_path(a), pool);
  return 0;
}

report run_serve(const args& a) {
  report rep;
  const serve::server_options opt = server_opts();
  rep.constants.str("preset", "speed")
      .num("eb_rel", kEb)
      .str("loop", "open, seeded Poisson arrivals, one generator thread + "
                   "one collector thread")
      .num("rate_rps", kRate)
      .num("latency_limit_ms", kLimitMs)
      .str("mix", "3 compress : 1 decompress; every 4th compress uses spec "
                  "'lorenzo+huffman'")
      .str("tenants", "climate 64x64x16 HURR/Nyx blocks, cosmo 65536 HACC")
      .num("pool_blocks_per_tenant", kPool)
      .num("server_pool_cap", static_cast<f64>(opt.pool.cap))
      .num("server_queue_depth", static_cast<f64>(opt.queue_depth))
      .num("server_batch_elems", static_cast<f64>(opt.batch_elems))
      .num("server_batch_max", static_cast<f64>(opt.batch_max))
      .num("server_workers", opt.workers);

  // Inputs and the reference archives/decodes (input generation, untimed).
  const std::vector<f32> flat =
      data::load_f32_field(pool_path(a), dims3{2 * kPool * kBlock.len()});
  auto block = [&](int tenant, int b) {
    return std::span<const f32>(flat).subspan(
        (static_cast<std::size_t>(tenant) * kPool + b) * kBlock.len(),
        kBlock.len());
  };
  const core::pipeline_config cfg =
      core::pipeline_config::preset_speed({kEb, eb_mode::rel});
  std::vector<std::vector<u8>> ref_archive(2 * kPool);
  std::vector<std::vector<f32>> ref_decode(2 * kPool);
  {
    core::pipeline<f32> pipe(cfg);
    for (int t = 0; t < 2; ++t) {
      for (int b = 0; b < kPool; ++b) {
        auto& arch = ref_archive[t * kPool + b];
        arch = pipe.compress(block(t, b), tenant_dims(t));
        ref_decode[t * kPool + b] = pipe.decompress(arch);
      }
    }
  }

  // Set-up: server construction + warm() for both request shapes, from
  // empty caching pools each time; the last server takes the traffic.
  std::vector<f64> setups;
  std::unique_ptr<serve::server> srv;
  for (int i = 0; i < kSetups; ++i) {
    srv.reset();
    device::runtime::instance().trim_pools();
    const auto t0 = clk::now();
    srv = std::make_unique<serve::server>(cfg, opt);
    srv->warm(kBlock);
    srv->warm(dims3{kSlice});
    setups.push_back(seconds_since(t0));
  }

  const f64 measure_s = a.trace ? a.seconds / 2 : a.seconds;
  const std::vector<plan_entry> plan = make_plan(a.seed, measure_s);
  u64 plan_digest = 0;
  for (const auto& e : plan) {
    const int w[4] = {e.decompress, e.tenant, e.block, e.spec};
    plan_digest = digest(w, sizeof w, plan_digest);
    plan_digest = digest(&e.due, sizeof e.due, plan_digest);
  }

  std::vector<outcome> out(plan.size());
  // First archive per (tenant, block, spec): later compresses of the same
  // input must be byte-identical to it; it is decoded and checked after
  // the timed phase.
  std::vector<std::vector<u8>> first(4 * kPool);
  std::vector<std::string> why(plan.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<pending> q;
  bool done = false;
  const counters window;
  const auto start = clk::now() + std::chrono::milliseconds(20);

  std::thread collector([&] {
    for (;;) {
      pending p;
      {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] { return done || !q.empty(); });
        if (q.empty()) return;
        p = std::move(q.front());
        q.pop_front();
      }
      const plan_entry& e = plan[p.i];
      serve::response r;
      try {
        r = p.fut.get();
      } catch (const std::exception& ex) {
        why[p.i] = ex.what();
        continue;
      }
      outcome& o = out[p.i];
      const auto due = start + std::chrono::duration_cast<clk::duration>(
                                   std::chrono::duration<f64>(e.due));
      o.late_ms = std::chrono::duration<f64, std::milli>(p.sent - due).count();
      o.queue_ms = r.queue_ms;
      o.exec_ms = r.exec_ms;
      o.latency_ms = o.late_ms + r.queue_ms + r.exec_ms;
      if (!r.ok) {
        why[p.i] = std::string("rejected (") + serve::to_string(r.reason) +
                   ") " + r.error;
        continue;
      }
      const int key = e.tenant * kPool + e.block;
      if (e.decompress) {
        const auto& ref = ref_decode[key];
        if (r.data.size() != ref.size() ||
            std::memcmp(r.data.data(), ref.data(), ref.size() * 4) != 0) {
          why[p.i] = "decompress result differs from the reference decode";
          continue;
        }
      } else {
        auto& f = first[2 * key + e.spec];
        o.archive_bytes = r.archive.size();
        if (f.empty()) {
          f = std::move(r.archive);
        } else if (f != r.archive) {
          why[p.i] = "archive differs from an earlier compress of the same "
                     "block";
          continue;
        }
      }
      o.ok = true;
    }
  });

  auto generate = [&] {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const plan_entry& e = plan[i];
      serve::request req;
      req.tenant = e.tenant == 0 ? "climate" : "cosmo";
      if (e.decompress) {
        req.kind = serve::request::op::decompress;
        req.archive = ref_archive[e.tenant * kPool + e.block];
      } else {
        const auto b = block(e.tenant, e.block);
        req.data.assign(b.begin(), b.end());
        req.dims = tenant_dims(e.tenant);
        if (e.spec) req.spec = kSpecReq;
      }
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<clk::duration>(
                      std::chrono::duration<f64>(e.due)));
      const auto sent = clk::now();
      auto fut = srv->submit(std::move(req));
      {
        std::lock_guard lk(mu);
        q.push_back({i, sent, std::move(fut)});
      }
      cv.notify_one();
    }
  };
  std::string gen_error;
  std::thread generator([&] {
    try {
      generate();
    } catch (const std::exception& ex) {
      gen_error = ex.what();
    }
    {
      std::lock_guard lk(mu);
      done = true;
    }
    cv.notify_one();
  });
  generator.join();
  collector.join();
  if (!gen_error.empty()) {
    throw std::runtime_error("request generator: " + gen_error);
  }
  const counter_window win = window.delta();
  const auto sstats = srv->stats();
  srv.reset();

  // Verification after the timed phase: decode every distinct archive and
  // hold it to the bound pointwise.
  std::vector<f64> psnr(4 * kPool, 0);
  std::vector<std::string> bad(4 * kPool);
  {
    core::pipeline<f32> dec(cfg);
    for (int k = 0; k < 4 * kPool; ++k) {
      if (first[k].empty()) continue;
      const int key = k / 2;
      try {
        const auto y = dec.decompress(first[k]);
        quality qu;
        bad[k] = check_bound(block(key / kPool, key % kPool), y, kEb, &qu);
        psnr[k] = qu.psnr();
      } catch (const std::exception& ex) {
        bad[k] = ex.what();
      }
    }
  }

  std::vector<f64> lat, lat_c, lat_d, queue, exec, late;
  f64 psnr_sum = 0;
  u64 raw_c = 0, arch_c = 0, n_c = 0, ok = 0, within = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const plan_entry& e = plan[i];
    outcome& o = out[i];
    ++rep.attempted;
    late.push_back(o.late_ms);
    const int k = 2 * (e.tenant * kPool + e.block) + e.spec;
    if (o.ok && !e.decompress && !bad[k].empty()) {
      o.ok = false;
      why[i] = bad[k];
    }
    if (!o.ok) {
      rep.fail(i, e.decompress ? "decompress" : "compress", why[i]);
      continue;
    }
    ++ok;
    lat.push_back(o.latency_ms);
    queue.push_back(o.queue_ms);
    exec.push_back(o.exec_ms);
    within += o.latency_ms <= kLimitMs;
    if (e.decompress) {
      lat_d.push_back(o.latency_ms);
    } else {
      lat_c.push_back(o.latency_ms);
      raw_c += kRequestBytes;
      arch_c += o.archive_bytes;
      psnr_sum += psnr[k];
      ++n_c;
    }
  }
  const f64 attempted = static_cast<f64>(rep.attempted);
  rep.fixed.str("plan_digest", hex(plan_digest))
      .num("fixed_ops", static_cast<f64>(plan.size()))
      .num("fixed_compress_ops", static_cast<f64>(n_c))
      .num("fixed_raw_bytes", static_cast<f64>(raw_c))
      .num("fixed_archive_bytes", static_cast<f64>(arch_c))
      .num("ops", attempted);

  if (!a.trace) {
    // Request bytes over the median request latency, per direction.
    const f64 mb = static_cast<f64>(kRequestBytes) / 1e6;
    rep.metric("compress_gbps", mb / rep.tail(pct(lat_c, 0.5), "compress_gbps"),
               "GB/s");
    rep.metric("decompress_gbps",
               mb / rep.tail(pct(lat_d, 0.5), "decompress_gbps"), "GB/s");
    rep.metric("latency_p50_ms", pct(lat, 0.5), "ms");
    rep.metric("latency_p90_ms", pct(lat, 0.9), "ms");
    rep.metric("goodput_pct", 100.0 * static_cast<f64>(within) / attempted,
               "%");
    rep.metric("compression_ratio",
               static_cast<f64>(raw_c) / static_cast<f64>(arch_c), "x");
    rep.metric("psnr_db", psnr_sum / static_cast<f64>(n_c), "dB");
    rep.metric("ops_ok_pct", 100.0 * static_cast<f64>(ok) / attempted, "%");
    rep.metric("setup_s", median(setups), "s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return rep;
  }

  // Traced run: replay the plan's first requests through the layers.
  std::vector<replay_op> ops;
  for (int i = 0; i < kReplayOps && i < static_cast<int>(plan.size()); ++i) {
    const plan_entry& e = plan[i];
    replay_op op;
    op.kind = e.decompress ? path::serve_decompress
                           : (e.spec ? path::serve_huffman : path::serve_fzg);
    op.data = block(e.tenant, e.block);
    op.dims = tenant_dims(e.tenant);
    ops.push_back(op);
  }
  traced t = trace_replay(ops);
  for (const auto& e : t.log.errors()) rep.fail(0, "replay", e);
  // The device counters of the real serving phase, per request; the
  // Huffman decoder-tier counts of the replay (serving decodes none).
  with_device_counters(t.window, win);
  f64 mean_ms = 0;
  for (f64 v : lat) mean_ms += v;
  mean_ms /= static_cast<f64>(lat.empty() ? 1 : lat.size());
  const attribution at = attribute(t.log, ops.size(), mean_ms);
  put_layer_metrics(rep, t.log, t.window, plan.size(), t.memcpy_rate,
                    at.unattributed_pct, t.overhead_pct);
  const u64 rejected = sstats.rejected_full + sstats.rejected_deadline +
                       sstats.rejected_shutdown + sstats.rejected_bad;
  jobj own;
  own.num("serve.queue_p50_ms", rep.tail(pct(queue, 0.5), "serve.queue_p50_ms"))
      .num("serve.queue_p90_ms", rep.tail(pct(queue, 0.9), "serve.queue_p90_ms"))
      .num("serve.exec_p50_ms", rep.tail(pct(exec, 0.5), "serve.exec_p50_ms"))
      .num("serve.exec_p90_ms", rep.tail(pct(exec, 0.9), "serve.exec_p90_ms"))
      .num("serve.batched_pct",
           sstats.completed ? 100.0 * static_cast<f64>(sstats.batched) /
                                  static_cast<f64>(sstats.completed)
                            : 0.0)
      .num("serve.rejected", static_cast<f64>(rejected))
      .num("serve.request_p99_ms",
           rep.tail(pct(lat, 0.99), "serve.request_p99_ms"))
      .num("serve.gen_late_p99_ms",
           rep.tail(pct(late, 0.99), "serve.gen_late_p99_ms"))
      .num("serve.spec_requests", static_cast<f64>(sstats.spec_requests));
  rep.layers = layer_report(t, at, mean_ms, own);
  return rep;
}

}  // namespace pb
