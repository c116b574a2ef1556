// cli-oneshot: file -> archive -> file through the real `fzmod` binary,
// one child process at a time (a closed loop of one client).
//
// Why: this is the headline end-to-end path (FZMod-Default on a HURR field,
// file to file). It is the only workload that pays process set-up, first-touch
// host-to-device copies into fresh buffers, the kernel-tier resolution and
// whole-file IO. It bypasses serving, streaming, spline, top-k, LZ and FZG.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>

#include "fzmod/core/pipeline.hh"
#include "fzmod/data/datasets.hh"
#include "fzmod/data/io.hh"
#include "fzmod/device/runtime.hh"
#include "workloads.hh"

extern char** environ;

namespace pb {
namespace {

using namespace fzmod;

constexpr int kFields = 20;                 // every HURR field, once a cycle
constexpr dims3 kDims{250, 250, 50};        // the catalog's HURR shape
constexpr f64 kEb = 1e-4;                   // rel, FZMod-Default
constexpr f64 kLimitMs = 600;               // round-trip latency limit
constexpr int kSetupSpawns = 31;            // no-work starts for setup_s
constexpr int kReplayOps = 10;              // traced replay op set
// 100 round trips leave 10 samples beyond the reported 90th percentile.
constexpr u64 kMinOps = 100;

std::string field_path(const args& a, int f) {
  return a.dir + "/hurr_" + std::to_string(f) + ".f32";
}

struct child {
  bool ok = false;
  f64 secs = 0;
  f64 rss_mb = 0;
  std::string why;
};

/// Spawn the CLI, wait for it, and time spawn -> exit. Output goes to a
/// log file in the run directory.
child run_child(const args& a, const std::vector<std::string>& argv_s) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(a.fzmod.c_str()));
  for (const auto& s : argv_s) argv.push_back(const_cast<char*>(s.c_str()));
  argv.push_back(nullptr);
  const std::string log = a.dir + "/child.log";
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  child c;
  pid_t pid = 0;
  const auto t0 = clk::now();
  const int rc =
      posix_spawn(&pid, a.fzmod.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    c.why = "spawn failed: " + std::string(std::strerror(rc));
    return c;
  }
  int status = 0;
  struct ::rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  c.secs = seconds_since(t0);
  c.rss_mb = static_cast<f64>(ru.ru_maxrss) / 1024.0;
  c.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!c.ok) {
    std::string tail;
    try {
      const auto bytes = data::read_file(log);
      tail.assign(bytes.begin(), bytes.end());
    } catch (...) {
    }
    if (tail.size() > 200) tail = tail.substr(tail.size() - 200);
    c.why = "exit status " + std::to_string(status) + ": " + tail;
  }
  return c;
}

/// The op plan: one seeded permutation of the HURR fields per cycle.
std::vector<int> plan_cycle(u64 seed, u64 cycle) {
  std::vector<int> v(kFields);
  for (int i = 0; i < kFields; ++i) v[i] = i;
  rng r(seed, 0xc11 + cycle);
  r.shuffle(v);
  return v;
}

struct phase {
  std::vector<f64> comp_s, decomp_s, round_ms;
  u64 ok = 0, within = 0;
  f64 max_rss = 0;
  u64 fixed_raw = 0, fixed_arch = 0;
  f64 fixed_psnr_sum = 0;
  u64 plan_digest = 0;
};

phase measure(const args& a, f64 seconds, u64 min_ops, report& rep) {
  phase ph;
  const std::string arch = a.dir + "/op.fzmod";
  const std::string out = a.dir + "/op.out.f32";
  const std::string dims = "250,250,50";
  const auto t_start = clk::now();
  std::vector<int> cycle;
  for (u64 k = 0;; ++k) {
    // The fixed op set (one whole cycle) always completes, and so do
    // enough ops for the reported percentiles.
    if (k >= min_ops && seconds_since(t_start) >= seconds) break;
    if (k % kFields == 0) cycle = plan_cycle(a.seed, k / kFields);
    const int f = cycle[k % kFields];
    ph.plan_digest = digest(&f, sizeof f, ph.plan_digest);
    const std::string in = field_path(a, f);
    ++rep.attempted;
    const child c = run_child(a, {"compress", "-i", in, "-o", arch, "--dims",
                                  dims, "--eb", "1e-4", "--mode", "rel",
                                  "--preset", "default"});
    if (!c.ok) {
      rep.fail(k, "compress", c.why);
      continue;
    }
    const child d = run_child(a, {"decompress", "-i", arch, "-o", out});
    if (!d.ok) {
      rep.fail(k, "decompress", d.why);
      continue;
    }
    ph.max_rss = std::max({ph.max_rss, c.rss_mb, d.rss_mb});
    // Verification, outside the timed window.
    const u64 raw = kDims.len() * sizeof(f32);
    u64 arch_bytes = 0;
    quality q;
    std::string bad;
    try {
      arch_bytes = std::filesystem::file_size(arch);
      const auto x = data::load_f32_field(in, kDims);
      const auto y = data::load_f32_field(out, kDims);
      bad = check_bound(x, y, kEb, &q);
    } catch (const std::exception& e) {
      bad = e.what();
    }
    if (!bad.empty()) {
      rep.fail(k, "verify", bad);
      continue;
    }
    ++ph.ok;
    ph.comp_s.push_back(c.secs);
    ph.decomp_s.push_back(d.secs);
    const f64 round = 1e3 * (c.secs + d.secs);
    ph.round_ms.push_back(round);
    ph.within += round <= kLimitMs;
    if (k < kFields) {
      ph.fixed_raw += raw;
      ph.fixed_arch += arch_bytes;
      ph.fixed_psnr_sum += q.psnr();
    }
  }
  return ph;
}

}  // namespace

int prepare_cli(const args& a) {
  const auto ds = data::describe(data::dataset_id::hurr);
  if (ds.dims.len() != kDims.len() || ds.n_fields < kFields) {
    std::fprintf(stderr, "perfbench: unexpected HURR catalog shape\n");
    return 1;
  }
  for (int f = 0; f < kFields; ++f) {
    data::store_f32_field(field_path(a, f), data::generate(ds, f));
    // Flush now so no write-back of the inputs overlaps the timed phase.
    const int fd = ::open(field_path(a, f).c_str(), O_RDONLY);
    if (fd < 0 || ::fsync(fd) != 0) {
      std::fprintf(stderr, "perfbench: cannot flush %s\n",
                   field_path(a, f).c_str());
      if (fd >= 0) ::close(fd);
      return 1;
    }
    ::close(fd);
  }
  return 0;
}

report run_cli(const args& a) {
  report rep;
  rep.constants.str("preset", "default")
      .str("dataset", "HURR 250x250x50 f32")
      .num("fields_per_cycle", kFields)
      .num("eb_rel", kEb)
      .num("latency_limit_ms", kLimitMs)
      .num("setup_spawns", kSetupSpawns)
      .str("loop", "closed, one child process at a time");

  // Set-up: the CLI's no-work process start (`fzmod modules`).
  std::vector<f64> floor_s;
  for (int i = 0; i < kSetupSpawns; ++i) {
    const child c = run_child(a, {"modules"});
    if (!c.ok) {
      rep.fail(i, "setup", c.why);
      continue;
    }
    floor_s.push_back(c.secs);
  }
  const f64 setup = median(floor_s);

  const f64 measure_s = a.trace ? a.seconds / 2 : a.seconds;
  const phase ph =
      measure(a, measure_s, a.trace ? kFields : kMinOps, rep);
  rep.fixed.str("plan_digest", hex(ph.plan_digest))
      .num("fixed_ops", kFields)
      .num("fixed_raw_bytes", static_cast<f64>(ph.fixed_raw))
      .num("fixed_archive_bytes", static_cast<f64>(ph.fixed_arch))
      .num("ops", static_cast<f64>(rep.attempted));
  const f64 attempted = static_cast<f64>(rep.attempted);

  if (!a.trace) {
    // Field bytes over the median child wall time (spawn -> exit).
    const f64 gb = static_cast<f64>(kDims.len() * sizeof(f32)) / 1e9;
    rep.metric("compress_gbps",
               gb / rep.tail(pct(ph.comp_s, 0.5), "compress_gbps"), "GB/s");
    rep.metric("decompress_gbps",
               gb / rep.tail(pct(ph.decomp_s, 0.5), "decompress_gbps"),
               "GB/s");
    rep.metric("latency_p50_ms", pct(ph.round_ms, 0.5), "ms");
    rep.metric("latency_p90_ms", pct(ph.round_ms, 0.9), "ms");
    rep.metric("goodput_pct", 100.0 * static_cast<f64>(ph.within) / attempted,
               "%");
    rep.metric("compression_ratio",
               static_cast<f64>(ph.fixed_raw) / static_cast<f64>(ph.fixed_arch),
               "x");
    rep.metric("psnr_db", ph.fixed_psnr_sum / kFields, "dB");
    rep.metric("ops_ok_pct", 100.0 * static_cast<f64>(ph.ok) / attempted, "%");
    rep.metric("setup_s", setup, "s");
    rep.metric("peak_rss_mb", ph.max_rss, "MB");
    return rep;
  }

  // Traced run: replay the first ops of the plan cold, in this process,
  // through each layer's public functions.
  const std::vector<int> cycle = plan_cycle(a.seed, 0);
  std::vector<std::vector<f32>> inputs;
  std::vector<replay_op> ops;
  for (int i = 0; i < kReplayOps; ++i) {
    inputs.push_back(data::load_f32_field(field_path(a, cycle[i]), kDims));
  }
  for (int i = 0; i < kReplayOps; ++i) {
    replay_op op;
    op.kind = path::cli;
    op.data = inputs[i];
    op.dims = kDims;
    op.in_file = field_path(a, cycle[i]);
    op.work_file = a.dir + "/replay.fzmod";
    ops.push_back(op);
  }
  // Device counters of the CLI's own path, cold per op: a fresh pipeline on
  // emptied caching pools, as each child process runs it.
  counter_window real;
  {
    const counters c;
    const auto cfg = core::pipeline_config::preset_default({kEb, eb_mode::rel});
    for (const auto& in : inputs) {
      device::runtime::instance().trim_pools();
      core::pipeline<f32> p(cfg);
      (void)p.decompress(p.compress(in, kDims));
    }
    real = c.delta();
  }
  traced t = trace_replay(ops);
  with_device_counters(t.window, real);
  for (const auto& e : t.log.errors()) rep.fail(0, "replay", e);
  const f64 wall_ms = median(ph.round_ms);
  const attribution at = attribute(t.log, kReplayOps, wall_ms);
  put_layer_metrics(rep, t.log, t.window, kReplayOps, t.memcpy_rate,
                    at.unattributed_pct, t.overhead_pct);
  jobj own;
  own.num("cli.process_floor_ms", 1e3 * setup)
      .num("data.read_gbps", layer_rate(t.log, "data.read", 1e9))
      .num("data.write_gbps", layer_rate(t.log, "data.write", 1e9));
  rep.layers = layer_report(t, at, wall_ms, own);
  return rep;
}

}  // namespace pb
