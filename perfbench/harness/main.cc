// perfbench — benchmark harness entry point.
//
//   perfbench prepare --workload W --seed N --dir D
//   perfbench run     --workload W --seed N --seconds S --trace 0|1 --dir D
//                     [--fzmod PATH]
//
// `prepare` writes the workload's generated inputs into D; `run` measures
// and prints one JSON report line (metrics, sample counts, failures,
// constants, fixed-op-set facts and, when traced, the layer report).
// perfbench/run.py drives both and turns the report into the result line.
#include <sys/resource.h>

#include <cstdlib>
#include <exception>
#include <set>

#include "fzmod/metrics/metrics.hh"
#include "workloads.hh"

namespace pb {

std::string check_bound(std::span<const f32> in, std::span<const f32> out,
                        f64 eb_rel, quality* q) {
  if (in.size() != out.size() || in.empty()) {
    return "size mismatch: " + std::to_string(in.size()) + " in, " +
           std::to_string(out.size()) + " out";
  }
  f64 lo = in[0], hi = in[0];
  for (f32 v : in) {
    lo = std::min<f64>(lo, v);
    hi = std::max<f64>(hi, v);
  }
  const f64 range = hi - lo;
  const f64 bound = range > 0 ? eb_rel * range : eb_rel;
  const f64 slack = fzmod::metrics::f32_bound_slack(
      bound, std::max(std::fabs(lo), std::fabs(hi)));
  f64 sq = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const f64 e = std::fabs(static_cast<f64>(in[i]) - out[i]);
    if (!(e <= slack)) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "element %zu: |error| %.6g exceeds bound %.6g", i, e,
                    slack);
      return buf;
    }
    sq += e * e;
  }
  if (q) {
    q->sq_err += sq;
    q->n += in.size();
    if (!q->any) {
      q->lo = lo;
      q->hi = hi;
      q->any = true;
    }
    q->lo = std::min(q->lo, lo);
    q->hi = std::max(q->hi, hi);
  }
  return {};
}

f64 peak_rss_mb() {
  struct ::rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<f64>(ru.ru_maxrss) / 1024.0;
}

traced trace_replay(const std::vector<replay_op>& ops) {
  traced t;
  // Untraced and traced passes alternate; the overhead is the median of
  // the per-round ratios, so slow drift of the host cancels.
  std::vector<f64> ratios;
  for (int round = 0; round < 3; ++round) {
    f64 off = 0;
    {
      const counters c;
      span_log quiet(false);
      const auto t0 = clk::now();
      replay(ops, quiet);
      off = seconds_since(t0);
      if (round == 0) t.window = c.delta();
      for (const auto& e : quiet.errors()) t.log.error(e);
    }
    span_log loud(true);
    const auto t0 = clk::now();
    replay(ops, round == 0 ? t.log : loud);
    ratios.push_back(seconds_since(t0) / off - 1.0);
  }
  t.overhead_pct = 100.0 * median(ratios);
  t.llc = llc_bytes();
  t.memcpy_bytes = std::max<std::size_t>(4 * t.llc, std::size_t{256} << 20);
  t.memcpy_rate = memcpy_gbps(t.memcpy_bytes);
  return t;
}

jobj layer_report(const traced& t, const attribution& at, f64 op_wall_ms,
                  const jobj& own) {
  std::set<std::string> layers;
  for (const auto& sp : t.log.spans()) layers.insert(sp.layer);
  jobj roof;
  for (const auto& l : layers) {
    const f64 r = layer_rate(t.log, l, 1e9);
    roof.obj(l, jobj().num("gbps", r).num("pct_of_memcpy",
                                          100.0 * r / t.memcpy_rate));
  }
  jobj rep;
  rep.num("op_wall_ms", op_wall_ms)
      .num("core.unattributed_pct", at.unattributed_pct)
      .num("trace.overhead_pct", t.overhead_pct)
      .obj("self_time", at.table)
      .obj("roofline", roof)
      .num("memcpy_array_mb", static_cast<f64>(t.memcpy_bytes >> 20))
      .num("llc_mb", static_cast<f64>(t.llc >> 20))
      .obj("workload_layers", own);
  return rep;
}

}  // namespace pb

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench prepare|run --workload W "
               "--seed N --dir D [--seconds S] [--trace 0|1] [--fzmod PATH]\n",
               why);
  std::exit(2);
}

pb::args parse(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  pb::args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) usage("flag without a value");
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--dir") a.dir = v;
    else if (k == "--fzmod") a.fzmod = v;
    else usage(("unknown flag " + k).c_str());
  }
  if (a.dir.empty()) usage("missing --dir");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const pb::args a = parse(argc, argv);
  try {
    const bool prep = a.mode == "prepare";
    if (!prep && a.mode != "run") usage("mode must be prepare or run");
    pb::report rep;
    if (a.workload == "cli-oneshot") {
      if (prep) return pb::prepare_cli(a);
      if (a.fzmod.empty()) usage("cli-oneshot needs --fzmod");
      rep = pb::run_cli(a);
    } else if (a.workload == "serve-mixed") {
      if (prep) return pb::prepare_serve(a);
      rep = pb::run_serve(a);
    } else if (a.workload == "stream-archive") {
      if (prep) return pb::prepare_stream(a);
      rep = pb::run_stream(a);
    } else {
      usage(("unknown workload " + a.workload).c_str());
    }
    std::printf("%s\n", rep.text(a.workload).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
