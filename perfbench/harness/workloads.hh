// perfbench — the three workloads and the traced-run plumbing they share.
#pragma once

#include "bench.hh"
#include "layers.hh"

namespace pb {

// Each workload writes its generated inputs into the run directory in a
// separate `prepare` process, so input generation never counts toward the
// measuring process's set-up time or peak RSS.
int prepare_cli(const args& a);
int prepare_serve(const args& a);
int prepare_stream(const args& a);

report run_cli(const args& a);
report run_serve(const args& a);
report run_stream(const args& a);

/// A finished traced replay: the spans of the traced pass, the counter
/// deltas of an untraced pass, the roofline, and the tracing overhead
/// (traced vs untraced replay wall time, median of three interleaved
/// rounds).
struct traced {
  span_log log{true};
  counter_window window;
  f64 memcpy_rate = 0;
  std::size_t memcpy_bytes = 0, llc = 0;
  f64 overhead_pct = 0;
};
[[nodiscard]] traced trace_replay(const std::vector<replay_op>& ops);

/// The device counters come from the workload's real path (`real`); the
/// Huffman decoder-tier counts stay the replay's, whose op set is fixed,
/// so they repeat exactly.
inline void with_device_counters(counter_window& w, const counter_window& real) {
  const counter_window replay = w;
  w = real;
  w.huff_canonical = replay.huff_canonical;
  w.huff_single = replay.huff_single;
  w.huff_double = replay.huff_double;
}

/// The "layers" section of a traced report: per-layer self time and share
/// of the op, each throughput as a share of the memcpy roofline, the
/// roofline's array and cache sizes, and the workload's own subsystem
/// metrics (`own`).
[[nodiscard]] jobj layer_report(const traced& t, const attribution& at,
                                f64 op_wall_ms, const jobj& own);

}  // namespace pb
