// perfbench — the traced run's layer replay.
//
// A traced run replays a workload's own inputs through the public
// functions of each layer (device copies, kernels, predictors, encoders,
// LZ, file IO), timing every call with a span kept in memory. Spans carry
// the op they belong to and whether the call is on the workload's real
// path (so it counts toward attributing the op's wall time) or an
// off-path probe of a layer the workload bypasses, run on the same data
// so that every layer metric has a measured value on every workload.
//
// Spans are written out only at the end (as the "layers" section of the
// report). Untraced end-to-end numbers never go through this code.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hh"

namespace pb {

/// Which real path the replayed op follows.
enum class path : u8 {
  cli,              // file -> lorenzo + huffman archive -> file, cold buffers
  serve_fzg,        // in-memory FZMod-Speed compress (lorenzo + fzg)
  serve_huffman,    // in-memory compress with the `lorenzo+huffman` spec
  serve_decompress, // in-memory FZMod-Speed decompress
  stream_chunk,     // one streamed chunk: spline + top-k huffman + lz
};

struct span_rec {
  const char* layer = "";  // a string literal: recording never allocates
  u64 op = 0;
  bool on_path = false;
  u64 ns = 0;
  u64 bytes = 0;
};

class span_log {
 public:
  explicit span_log(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 14);  // no reallocation while recording
  }

  /// Run `f`, recording a span for `layer` when the log is on. Untraced
  /// replays take no clock reads at all.
  template <class F>
  void time(const char* layer, bool on_path, u64 bytes, F&& f) {
    if (!on_) {
      f();
      return;
    }
    const u64 t0 = now_ns();
    f();
    spans_.push_back({layer, op_, on_path, now_ns() - t0, bytes});
  }
  void set_op(u64 op) { op_ = op; }
  [[nodiscard]] const std::vector<span_rec>& spans() const { return spans_; }

  /// Work counters (outliers, elements) — recorded traced or not.
  void count(const std::string& name, u64 v);
  [[nodiscard]] u64 counted(const std::string& name) const;

  /// A replayed op that decoded outside its bound.
  void error(const std::string& why) { errors_.push_back(why); }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

 private:
  bool on_;
  u64 op_ = 0;
  std::vector<span_rec> spans_;
  std::map<std::string, u64> counts_;
  std::vector<std::string> errors_;
};

/// One op to replay: its input values and shape, plus files for the paths
/// that do file IO (empty otherwise).
struct replay_op {
  path kind = path::cli;
  std::span<const f32> data;
  dims3 dims;
  std::string in_file;    // raw input (cli)
  std::string work_file;  // archive/output scratch (cli)
};

/// Replay every op once through every layer; spans go to `log`.
void replay(const std::vector<replay_op>& ops, span_log& log);

/// Counter deltas the replay leaves in the program's public snapshots.
struct counter_window {
  u64 kernels = 0, h2d_bytes = 0, pool_hits = 0, pool_misses = 0;
  u64 tier_vector = 0, tier_portable = 0;
  u64 huff_canonical = 0, huff_single = 0, huff_double = 0;
};
class counters {
 public:
  counters();                        // snapshot now
  [[nodiscard]] counter_window delta() const;  // since construction

 private:
  counter_window base_;
};

/// Aggregate a span log into the generic per-layer metrics (every layer's
/// throughput) and an attribution table of the on-path layers' self time
/// per op. `op_wall_ms` is the untraced op wall time the on-path spans are
/// attributed against (for an op that runs several workers at once, the
/// wall time the whole machine spends per replayed unit).
struct attribution {
  f64 unattributed_pct = 0;
  jobj table;  // layer -> {"self_ms_per_op", "share_pct"}
};
[[nodiscard]] attribution attribute(const span_log& log, u64 nops,
                                    f64 op_wall_ms);

/// Throughput of one layer across all its spans; 0 when never recorded.
[[nodiscard]] f64 layer_rate(const span_log& log, const std::string& layer,
                             f64 unit_bytes);

/// The host memcpy roofline: single-thread std::memcpy between two arrays
/// of `bytes` each (chosen >= 4x the last-level cache).
[[nodiscard]] f64 memcpy_gbps(std::size_t bytes);

/// Last-level cache size in bytes from sysfs (0 when unknown).
[[nodiscard]] std::size_t llc_bytes();

/// Emit the generic per-layer metrics every workload defines.
void put_layer_metrics(report& rep, const span_log& log,
                       const counter_window& w, u64 ops,
                       f64 memcpy_rate, f64 unattributed_pct,
                       f64 overhead_pct);

}  // namespace pb
