// FZModules — pipeline tracing & counters subsystem.
//
// The runtime layers built so far (device streams, the STF task graph,
// the chunk-window scheduler) execute as a black box: `runtime_stats`
// reports cumulative totals and `stage_timings` per-stage wall time, but
// nothing shows *when* work ran, on which stream, or how much of it
// overlapped. This recorder makes the schedule observable the way cuSZ
// and FZ-GPU justify their designs with per-kernel timelines:
//
//   - **spans** — named intervals (a kernel execution, a pipeline stage,
//     one chunk's compression) with begin timestamp + duration;
//   - **instant events** — points in time (an op enqueued, a pool miss);
//   - **counter samples** — named time-series values (kernels launched,
//     pool hit/miss totals, chunk-window occupancy).
//
// Recording is thread-safe and low-overhead: each thread appends to its
// own fixed-capacity ring buffer (oldest events overwritten, drops are
// counted), registered once with a process-wide collector that outlives
// the producing threads — chunk-scheduler workers are transient, their
// events are not. Event names are copied inline (no lifetime coupling to
// the caller's strings).
//
// Tracing is compiled in but **off by default**: every record call first
// checks one relaxed atomic flag, so the disabled-mode cost is a single
// predictable branch (bench_trace_overhead measures it at < 1% on the
// end-to-end throughput bench). Enable with the environment variable
// `FZMOD_TRACE=1` or at runtime via `set_enabled(true)`; per-thread ring
// capacity is `FZMOD_TRACE_BUF` events (default 65536).
//
// Export surfaces (see docs/OBSERVABILITY.md for how to read them):
//   - `export_chrome_json()` — Chrome `chrome://tracing` / Perfetto
//     "Trace Event Format" JSON;
//   - `summary_report()` / `compute_summary()` — plain-text (and
//     machine-readable) rollup: per-stage wall time, stream overlap %,
//     pool hit rate, chunk-window occupancy;
//   - `last_dag()` — the Graphviz DOT dump of the most recent STF task
//     graph (`stf::context` publishes it on finalize while tracing).
#pragma once

#include <atomic>
#include <string>
#include <string_view>
#include <vector>

#include "fzmod/common/types.hh"

namespace fzmod::trace {

/// What an `event` records. `span`s carry `dur_ns`; `counter`s carry
/// `value`; `instant`s are a point in time (value optionally annotates,
/// e.g. the byte count of a pool miss).
enum class kind : u8 { span, instant, counter };

/// One recorded trace event. Fixed-size POD so ring buffers never chase
/// pointers; names/categories are truncated copies.
struct event {
  static constexpr std::size_t name_cap = 64;
  static constexpr std::size_t cat_cap = 16;

  kind k = kind::instant;
  u32 tid = 0;        ///< small stable id of the recording thread
  u32 stream_id = 0;  ///< device::stream id (0 = not stream-bound)
  u64 ts_ns = 0;      ///< nanoseconds since the trace epoch (span begin)
  u64 dur_ns = 0;     ///< span duration (spans only)
  f64 value = 0;      ///< counter value / optional annotation (e.g. bytes)
  char name[name_cap] = {};
  char cat[cat_cap] = {};
};

/// Resolve the per-thread ring capacity from `FZMOD_TRACE_BUF` (default
/// 65536). Strict parse: a malformed value or one below the minimum of 16
/// throws status::invalid_argument naming the variable — no silent
/// fallback (common/env.hh semantics). The collector calls this once at
/// first use; exposed so tests can pin the parse contract directly.
[[nodiscard]] std::size_t resolve_ring_cap();

/// Whether recording is currently on (one relaxed atomic load — this is
/// the disabled-mode fast path every instrumentation site starts with).
[[nodiscard]] bool enabled();

/// Runtime switch; the startup default honours `FZMOD_TRACE` (unset/0 =
/// off, anything else = on).
void set_enabled(bool on);

/// Nanoseconds since the process-wide trace epoch (steady clock).
[[nodiscard]] u64 now_ns();

/// Record an instant event. No-op (single branch) while disabled.
void instant(std::string_view cat, std::string_view name, u32 stream_id = 0,
             f64 value = 0);

/// Record a counter sample. Counter events with the same name form a
/// time series; exporters render them as Perfetto counter tracks.
void counter(std::string_view name, f64 value);

/// Record the process's cumulative minor page-fault count
/// (`getrusage(RUSAGE_SELF).ru_minflt`) as the `process.minflt` counter.
/// Pipelines sample it at their stage boundaries, and the summary turns
/// the samples into per-stage fault deltas (first-touch cost). No-op
/// (single branch) while disabled.
void sample_minflt();

/// Record a completed span after the fact (begin + duration already
/// measured, e.g. by a stage stopwatch).
void complete(std::string_view cat, std::string_view name, u64 begin_ns,
              u64 dur_ns, u32 stream_id = 0, f64 value = 0);

/// RAII span: marks its construction..destruction interval. If tracing
/// is disabled at construction, destruction does nothing (zero events).
/// The name is copied at construction, so dynamic strings are safe.
class span_scope {
 public:
  span_scope(std::string_view cat, std::string_view name, u32 stream_id = 0,
             f64 value = 0);
  ~span_scope();
  span_scope(const span_scope&) = delete;
  span_scope& operator=(const span_scope&) = delete;

 private:
  bool active_ = false;
  u32 stream_id_ = 0;
  u64 begin_ns_ = 0;
  f64 value_ = 0;
  char name_[event::name_cap] = {};
  char cat_[event::cat_cap] = {};
};

// RAII span macros (unique local per line). Usage:
//   FZMOD_TRACE_SPAN("pipeline", "compress");
//   FZMOD_TRACE_SPAN_ID("stream", "kernel", stream_id);
#define FZMOD_TRACE_CONCAT_(a, b) a##b
#define FZMOD_TRACE_CONCAT(a, b) FZMOD_TRACE_CONCAT_(a, b)
#define FZMOD_TRACE_SPAN(cat, name)                          \
  ::fzmod::trace::span_scope FZMOD_TRACE_CONCAT(fzmod_trace_span_, \
                                                __LINE__)(cat, name)
#define FZMOD_TRACE_SPAN_ID(cat, name, sid)                  \
  ::fzmod::trace::span_scope FZMOD_TRACE_CONCAT(fzmod_trace_span_, \
                                                __LINE__)(cat, name, sid)

/// Drop every recorded event (ring contents and drop counters) and the
/// stored DAG. Does not change the enabled switch.
void clear();

/// Events currently held across all thread rings (capped by capacity).
[[nodiscard]] u64 event_count();

/// Events overwritten because a thread's ring was full.
[[nodiscard]] u64 dropped_count();

/// Copy out every held event, sorted by timestamp.
[[nodiscard]] std::vector<event> snapshot();

/// Chrome "Trace Event Format" JSON (the object form:
/// {"traceEvents":[...]}). Loadable in chrome://tracing and Perfetto.
/// Spans export as ph:"X" complete events, instants as ph:"i", counters
/// as ph:"C"; stream-bound events carry args.stream.
[[nodiscard]] std::string export_chrome_json();

/// Aggregate of one span name within a category (see summary::stages).
struct stage_stat {
  std::string name;
  u64 count = 0;
  f64 total_s = 0;
  /// Minor faults the process took inside this stage's spans (process-
  /// wide `process.minflt` deltas, so concurrent stages share them).
  u64 minflt = 0;
};

/// Machine-readable rollup of the recorded events; `summary_report()`
/// formats it, benches embed it as the `trace` section of their JSON.
struct summary {
  u64 events = 0;
  u64 dropped = 0;
  f64 wall_s = 0;  ///< first-event to last-event span
  std::vector<stage_stat> stages;  ///< cat=="pipeline" spans by name
  f64 stream_busy_s = 0;     ///< sum of per-stream busy (unioned) time
  f64 stream_overlap_pct = 0;  ///< % of busy time concurrent with another stream
  u64 h2d_bytes = 0, d2h_bytes = 0, d2d_bytes = 0;  ///< traced memcpy volume
  f64 pool_hit_rate = -1;  ///< from the latest pool counter samples; -1 unknown
  u64 pool_misses = 0;     ///< traced pool-miss instants
  f64 max_inflight = 0;    ///< peak of the chunked.inflight counter
  f64 mean_inflight = 0;   ///< mean of chunked.inflight samples
  /// process.minflt growth from the first to the last sample; -1 when the
  /// trace holds no sample.
  f64 minflt = -1;
};

[[nodiscard]] summary compute_summary();

/// Human-readable report over compute_summary(): per-stage wall time (and
/// minor faults, when sampled), stream overlap %, pool hit rate,
/// chunk-window occupancy.
[[nodiscard]] std::string summary_report();

/// The STF task-graph DOT dump slot: `stf::context::finalize()` publishes
/// its inferred DAG here while tracing is enabled; the CLI's
/// `--trace-dot` writes it out. Empty when no graph ran since clear().
void set_last_dag(std::string dot);
[[nodiscard]] std::string last_dag();

}  // namespace fzmod::trace
