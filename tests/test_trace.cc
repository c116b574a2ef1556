// Unit tests: trace recorder — disabled fast path, cross-thread span
// nesting, counter series, Chrome JSON export (re-parsed here with a
// minimal validating JSON parser), the STF DAG DOT dump, the summary
// rollup, and torn-free runtime stats snapshots under contention.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <sys/mman.h>

#include "fzmod/core/pipeline.hh"
#include "fzmod/core/stf_pipeline.hh"
#include "fzmod/device/runtime.hh"
#include "fzmod/trace/trace.hh"

namespace fzmod {
namespace {

/// Every test owns the global recorder state for its duration.
struct trace_session {
  trace_session() {
    trace::set_enabled(true);
    trace::clear();
  }
  ~trace_session() {
    trace::set_enabled(false);
    trace::clear();
  }
};

// ---------------------------------------------------------------------------
// Minimal JSON DOM parser, just enough to re-parse the Chrome export: full
// syntax (objects, arrays, strings with escapes, numbers, literals), no
// extensions. Throws std::runtime_error on malformed input.

struct json_value;
using json_object = std::map<std::string, json_value>;
using json_array = std::vector<json_value>;

struct json_value {
  std::variant<std::nullptr_t, bool, f64, std::string,
               std::shared_ptr<json_array>, std::shared_ptr<json_object>>
      v;

  [[nodiscard]] const json_object& obj() const {
    return *std::get<std::shared_ptr<json_object>>(v);
  }
  [[nodiscard]] const json_array& arr() const {
    return *std::get<std::shared_ptr<json_array>>(v);
  }
  [[nodiscard]] const std::string& str() const {
    return std::get<std::string>(v);
  }
  [[nodiscard]] f64 num() const { return std::get<f64>(v); }
};

class json_parser {
 public:
  explicit json_parser(std::string_view s) : s_(s) {}

  json_value parse() {
    json_value v = value();
    ws();
    if (i_ != s_.size()) fail("trailing bytes after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json at byte " + std::to_string(i_) + ": " +
                             why);
  }
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }
  char peek() {
    if (i_ >= s_.size()) fail("unexpected end");
    return s_[i_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i_;
  }

  json_value value() {
    ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return {std::string(string())};
      case 't': literal("true"); return {true};
      case 'f': literal("false"); return {false};
      case 'n': literal("null"); return {nullptr};
      default: return {number()};
    }
  }
  void literal(std::string_view lit) {
    if (s_.substr(i_, lit.size()) != lit) fail("bad literal");
    i_ += lit.size();
  }
  json_value object() {
    auto o = std::make_shared<json_object>();
    expect('{');
    ws();
    if (peek() == '}') { ++i_; return {o}; }
    for (;;) {
      ws();
      std::string k = string();
      ws();
      expect(':');
      (*o)[std::move(k)] = value();
      ws();
      if (peek() == ',') { ++i_; continue; }
      expect('}');
      return {o};
    }
  }
  json_value array() {
    auto a = std::make_shared<json_array>();
    expect('[');
    ws();
    if (peek() == ']') { ++i_; return {a}; }
    for (;;) {
      a->push_back(value());
      ws();
      if (peek() == ',') { ++i_; continue; }
      expect(']');
      return {a};
    }
  }
  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (i_ >= s_.size()) fail("unterminated string");
      char c = s_[i_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control char");
      if (c != '\\') { out += c; continue; }
      if (i_ >= s_.size()) fail("dangling escape");
      char e = s_[i_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (i_ + 4 > s_.size()) fail("short \\u escape");
          for (int k = 0; k < 4; ++k) {
            if (!std::isxdigit(static_cast<unsigned char>(s_[i_ + k])))
              fail("bad \\u escape");
          }
          out += '?';  // codepoint value irrelevant to these tests
          i_ += 4;
          break;
        }
        default: fail("unknown escape");
      }
    }
  }
  f64 number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-'))
      ++i_;
    if (i_ == start) fail("expected number");
    return std::stod(std::string(s_.substr(start, i_ - start)));
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

// ---------------------------------------------------------------------------

TEST(Trace, DisabledPathRecordsNothing) {
  trace::set_enabled(false);
  trace::clear();
  trace::instant("t", "instant");
  trace::counter("t.counter", 1);
  trace::complete("t", "complete", 0, 100);
  trace::sample_minflt();
  {
    FZMOD_TRACE_SPAN("t", "raii");
  }
  EXPECT_EQ(trace::event_count(), 0u);
  EXPECT_EQ(trace::dropped_count(), 0u);
  EXPECT_TRUE(trace::snapshot().empty());
}

TEST(Trace, SpanDisabledAtOpenStaysSilentAcrossEnable) {
  trace::set_enabled(false);
  trace::clear();
  {
    trace::span_scope sp("t", "opened-while-off");
    trace::set_enabled(true);  // flips mid-span; the span must not record
  }
  EXPECT_EQ(trace::event_count(), 0u);
  trace::set_enabled(false);
  trace::clear();
}

TEST(Trace, SpanNestingAcrossThreads) {
  trace_session session;
  constexpr int nthreads = 4;
  std::vector<std::thread> ts;
  ts.reserve(nthreads);
  for (int t = 0; t < nthreads; ++t) {
    ts.emplace_back([t] {
      trace::span_scope outer("nest", "outer" + std::to_string(t));
      {
        trace::span_scope inner("nest", "inner" + std::to_string(t));
      }
    });
  }
  for (auto& t : ts) t.join();

  const std::vector<trace::event> ev = trace::snapshot();
  std::map<std::string, trace::event> by_name;
  std::set<u32> tids;
  for (const auto& e : ev) {
    ASSERT_EQ(e.k, trace::kind::span);
    by_name[e.name] = e;
    tids.insert(e.tid);
  }
  ASSERT_EQ(by_name.size(), 2u * nthreads);
  // Each thread recorded on its own ring under a distinct thread id.
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    const auto& outer = by_name.at("outer" + std::to_string(t));
    const auto& inner = by_name.at("inner" + std::to_string(t));
    EXPECT_EQ(outer.tid, inner.tid);
    // Inner nests inside outer: [inner.ts, inner.end] within
    // [outer.ts, outer.end].
    EXPECT_GE(inner.ts_ns, outer.ts_ns);
    EXPECT_LE(inner.ts_ns + inner.dur_ns, outer.ts_ns + outer.dur_ns);
  }
}

TEST(Trace, SnapshotIsTimestampSorted) {
  trace_session session;
  for (int i = 0; i < 100; ++i) trace::instant("t", "tick");
  const auto ev = trace::snapshot();
  ASSERT_EQ(ev.size(), 100u);
  for (std::size_t i = 1; i < ev.size(); ++i) {
    EXPECT_GE(ev[i].ts_ns, ev[i - 1].ts_ns);
  }
}

TEST(Trace, RuntimeCounterSeriesIsMonotonic) {
  trace_session session;
  // Interleave real allocator traffic with counter samples; the sampled
  // cumulative series (hits, misses, kernels, h2d) must never decrease.
  for (int round = 0; round < 8; ++round) {
    device::buffer<f32> b(1024 + 512 * round, device::space::device);
    device::stream s;
    device::launch(s, b.size(), [p = b.data()](std::size_t i) {
      p[i] = static_cast<f32>(i);
    });
    s.sync();
    device::sample_trace_counters();
  }
  const auto ev = trace::snapshot();
  std::map<std::string, std::vector<f64>> series;
  for (const auto& e : ev) {
    if (e.k == trace::kind::counter) series[e.name].push_back(e.value);
  }
  for (const char* name :
       {"pool.device.hits", "pool.device.misses",
        "runtime.kernels_launched", "runtime.h2d_bytes"}) {
    ASSERT_TRUE(series.count(name)) << name;
    const auto& v = series[name];
    ASSERT_EQ(v.size(), 8u) << name;
    for (std::size_t i = 1; i < v.size(); ++i) {
      EXPECT_LE(v[i - 1], v[i]) << name << " sample " << i;
    }
  }
  // Kernel launches: one per round, so strictly increasing.
  const auto& k = series["runtime.kernels_launched"];
  EXPECT_GE(k.back() - k.front(), 7.0);
}

TEST(Trace, ChromeJsonReparsesWithExpectedShape) {
  trace_session session;
  // Produce a real mixed-kind trace: one full pipeline round trip.
  std::vector<f32> field(64 * 64);
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = std::sin(static_cast<f32>(i) * 0.01f);
  }
  core::pipeline<f32> pipe(
      core::pipeline_config::preset_default({1e-3, eb_mode::rel}));
  const auto archive = pipe.compress(field, {64, 64, 1});
  (void)pipe.decompress(archive);
  trace::counter("test.counter", 42);

  const std::string json = trace::export_chrome_json();
  const json_value doc = json_parser(json).parse();
  const auto& events = doc.obj().at("traceEvents").arr();
  EXPECT_EQ(events.size(), trace::event_count());
  ASSERT_GT(events.size(), 0u);

  std::set<std::string> phases;
  for (const auto& e : events) {
    const auto& o = e.obj();
    // Mandatory trace-event-format fields on every record.
    ASSERT_TRUE(o.count("ph"));
    ASSERT_TRUE(o.count("name"));
    ASSERT_TRUE(o.count("ts"));
    ASSERT_TRUE(o.count("pid"));
    ASSERT_TRUE(o.count("tid"));
    const std::string ph = o.at("ph").str();
    phases.insert(ph);
    if (ph == "X") {
      EXPECT_TRUE(o.count("dur"));
    } else if (ph == "C") {
      EXPECT_TRUE(o.at("args").obj().count("value"));
    } else {
      EXPECT_EQ(ph, "i");
    }
  }
  // The round trip exercised all three kinds.
  EXPECT_TRUE(phases.count("X"));
  EXPECT_TRUE(phases.count("C"));
  // Stage spans recorded by the pipeline appear by name.
  bool saw_compress = false;
  for (const auto& e : events) {
    if (e.obj().at("name").str() == "compress") saw_compress = true;
  }
  EXPECT_TRUE(saw_compress);
}

TEST(Trace, DotContainsEveryStfNodeExactlyOnce) {
  trace_session session;
  std::vector<f32> field(48 * 48);
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = static_cast<f32>(i % 97) * 0.5f;
  }
  const auto archive =
      core::stf_compress(field, {48, 48, 1}, {1e-3, eb_mode::rel}, 512);
  ASSERT_FALSE(archive.empty());
  const std::string dot = trace::last_dag();
  ASSERT_FALSE(dot.empty());

  // Node declarations are lines of the form: "name#id" [label="..."];
  // Collect them and every edge endpoint.
  std::map<std::string, int> decls;
  std::set<std::string> endpoints;
  std::size_t pos = 0;
  while (pos < dot.size()) {
    const std::size_t eol = dot.find('\n', pos);
    const std::string line =
        dot.substr(pos, eol == std::string::npos ? eol : eol - pos);
    pos = eol == std::string::npos ? dot.size() : eol + 1;
    const std::size_t q1 = line.find('"');
    if (q1 == std::string::npos) continue;
    const std::size_t q2 = line.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    const std::string name = line.substr(q1 + 1, q2 - q1 - 1);
    if (line.find("[label=") != std::string::npos) {
      ++decls[name];
    } else if (line.find("->") != std::string::npos) {
      endpoints.insert(name);
      const std::size_t q3 = line.find('"', q2 + 1);
      const std::size_t q4 = line.find('"', q3 + 1);
      ASSERT_NE(q4, std::string::npos) << line;
      endpoints.insert(line.substr(q3 + 1, q4 - q3 - 1));
    }
  }
  // The compression graph submits exactly these five tasks (ids are
  // per-context, so a fresh context numbers them 0..4).
  const std::set<std::string> expected = {
      "prequant#0", "lorenzo-quantize#1", "histogram#2",
      "compact-outliers#3", "huffman-encode#4"};
  ASSERT_EQ(decls.size(), expected.size());
  for (const auto& name : expected) {
    ASSERT_TRUE(decls.count(name)) << name << " not declared";
    EXPECT_EQ(decls.at(name), 1) << name << " declared more than once";
  }
  // Every edge endpoint refers to a declared node.
  for (const auto& name : endpoints) {
    EXPECT_TRUE(decls.count(name)) << "edge endpoint " << name
                                   << " has no node declaration";
  }
}

TEST(Trace, SummaryAggregatesFabricatedEvents) {
  trace_session session;
  const u64 ms = 1'000'000;
  // Two encode spans of 2 ms and 3 ms, one predict span of 5 ms.
  trace::complete("pipeline", "encode", 10 * ms, 2 * ms);
  trace::complete("pipeline", "encode", 20 * ms, 3 * ms);
  trace::complete("pipeline", "predict", 30 * ms, 5 * ms);
  // Streams 1 and 2 fully overlapped for 10 ms: overlap = 50% of busy.
  trace::complete("stream", "kernel", 40 * ms, 10 * ms, 1);
  trace::complete("stream", "kernel", 40 * ms, 10 * ms, 2);
  // Traced copies.
  trace::complete("stream", "memcpy.h2d", 60 * ms, ms, 1, 1000);
  trace::complete("stream", "memcpy.d2h", 62 * ms, ms, 1, 500);
  // Chunk-window occupancy samples: max 4, mean (2+4+3)/3 = 3.
  trace::counter("chunked.inflight", 2);
  trace::counter("chunked.inflight", 4);
  trace::counter("chunked.inflight", 3);

  const trace::summary s = trace::compute_summary();
  std::map<std::string, trace::stage_stat> stages;
  for (const auto& st : s.stages) stages[st.name] = st;
  ASSERT_TRUE(stages.count("encode"));
  ASSERT_TRUE(stages.count("predict"));
  EXPECT_EQ(stages["encode"].count, 2u);
  EXPECT_NEAR(stages["encode"].total_s, 5e-3, 1e-9);
  EXPECT_EQ(stages["predict"].count, 1u);
  EXPECT_NEAR(stages["predict"].total_s, 5e-3, 1e-9);
  // busy = 22 ms across streams, union = 12 ms -> overlap 10/22.
  EXPECT_NEAR(s.stream_busy_s, 22e-3, 1e-9);
  EXPECT_NEAR(s.stream_overlap_pct, 100.0 * 10 / 22, 1e-6);
  EXPECT_EQ(s.h2d_bytes, 1000u);
  EXPECT_EQ(s.d2h_bytes, 500u);
  EXPECT_NEAR(s.max_inflight, 4.0, 1e-12);
  EXPECT_NEAR(s.mean_inflight, 3.0, 1e-12);
}

TEST(Trace, MinfltDeltasLandInTheirStage) {
  trace_session session;
  // A stage that first-touches a fresh 8 MiB mapping must be charged
  // its faults: samples bracket the stage, as pipeline stages do.
  const std::size_t n = std::size_t{8} << 20;
  void* fresh = ::mmap(nullptr, n, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(fresh, MAP_FAILED);
  trace::sample_minflt();
  const u64 begin = trace::now_ns();
  for (std::size_t i = 0; i < n; i += 4096) {
    static_cast<volatile char*>(fresh)[i] = 1;
  }
  trace::sample_minflt();
  trace::complete("pipeline", "touch", begin, trace::now_ns() - begin);
  ::munmap(fresh, n);

  // A real compress samples at entry and at every stage boundary; its
  // sequential stages can account for no more than the whole call.
  std::vector<f32> field(128 * 128);
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = std::sin(static_cast<f32>(i) * 0.01f);
  }
  core::pipeline<f32> pipe(
      core::pipeline_config::preset_default({1e-3, eb_mode::rel}));
  (void)pipe.compress(field, {128, 128, 1});

  const trace::summary s = trace::compute_summary();
  std::map<std::string, trace::stage_stat> stages;
  for (const auto& st : s.stages) stages[st.name] = st;
  ASSERT_TRUE(stages.count("touch"));
  ASSERT_TRUE(stages.count("compress"));
  EXPECT_GT(stages["touch"].minflt, 0u);
  u64 staged = 0;
  for (const char* name :
       {"preprocess", "predict", "encode", "verify", "secondary"}) {
    ASSERT_TRUE(stages.count(name)) << name;
    staged += stages[name].minflt;
  }
  EXPECT_LE(staged, stages["compress"].minflt);
  EXPECT_GE(s.minflt, static_cast<f64>(stages["touch"].minflt +
                                       stages["compress"].minflt));
  EXPECT_NE(trace::summary_report().find("minflt"), std::string::npos);
}

TEST(Trace, ClearDropsEverything) {
  trace_session session;
  trace::instant("t", "a");
  trace::counter("t.c", 1);
  ASSERT_GT(trace::event_count(), 0u);
  trace::clear();
  EXPECT_EQ(trace::event_count(), 0u);
  EXPECT_TRUE(trace::last_dag().empty());
}

TEST(Trace, RingOverflowCountsDrops) {
  trace_session session;
  // Default per-thread capacity is 65536 (FZMOD_TRACE_BUF); overshoot it.
  constexpr u64 n = 70'000;
  for (u64 i = 0; i < n; ++i) trace::instant("t", "spam");
  EXPECT_LE(trace::event_count(), 65'536u);
  EXPECT_EQ(trace::dropped_count() + trace::event_count(), n);
}

TEST(RuntimeStats, SnapshotInvariantsUnderContention) {
  // The torn-read bugfix: multi-field pool counter updates are paired
  // under the pool mutex and runtime::stats_snapshot() reads them
  // consistently, so cross-field invariants hold in every observed
  // snapshot even while allocator traffic hammers the pool.
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(3);
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&stop, w] {
      std::size_t sz = 256 + 128 * static_cast<std::size_t>(w);
      while (!stop.load(std::memory_order_relaxed)) {
        device::buffer<u8> a(sz, device::space::device);
        device::buffer<u8> b(2 * sz, device::space::device);
        sz = sz % 4096 + 192;
      }
    });
  }

  auto& rt = device::runtime::instance();
  device::runtime_stats_snapshot prev = rt.stats_snapshot();
  for (int i = 0; i < 2000; ++i) {
    const device::runtime_stats_snapshot s = rt.stats_snapshot();
    // Monotonic cumulative counters.
    EXPECT_GE(s.device_pool.hits, prev.device_pool.hits);
    EXPECT_GE(s.device_pool.misses, prev.device_pool.misses);
    EXPECT_GE(s.device_pool.bytes_served, prev.device_pool.bytes_served);
    // Pairing: every allocation added >= min_bin_bytes to bytes_served
    // exactly when it bumped hits+misses — a torn read breaks this.
    EXPECT_GE(s.device_pool.bytes_served,
              device::memory_pool::min_bin_bytes *
                  (s.device_pool.hits + s.device_pool.misses));
    // Peak is clamped to at least the in-use level in the same snapshot.
    EXPECT_GE(s.device_bytes_peak, s.device_bytes_in_use);
    prev = s;
  }
  stop = true;
  for (auto& t : workers) t.join();
}

TEST(Trace, RingCapEnvParsesStrictly) {
  // Regression: FZMOD_TRACE_BUF used to clamp garbage to the default and
  // silently raise sub-minimum values to 16. Strict now: malformed or
  // too-small values throw naming the variable. (The live collector
  // resolves once at first use; this pins the parse contract itself.)
  unsetenv("FZMOD_TRACE_BUF");
  EXPECT_EQ(trace::resolve_ring_cap(), 65536u);
  setenv("FZMOD_TRACE_BUF", "1024", 1);
  EXPECT_EQ(trace::resolve_ring_cap(), 1024u);
  setenv("FZMOD_TRACE_BUF", "16", 1);
  EXPECT_EQ(trace::resolve_ring_cap(), 16u);
  setenv("FZMOD_TRACE_BUF", "15", 1);
  EXPECT_THROW((void)trace::resolve_ring_cap(), error);
  setenv("FZMOD_TRACE_BUF", "64k", 1);
  try {
    (void)trace::resolve_ring_cap();
    FAIL() << "expected invalid_argument";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::invalid_argument);
    EXPECT_NE(std::string(e.what()).find("FZMOD_TRACE_BUF"),
              std::string::npos);
  }
  unsetenv("FZMOD_TRACE_BUF");
}

}  // namespace
}  // namespace fzmod
