// FZModules — trace recorder implementation. See trace.hh for the model.

#include "fzmod/trace/trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include <sys/resource.h>

#include "fzmod/common/env.hh"

namespace fzmod::trace {
namespace {

void copy_trunc(char* dst, std::size_t cap, std::string_view src) {
  const std::size_t n = std::min(src.size(), cap - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

/// One thread's event ring. The producing thread and the collector both
/// take `mu`; producers only contend with a snapshot/clear in flight.
struct thread_ring {
  std::mutex mu;
  u32 tid = 0;
  std::size_t cap = 0;
  std::size_t head = 0;  // next write position
  u64 pushed = 0;        // lifetime pushes (dropped = pushed - held)
  std::vector<event> ring;

  void push(const event& e) {
    std::lock_guard lk(mu);
    if (ring.size() < cap) {
      ring.push_back(e);
    } else {
      ring[head] = e;
      head = (head + 1) % cap;
    }
    ++pushed;
  }
};

/// Process-wide collector: owns the registry of thread rings (shared_ptr
/// so rings survive their threads — chunk-scheduler workers are
/// transient) and the DAG slot.
struct collector {
  std::atomic<bool> enabled;
  std::chrono::steady_clock::time_point epoch;
  std::size_t ring_cap;

  std::mutex reg_mu;
  std::vector<std::shared_ptr<thread_ring>> rings;
  u32 next_tid = 1;

  std::mutex dag_mu;
  std::string dag;

  collector() : epoch(std::chrono::steady_clock::now()) {
    const char* v = std::getenv("FZMOD_TRACE");
    enabled.store(v && *v && !(v[0] == '0' && v[1] == '\0'),
                  std::memory_order_relaxed);
    ring_cap = resolve_ring_cap();
  }

  static collector& instance() {
    static collector c;
    return c;
  }

  std::shared_ptr<thread_ring> make_ring() {
    auto r = std::make_shared<thread_ring>();
    r->cap = ring_cap;
    std::lock_guard lk(reg_mu);
    r->tid = next_tid++;
    rings.push_back(r);
    return r;
  }
};

thread_ring& local_ring() {
  thread_local std::shared_ptr<thread_ring> ring =
      collector::instance().make_ring();
  return *ring;
}

void push_event(kind k, std::string_view cat, std::string_view name,
                u64 ts_ns, u64 dur_ns, u32 stream_id, f64 value) {
  thread_ring& r = local_ring();
  event e;
  e.k = k;
  e.tid = r.tid;
  e.stream_id = stream_id;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.value = value;
  copy_trunc(e.name, event::name_cap, name);
  copy_trunc(e.cat, event::cat_cap, cat);
  r.push(e);
}

void json_escape_into(std::string& out, const char* s) {
  for (; *s; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

/// Merge [begin, end) intervals and return the union length in ns.
u64 union_ns(std::vector<std::pair<u64, u64>>& iv) {
  if (iv.empty()) return 0;
  std::sort(iv.begin(), iv.end());
  u64 total = 0, lo = iv[0].first, hi = iv[0].second;
  for (std::size_t i = 1; i < iv.size(); ++i) {
    if (iv[i].first > hi) {
      total += hi - lo;
      lo = iv[i].first;
      hi = iv[i].second;
    } else {
      hi = std::max(hi, iv[i].second);
    }
  }
  return total + (hi - lo);
}

}  // namespace

std::size_t resolve_ring_cap() {
  const std::size_t cap =
      static_cast<std::size_t>(common::env_u64("FZMOD_TRACE_BUF", 65536));
  FZMOD_REQUIRE(cap >= 16, status::invalid_argument,
                "FZMOD_TRACE_BUF: ring capacity must be >= 16, got " +
                    std::to_string(cap));
  return cap;
}

bool enabled() {
  return collector::instance().enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) {
  collector::instance().enabled.store(on, std::memory_order_relaxed);
}

u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - collector::instance().epoch)
          .count());
}

void instant(std::string_view cat, std::string_view name, u32 stream_id,
             f64 value) {
  if (!enabled()) return;
  push_event(kind::instant, cat, name, now_ns(), 0, stream_id, value);
}

void counter(std::string_view name, f64 value) {
  if (!enabled()) return;
  push_event(kind::counter, "counter", name, now_ns(), 0, 0, value);
}

void sample_minflt() {
  if (!enabled()) return;
  rusage ru{};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return;
  counter("process.minflt", static_cast<f64>(ru.ru_minflt));
}

void complete(std::string_view cat, std::string_view name, u64 begin_ns,
              u64 dur_ns, u32 stream_id, f64 value) {
  if (!enabled()) return;
  push_event(kind::span, cat, name, begin_ns, dur_ns, stream_id, value);
}

span_scope::span_scope(std::string_view cat, std::string_view name,
                       u32 stream_id, f64 value) {
  if (!enabled()) return;  // zero-event fast path: stays inactive
  active_ = true;
  stream_id_ = stream_id;
  value_ = value;
  begin_ns_ = now_ns();
  copy_trunc(name_, event::name_cap, name);
  copy_trunc(cat_, event::cat_cap, cat);
}

span_scope::~span_scope() {
  if (!active_) return;
  // Record even if tracing was switched off mid-span: the begin time is
  // committed, and a half-observed schedule is worse than one extra event.
  push_event(kind::span, cat_, name_, begin_ns_, now_ns() - begin_ns_,
             stream_id_, value_);
}

void clear() {
  collector& c = collector::instance();
  std::lock_guard reg(c.reg_mu);
  for (auto& r : c.rings) {
    std::lock_guard lk(r->mu);
    r->ring.clear();
    r->head = 0;
    r->pushed = 0;
  }
  std::lock_guard dag(c.dag_mu);
  c.dag.clear();
}

u64 event_count() {
  collector& c = collector::instance();
  std::lock_guard reg(c.reg_mu);
  u64 n = 0;
  for (auto& r : c.rings) {
    std::lock_guard lk(r->mu);
    n += r->ring.size();
  }
  return n;
}

u64 dropped_count() {
  collector& c = collector::instance();
  std::lock_guard reg(c.reg_mu);
  u64 n = 0;
  for (auto& r : c.rings) {
    std::lock_guard lk(r->mu);
    n += r->pushed - r->ring.size();
  }
  return n;
}

std::vector<event> snapshot() {
  collector& c = collector::instance();
  std::vector<event> out;
  {
    std::lock_guard reg(c.reg_mu);
    for (auto& r : c.rings) {
      std::lock_guard lk(r->mu);
      out.insert(out.end(), r->ring.begin(), r->ring.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const event& a, const event& b) { return a.ts_ns < b.ts_ns; });
  return out;
}

std::string export_chrome_json() {
  const std::vector<event> evs = snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  bool first = true;
  for (const event& e : evs) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    json_escape_into(out, e.name);
    out += "\",\"cat\":\"";
    json_escape_into(out, e.cat);
    out += "\"";
    // Timestamps are microseconds (fractional allowed) in the format.
    const f64 ts_us = static_cast<f64>(e.ts_ns) / 1e3;
    switch (e.k) {
      case kind::span: {
        const f64 dur_us = static_cast<f64>(e.dur_ns) / 1e3;
        std::snprintf(buf, sizeof(buf),
                      ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                      "\"tid\":%u",
                      ts_us, dur_us, e.tid);
        out += buf;
        break;
      }
      case kind::instant:
        std::snprintf(buf, sizeof(buf),
                      ",\"ph\":\"i\",\"ts\":%.3f,\"s\":\"t\",\"pid\":1,"
                      "\"tid\":%u",
                      ts_us, e.tid);
        out += buf;
        break;
      case kind::counter:
        // Counters are per-name tracks; pin tid 0 so samples from
        // different threads merge into one series.
        std::snprintf(buf, sizeof(buf),
                      ",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"tid\":0",
                      ts_us);
        out += buf;
        break;
    }
    if (e.k == kind::counter) {
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%.6g}", e.value);
      out += buf;
    } else if (e.stream_id != 0 || e.value != 0) {
      std::snprintf(buf, sizeof(buf),
                    ",\"args\":{\"stream\":%u,\"bytes\":%.6g}", e.stream_id,
                    e.value);
      out += buf;
    }
    out += '}';
  }
  out += "]}";
  return out;
}

summary compute_summary() {
  const std::vector<event> evs = snapshot();
  summary s;
  s.events = evs.size();
  s.dropped = dropped_count();
  if (evs.empty()) return s;
  u64 t_min = ~u64{0}, t_max = 0;

  std::map<std::string, stage_stat> stages;
  // Per-stream interval sets for the overlap computation: same-stream
  // nesting must not count as overlap, so each stream unions first.
  std::map<u32, std::vector<std::pair<u64, u64>>> per_stream;
  f64 last_pool_hits = -1, last_pool_misses = -1;
  f64 inflight_sum = 0;
  u64 inflight_n = 0;
  // process.minflt samples (ts, value), in timestamp order.
  std::vector<std::pair<u64, f64>> minflt;

  for (const event& e : evs) {
    t_min = std::min(t_min, e.ts_ns);
    t_max = std::max(t_max, e.ts_ns + e.dur_ns);
    if (e.k == kind::span && std::strcmp(e.cat, "pipeline") == 0) {
      stage_stat& st = stages[e.name];
      st.name = e.name;
      st.count += 1;
      st.total_s += static_cast<f64>(e.dur_ns) / 1e9;
    }
    if (e.k == kind::span && std::strcmp(e.cat, "stream") == 0 &&
        e.stream_id != 0) {
      per_stream[e.stream_id].emplace_back(e.ts_ns, e.ts_ns + e.dur_ns);
      if (std::strncmp(e.name, "memcpy.h2d", 10) == 0) {
        s.h2d_bytes += static_cast<u64>(e.value);
      } else if (std::strncmp(e.name, "memcpy.d2h", 10) == 0) {
        s.d2h_bytes += static_cast<u64>(e.value);
      } else if (std::strncmp(e.name, "memcpy.d2d", 10) == 0) {
        s.d2d_bytes += static_cast<u64>(e.value);
      }
    }
    if (e.k == kind::instant && std::strcmp(e.cat, "pool") == 0 &&
        std::strcmp(e.name, "miss") == 0) {
      s.pool_misses += 1;
    }
    if (e.k == kind::counter) {
      if (std::strcmp(e.name, "pool.device.hits") == 0) {
        last_pool_hits = e.value;
      } else if (std::strcmp(e.name, "pool.device.misses") == 0) {
        last_pool_misses = e.value;
      } else if (std::strcmp(e.name, "process.minflt") == 0) {
        minflt.emplace_back(e.ts_ns, e.value);
      } else if (std::strcmp(e.name, "chunked.inflight") == 0) {
        s.max_inflight = std::max(s.max_inflight, e.value);
        inflight_sum += e.value;
        inflight_n += 1;
      }
    }
  }
  s.wall_s = static_cast<f64>(t_max - t_min) / 1e9;
  if (!minflt.empty()) {
    s.minflt = minflt.back().second - minflt.front().second;
    // The count at time t is the latest sample at or before t (the first
    // sample before any); a stage's faults are its end minus its begin.
    auto at = [&](u64 t) {
      auto it = std::upper_bound(
          minflt.begin(), minflt.end(), t,
          [](u64 v, const std::pair<u64, f64>& p) { return v < p.first; });
      return it == minflt.begin() ? minflt.front().second
                                  : std::prev(it)->second;
    };
    for (const event& e : evs) {
      if (e.k == kind::span && std::strcmp(e.cat, "pipeline") == 0) {
        stages[e.name].minflt +=
            static_cast<u64>(at(e.ts_ns + e.dur_ns) - at(e.ts_ns));
      }
    }
  }
  for (auto& [k, v] : stages) s.stages.push_back(std::move(v));

  // Overlap: busy = sum over streams of that stream's unioned intervals;
  // union = one union across all streams. busy - union is time at least
  // two streams were simultaneously executing.
  u64 busy = 0;
  std::vector<std::pair<u64, u64>> all;
  for (auto& [sid, iv] : per_stream) {
    busy += union_ns(iv);
    all.insert(all.end(), iv.begin(), iv.end());
  }
  const u64 un = union_ns(all);
  s.stream_busy_s = static_cast<f64>(busy) / 1e9;
  if (busy > 0) {
    s.stream_overlap_pct =
        100.0 * static_cast<f64>(busy - un) / static_cast<f64>(busy);
  }
  if (last_pool_hits >= 0 && last_pool_misses >= 0 &&
      last_pool_hits + last_pool_misses > 0) {
    s.pool_hit_rate = last_pool_hits / (last_pool_hits + last_pool_misses);
  }
  if (inflight_n > 0) {
    s.mean_inflight = inflight_sum / static_cast<f64>(inflight_n);
  }
  return s;
}

std::string summary_report() {
  const summary s = compute_summary();
  std::string out;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "trace: %llu events (%llu dropped), %.3f ms observed\n",
                static_cast<unsigned long long>(s.events),
                static_cast<unsigned long long>(s.dropped), s.wall_s * 1e3);
  out += buf;
  if (!s.stages.empty()) {
    out += "per-stage wall time (cat=pipeline):\n";
    for (const stage_stat& st : s.stages) {
      std::snprintf(buf, sizeof(buf), "  %-28s %6llu calls  %10.3f ms",
                    st.name.c_str(),
                    static_cast<unsigned long long>(st.count),
                    st.total_s * 1e3);
      out += buf;
      if (s.minflt >= 0) {
        std::snprintf(buf, sizeof(buf), "  %8llu minflt",
                      static_cast<unsigned long long>(st.minflt));
        out += buf;
      }
      out += '\n';
    }
  }
  if (s.minflt >= 0) {
    std::snprintf(buf, sizeof(buf),
                  "process minor faults: %.0f between the first and last "
                  "process.minflt sample\n",
                  s.minflt);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "stream busy %.3f ms, overlap %.1f%% (time >=2 streams "
                "concurrent)\n",
                s.stream_busy_s * 1e3, s.stream_overlap_pct);
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "traced memcpy: h2d %llu B, d2h %llu B, d2d %llu B\n",
      static_cast<unsigned long long>(s.h2d_bytes),
      static_cast<unsigned long long>(s.d2h_bytes),
      static_cast<unsigned long long>(s.d2d_bytes));
  out += buf;
  if (s.pool_hit_rate >= 0) {
    std::snprintf(buf, sizeof(buf),
                  "device pool hit rate %.1f%% (%llu traced misses)\n",
                  100.0 * s.pool_hit_rate,
                  static_cast<unsigned long long>(s.pool_misses));
    out += buf;
  }
  if (s.max_inflight > 0) {
    std::snprintf(buf, sizeof(buf),
                  "chunk window occupancy: max %.0f, mean %.2f\n",
                  s.max_inflight, s.mean_inflight);
    out += buf;
  }
  return out;
}

void set_last_dag(std::string dot) {
  collector& c = collector::instance();
  std::lock_guard lk(c.dag_mu);
  c.dag = std::move(dot);
}

std::string last_dag() {
  collector& c = collector::instance();
  std::lock_guard lk(c.dag_mu);
  return c.dag;
}

}  // namespace fzmod::trace
