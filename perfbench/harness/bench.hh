// perfbench — shared pieces of the benchmark harness: arguments, clocks,
// the benchmark's own seeded RNG, percentiles with their sample accounting,
// a small JSON writer, the in-memory span recorder used by traced runs, and
// the correctness helpers every workload verifies its outputs with.
//
// The harness owns its RNG (not fzmod::rng) so that a change to the
// program's generators can never reshuffle the op plan; the inputs
// themselves come from fzmod::data, the only source of HURR/Nyx/HACC
// fields.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fzmod/common/types.hh"

namespace pb {

using fzmod::dims3;
using fzmod::f32;
using fzmod::f64;
using fzmod::u16;
using fzmod::u64;
using fzmod::u8;

using clk = std::chrono::steady_clock;

[[nodiscard]] inline f64 seconds_since(clk::time_point t0) {
  return std::chrono::duration<f64>(clk::now() - t0).count();
}

[[nodiscard]] inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              clk::now().time_since_epoch())
                              .count());
}

struct args {
  std::string mode;      // "prepare" | "run"
  std::string workload;  // cli-oneshot | serve-mixed | stream-archive
  std::string dir;       // per-run scratch directory inside the checkout
  std::string fzmod;     // the CLI binary (cli-oneshot only)
  u64 seed = 1;
  f64 seconds = 10;
  bool trace = false;
};

// ---- seeded randomness (benchmark-owned) --------------------------------

class rng {
 public:
  explicit rng(u64 seed, u64 salt) : s_(seed * 0x9e3779b97f4a7c15ULL ^ salt) {
    for (int i = 0; i < 4; ++i) (void)next();
  }
  [[nodiscard]] u64 next() {  // splitmix64
    u64 z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  [[nodiscard]] u64 below(u64 n) { return n ? next() % n : 0; }
  [[nodiscard]] f64 unit() {  // [0, 1)
    return static_cast<f64>(next() >> 11) * 0x1.0p-53;
  }
  template <class V>
  void shuffle(V& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  u64 s_;
};

/// Zipf(s) over ranks [0, n): inverse-CDF sampling on a precomputed table.
class zipf {
 public:
  zipf(std::size_t n, f64 s) : cdf_(n) {
    f64 acc = 0;
    for (std::size_t k = 0; k < n; ++k) {
      acc += 1.0 / std::pow(static_cast<f64>(k + 1), s);
      cdf_[k] = acc;
    }
    for (auto& c : cdf_) c /= acc;
  }
  [[nodiscard]] std::size_t draw(rng& r) const {
    const f64 u = r.unit();
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<f64> cdf_;
};

/// Order-sensitive 64-bit digest (FNV-1a over 8-byte words) — used for
/// plan digests and to compare timed decodes against the verified
/// reference without holding both in memory.
[[nodiscard]] inline u64 digest(const void* p, std::size_t n, u64 h = 0) {
  h ^= 0xcbf29ce484222325ULL;
  const auto* b = static_cast<const u8*>(p);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    u64 w;
    std::memcpy(&w, b + i, 8);
    h = (h ^ w) * 0x100000001b3ULL;
  }
  for (; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ULL;
  return h;
}

[[nodiscard]] inline std::string hex(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---- percentiles ---------------------------------------------------------

/// Nearest-rank percentile with the number of samples strictly beyond it.
/// The benchmark only reports a percentile with >= 10 samples beyond it.
struct percentile {
  f64 value = 0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

[[nodiscard]] inline percentile pct(std::vector<f64> v, f64 q) {
  percentile p;
  p.n = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  std::size_t k = static_cast<std::size_t>(std::ceil(q * static_cast<f64>(v.size())));
  k = std::clamp<std::size_t>(k, 1, v.size());
  p.value = v[k - 1];
  p.beyond = v.size() - k;
  return p;
}

[[nodiscard]] inline f64 median(std::vector<f64> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---- JSON ----------------------------------------------------------------

[[nodiscard]] inline std::string jstr(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

[[nodiscard]] inline std::string jnum(f64 v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);  // every digit measured
  return buf;
}

/// An insertion-ordered JSON object.
class jobj {
 public:
  jobj& num(const std::string& k, f64 v) { return raw(k, jnum(v)); }
  jobj& str(const std::string& k, const std::string& v) { return raw(k, jstr(v)); }
  jobj& obj(const std::string& k, const jobj& v) { return raw(k, v.text()); }
  jobj& raw(const std::string& k, const std::string& v) {
    kv_.emplace_back(k, v);
    return *this;
  }
  [[nodiscard]] std::string text() const {
    std::string o = "{";
    for (std::size_t i = 0; i < kv_.size(); ++i) {
      if (i) o += ", ";
      o += jstr(kv_[i].first) + ": " + kv_[i].second;
    }
    return o + "}";
  }
  [[nodiscard]] bool empty() const { return kv_.empty(); }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

// ---- what a workload run reports ------------------------------------------

struct report {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> failures;  // "op #k (kind): reason"
  jobj metrics;                       // name -> {"value", "unit"}
  jobj samples;                       // percentile name -> {"n", "beyond"}
  jobj constants;                     // the workload's fixed knobs
  jobj layers;                        // traced-run attribution report
  jobj fixed;                         // fixed-op-set facts (plan digest, bytes)
  /// Reasons the run is invalid as a measurement (not an op failure): a
  /// percentile with fewer than 10 samples beyond it is one sample
  /// restated. perfbench/run.py fails the run when any is present.
  std::vector<std::string> violations;

  void metric(const std::string& name, f64 v, const std::string& unit) {
    metrics.obj(name, jobj().num("value", v).str("unit", unit));
  }
  void metric(const std::string& name, const percentile& p,
              const std::string& unit) {
    metric(name, tail(p, name), unit);
    samples.obj(name, jobj().num("n", static_cast<f64>(p.n))
                          .num("beyond", static_cast<f64>(p.beyond)));
  }
  /// A percentile's value, recording a violation when fewer than 10
  /// samples lie beyond it.
  [[nodiscard]] f64 tail(const percentile& p, const std::string& name) {
    if (p.beyond < 10) {
      violations.push_back(name + ": only " + std::to_string(p.beyond) +
                           " of " + std::to_string(p.n) +
                           " samples beyond the percentile (need 10)");
    }
    return p.value;
  }
  void fail(u64 op, const std::string& kind, const std::string& why) {
    ++failed;
    if (failures.size() < 50) {
      failures.push_back("op #" + std::to_string(op) + " (" + kind + "): " + why);
    }
  }
  [[nodiscard]] std::string text(const std::string& workload) const;
};

inline std::string report::text(const std::string& workload) const {
  std::string f = "[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    f += (i ? ", " : "") + jstr(failures[i]);
  }
  f += "]";
  std::string viol = "[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    viol += (i ? ", " : "") + jstr(violations[i]);
  }
  viol += "]";
  jobj o;
  o.str("workload", workload)
      .num("attempted", static_cast<f64>(attempted))
      .num("failed", static_cast<f64>(failed))
      .raw("failures", f)
      .raw("violations", viol)
      .obj("metrics", metrics)
      .obj("samples", samples)
      .obj("constants", constants)
      .obj("fixed", fixed);
  if (!layers.empty()) o.obj("layers", layers);
  return o.text();
}

// ---- verification ----------------------------------------------------------

/// Pointwise check of a decode against its input under an absolute bound
/// (plus the f32 rounding slack the library documents), accumulating the
/// squared error for PSNR. Returns an empty string when the bound holds.
struct quality {
  f64 sq_err = 0;
  u64 n = 0;
  f64 lo = 0, hi = 0;
  bool any = false;
  void range_of(std::span<const f32> x) {
    for (f32 v : x) {
      if (!any) {
        lo = hi = v;
        any = true;
      }
      lo = std::min<f64>(lo, v);
      hi = std::max<f64>(hi, v);
    }
  }
  [[nodiscard]] f64 psnr() const {
    const f64 mse = n ? sq_err / static_cast<f64>(n) : 0;
    const f64 r = hi - lo;
    return mse > 0 ? 20.0 * std::log10(r) - 10.0 * std::log10(mse) : 999.0;
  }
};

[[nodiscard]] std::string check_bound(std::span<const f32> in,
                                      std::span<const f32> out, f64 eb_rel,
                                      quality* q);

[[nodiscard]] f64 peak_rss_mb();  // this process, ru_maxrss

}  // namespace pb
