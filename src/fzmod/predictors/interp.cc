#include "fzmod/predictors/interp.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <mutex>
#include <vector>

namespace fzmod::predictors {
namespace {

/// Count of lattice points {0, m, 2m, ...} inside [0, ext).
[[nodiscard]] std::size_t lattice_count(std::size_t ext, std::size_t m) {
  return (ext - 1) / m + 1;
}

/// Count of odd multiples of h ({h, 3h, 5h, ...}) inside [0, ext).
[[nodiscard]] std::size_t odd_count(std::size_t ext, std::size_t h) {
  return ext > h ? (ext - h - 1) / (2 * h) + 1 : 0;
}

/// Cubic stencil around `p` along one axis: neighbours at ∓3h, ∓h, ±h, ±3h
/// sit `s3` and `s1` elements away.
[[nodiscard]] inline f64 cubic(const f64* p, std::size_t s1, std::size_t s3) {
  return (-*(p - s3) + 9.0 * *(p - s1) + 9.0 * p[s1] - p[s3]) * (1.0 / 16.0);
}

/// Boundary prediction at axis coordinate `c` (extent `ext`, half-spacing
/// `h`): nearest when c+h is outside, cubic when c±3h are inside, linear
/// otherwise. Neighbours at c±h and c±3h are even multiples of h, hence
/// already reconstructed; c-h >= 0 always holds because targets start at h.
[[nodiscard]] inline f64 predict_at(const f64* p, std::size_t c,
                                    std::size_t h, std::size_t ext,
                                    std::size_t s1, std::size_t s3) {
  if (c + h >= ext) return *(p - s1);
  if (c >= 3 * h && c + 3 * h < ext) return cubic(p, s1, s3);
  return 0.5 * (*(p - s1) + p[s1]);
}

/// Points per row segment: long rows (rank-1 fields, wide x) are split so
/// a sub-step always offers the pool parallel work.
constexpr std::size_t segment_points = 1u << 12;

/// Walk every (level, dimension) sub-step coarse-to-fine, invoking
/// `visit(linear_index, prediction)` for each target point exactly once.
/// Both compression and decompression run this identical traversal, so a
/// prediction mismatch between the two sides is structurally impossible.
///
/// Each sub-step sweeps rows along x (the contiguous axis) over the lattice
/// of the two outer axes; rows are cut into segments that pool workers
/// take in parallel. The stencil is fixed per sub-step, so inside a row
/// only the refined axis' boundary points (x refinement: the first point
/// and the last one or two) take the branchy fallback; the interior loop
/// is the cubic stencil at constant strides.
///
/// `visit` is called concurrently from pool workers; it must write
/// rec[idx] before returning and synchronize any side channels itself.
template <class Visit>
void traverse(dims3 d, const f64* rec, Visit&& visit) {
  auto& rt = device::runtime::instance();
  const std::size_t ext[3] = {d.x, d.y, d.z};
  const std::size_t stride[3] = {1, d.x, d.x * d.y};
  const int rank = d.rank();

  int top_level = 0;
  while ((std::size_t{1} << (top_level + 1)) <= interp_anchor_stride) {
    ++top_level;
  }

  for (int l = top_level; l >= 1; --l) {
    const std::size_t s = std::size_t{1} << l;
    const std::size_t h = s >> 1;
    // Sub-step order: slowest dimension first (z, y, x), matching cuSZ-i.
    for (int di = rank - 1; di >= 0; --di) {
      // Lattice per axis for this sub-step: the refined axis takes odd
      // multiples of h; axes already processed this level sit on the h
      // lattice; axes still pending sit on the s lattice.
      std::size_t count[3], spacing[3], first[3] = {0, 0, 0};
      for (int dj = 0; dj < 3; ++dj) {
        if (dj == di) {
          spacing[dj] = 2 * h;
          first[dj] = h;
          count[dj] = odd_count(ext[dj], h);
        } else if (dj > di) {
          spacing[dj] = h;
          count[dj] = lattice_count(ext[dj], h);
        } else {
          spacing[dj] = s;
          count[dj] = lattice_count(ext[dj], s);
        }
      }
      const std::size_t nx = count[0];
      const std::size_t rows = count[1] * count[2];
      if (nx == 0 || rows == 0) continue;
      rt.stats().kernels_launched += 1;

      const std::size_t e = ext[di];
      const std::size_t s1 = h * stride[di], s3 = 3 * s1;
      const std::size_t xstep = spacing[0];
      const std::size_t seg_len = std::min(nx, segment_points);
      const std::size_t nseg = (nx + seg_len - 1) / seg_len;
      // Row points k in [k_lo, k_hi) take the cubic stencil with no bounds
      // test. Refining x: every point but the first (x = h) and the tail
      // where x + 3h >= ext. Refining y or z: a whole row or none.
      const std::size_t k_cubic_end =
          e > 4 * h ? std::min(nx, (e - 4 * h - 1) / (2 * h) + 1) : 0;

      rt.pool().parallel_for(
          rows * nseg, std::max<std::size_t>(1, segment_points / seg_len),
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t item = lo; item < hi; ++item) {
              const std::size_t r = item / nseg;
              const std::size_t a = (item % nseg) * seg_len;
              const std::size_t b = std::min(nx, a + seg_len);
              const std::size_t c1 = (r % count[1]) * spacing[1] + first[1];
              const std::size_t c2 = (r / count[1]) * spacing[2] + first[2];
              const std::size_t row =
                  first[0] + c1 * stride[1] + c2 * stride[2];
              // Axis coordinate of point k: c0 + k * cstep.
              std::size_t c0, cstep, k_lo, k_hi;
              if (di == 0) {
                c0 = h;
                cstep = 2 * h;
                k_lo = 1;
                k_hi = std::max<std::size_t>(1, k_cubic_end);
              } else {
                c0 = di == 1 ? c1 : c2;
                cstep = 0;
                const bool cub = c0 >= 3 * h && c0 + 3 * h < e;
                k_lo = cub ? 0 : nx;
                k_hi = nx;
              }
              const auto boundary = [&](std::size_t k0, std::size_t k1) {
                for (std::size_t k = k0; k < k1; ++k) {
                  const std::size_t i = row + k * xstep;
                  visit(i, predict_at(rec + i, c0 + k * cstep, h, e, s1, s3));
                }
              };
              const std::size_t m_lo = std::clamp(k_lo, a, b);
              const std::size_t m_hi = std::clamp(k_hi, m_lo, b);
              boundary(a, m_lo);
              std::size_t i = row + m_lo * xstep;
              for (std::size_t k = m_lo; k < m_hi; ++k, i += xstep) {
                visit(i, cubic(rec + i, s1, s3));
              }
              boundary(m_hi, b);
            }
          });
    }
  }
}

/// Enumerate anchor-lattice points (all coords multiples of the stride) in
/// row-major anchor order; returns linear field indices.
void for_each_anchor(dims3 d, std::size_t stride,
                     const std::function<void(std::size_t)>& fn) {
  for (std::size_t z = 0; z < d.z; z += stride) {
    for (std::size_t y = 0; y < d.y; y += stride) {
      for (std::size_t x = 0; x < d.x; x += stride) {
        fn(d.at(x, y, z));
      }
    }
  }
}

/// Decode-side value of one sentinel (code 0) point; the table is sorted
/// by index. Raw value outliers win over lattice fallbacks; among
/// duplicates (hostile archives only) the first raw and the last fallback
/// win, as they did with the dense fallback array this table replaced.
struct side_entry {
  u64 index;
  f64 value;
  bool raw;
};

/// The winning entry for `idx` (the last of its run), or null.
[[nodiscard]] const side_entry* find_side(const std::vector<side_entry>& t,
                                          u64 idx) {
  const auto it = std::upper_bound(
      t.begin(), t.end(), idx,
      [](u64 v, const side_entry& e) { return v < e.index; });
  if (it == t.begin() || std::prev(it)->index != idx) return nullptr;
  return &*std::prev(it);
}

}  // namespace

template <class T>
void interp_compress_async(const device::buffer<T>& data, dims3 dims,
                           f64 ebx2, int radius, quant_field& out,
                           interp_anchors& anchors, device::stream& s) {
  data.assert_space(device::space::device);
  FZMOD_REQUIRE(data.size() == dims.len(), status::invalid_argument,
                "interp: data size does not match dims");
  FZMOD_REQUIRE(ebx2 > 0, status::invalid_argument,
                "interp: error bound must be positive");

  const std::size_t n = dims.len();
  out.dims = dims;
  out.radius = radius;
  out.ebx2 = ebx2;
  out.codes.ensure(n, device::space::device);
  out.recon_scratch.ensure(n, device::space::device);
  out.value_outliers.clear();
  anchors.stride = interp_anchor_stride;
  anchors.lattice.clear();

  const T* in = data.data();
  u16* codes = out.codes.data();
  f64* rec = out.recon_scratch.data();

  // Every point is an anchor or a traversal target, so neither `codes`
  // nor `rec` needs clearing: each is written exactly once.
  device::host_task(s, [in, codes, rec, dims, ebx2, radius, &out,
                        &anchors] {
    const f64 r_ebx2 = 1.0 / ebx2;

    // Anchors: snap to the quantization lattice (error <= eb) and record.
    for_each_anchor(dims, anchors.stride, [&](std::size_t idx) {
      const f64 x = static_cast<f64>(in[idx]);
      const f64 scaled = x * r_ebx2;
      codes[idx] = 0;
      if (!(std::fabs(scaled) < static_cast<f64>(value_outlier_limit))) {
        out.value_outliers.emplace_back(idx, x);
        rec[idx] = x;
        anchors.lattice.push_back(0);
      } else {
        const i64 q = std::llrint(scaled);
        rec[idx] = static_cast<f64>(q) * ebx2;
        anchors.lattice.push_back(static_cast<i32>(q));
      }
    });

    // Predicted points: quantize the prediction error, reconstruct
    // immediately so finer levels predict from bounded values.
    std::mutex side_mu;
    std::vector<kernels::outlier> outliers;
    traverse(dims, rec, [&](std::size_t idx, f64 pred) {
      const f64 x = static_cast<f64>(in[idx]);
      const f64 scaled = x * r_ebx2;
      if (!(std::fabs(scaled) < static_cast<f64>(value_outlier_limit))) {
        // Magnitude beyond the safe lattice: keep raw (exact), sentinel 0.
        codes[idx] = 0;
        rec[idx] = x;
        std::lock_guard lk(side_mu);
        out.value_outliers.emplace_back(idx, x);
        return;
      }
      const i64 c = std::llrint((x - pred) * r_ebx2);
      if (c > -radius && c < radius) {
        codes[idx] = static_cast<u16>(c + radius);
        rec[idx] = pred + static_cast<f64>(c) * ebx2;
      } else {
        // Prediction failed: fall back to lattice-exact storage.
        const i64 q = std::llrint(scaled);
        codes[idx] = 0;
        rec[idx] = static_cast<f64>(q) * ebx2;
        std::lock_guard lk(side_mu);
        outliers.push_back({static_cast<u64>(idx), q});
      }
    });

    out.n_outliers = outliers.size();
    out.outliers.ensure(outliers.size(), device::space::device);
    std::copy(outliers.begin(), outliers.end(), out.outliers.data());
    device::runtime::instance().stats().h2d_bytes +=
        outliers.size() * sizeof(kernels::outlier);
  });
}

template <class T>
void interp_decompress_async(const quant_field& field,
                             const interp_anchors& anchors,
                             device::buffer<T>& data, device::stream& s) {
  data.assert_space(device::space::device);
  const std::size_t n = field.dims.len();
  FZMOD_REQUIRE(data.size() == n, status::invalid_argument,
                "interp: output size does not match dims");
  FZMOD_REQUIRE(field.ebx2 > 0, status::corrupt_archive,
                "interp: archive has non-positive error bound");
  // The traversal refines from the fixed stride down; under any other
  // stride some points would be neither anchors nor targets and decode
  // would hand back whatever the retained scratch last held.
  FZMOD_REQUIRE(anchors.stride == interp_anchor_stride,
                status::corrupt_archive,
                "interp: unsupported anchor stride");

  field.recon_scratch.ensure(n, device::space::device);
  T* outp = data.data();
  f64* rec = field.recon_scratch.data();
  device::host_task(s, [outp, rec, &field, &anchors, n] {
    const f64 ebx2 = field.ebx2;
    const dims3 dims = field.dims;
    const u16* codes = field.codes.data();

    // Side channels, sorted by index, resolve sentinel codes: lattice
    // fallbacks first, then raw values in reverse so that after the
    // stable sort the last entry of an index is the winner.
    std::vector<side_entry> side;
    side.reserve(field.n_outliers + field.value_outliers.size());
    for (u64 k = 0; k < field.n_outliers; ++k) {
      const auto& o = field.outliers.data()[k];
      FZMOD_REQUIRE(o.index < n, status::corrupt_archive,
                    "interp: outlier index out of range");
      side.push_back(
          {o.index, static_cast<f64>(static_cast<i32>(o.value)) * ebx2,
           false});
    }
    for (auto it = field.value_outliers.rbegin();
         it != field.value_outliers.rend(); ++it) {
      FZMOD_REQUIRE(it->first < n, status::corrupt_archive,
                    "interp: value outlier index out of range");
      side.push_back({it->first, it->second, true});
    }
    std::stable_sort(side.begin(), side.end(),
                     [](const side_entry& a, const side_entry& b) {
                       return a.index < b.index;
                     });

    // Anchors; a raw value outlier at an anchor overrides its lattice value.
    std::size_t a = 0;
    for_each_anchor(dims, anchors.stride, [&](std::size_t idx) {
      FZMOD_REQUIRE(a < anchors.lattice.size(), status::corrupt_archive,
                    "interp: anchor payload truncated");
      const side_entry* e = find_side(side, idx);
      rec[idx] = e && e->raw ? e->value
                             : static_cast<f64>(anchors.lattice[a]) * ebx2;
      outp[idx] = static_cast<T>(rec[idx]);
      ++a;
    });

    // Each point is final once written, so the output is stored as the
    // traversal goes rather than in a separate pass.
    const int radius = field.radius;
    traverse(dims, rec, [&](std::size_t idx, f64 pred) {
      const u16 c = codes[idx];
      f64 v;
      if (c != 0) {
        v = pred + static_cast<f64>(static_cast<i32>(c) - radius) * ebx2;
      } else {
        const side_entry* e = find_side(side, idx);
        v = e ? e->value : 0.0;
      }
      rec[idx] = v;
      outp[idx] = static_cast<T>(v);
    });
  });
}

template void interp_compress_async<f32>(const device::buffer<f32>&, dims3,
                                         f64, int, quant_field&,
                                         interp_anchors&, device::stream&);
template void interp_compress_async<f64>(const device::buffer<f64>&, dims3,
                                         f64, int, quant_field&,
                                         interp_anchors&, device::stream&);
template void interp_decompress_async<f32>(const quant_field&,
                                           const interp_anchors&,
                                           device::buffer<f32>&,
                                           device::stream&);
template void interp_decompress_async<f64>(const quant_field&,
                                           const interp_anchors&,
                                           device::buffer<f64>&,
                                           device::stream&);

}  // namespace fzmod::predictors
