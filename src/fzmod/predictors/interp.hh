// FZModules — multi-level interpolation predictor (the G-Interp module of
// cuSZ-i; Liu, Tian et al., SC'24 — itself derived from SZ3's dynamic
// spline interpolation).
//
// The field is reconstructed coarse-to-fine: anchor points on a stride-A
// lattice are stored (quantized to the error-bound lattice, so they also
// honour the bound), then each level halves the spacing, predicting the
// new points by cubic (fallback linear) interpolation along one dimension
// at a time from already-reconstructed values. Prediction errors are
// quantized exactly like Lorenzo deltas, so the same codec modules apply.
//
// Within a level+dimension sub-step every target point depends only on the
// previous sub-step, which is what makes the GPU parallelization of
// cuSZ-i possible — and what our kernel launches exploit.
//
// Traversal: one shared row sweep serves both directions. Each sub-step is
// one launch over rows along x (the contiguous axis) on the lattice of the
// two outer axes, long rows cut into segments for the pool. Along a row
// the stencil offsets are constant: when y or z is refined the whole row
// takes one stencil (cubic, linear at the edge, nearest past it); when x is
// refined only the first point and the last one or two take the fallback,
// and the interior loop is the inlined cubic stencil with no bounds test.
// Rounding is std::llrint, which the library's -fno-math-errno inlines to
// one cvtsd2si. The f64 reconstruction lives in
// `quant_field::recon_scratch` and is reused across calls; every point is
// written exactly once, so nothing is cleared. Only the fixed anchor
// stride guarantees that, so decode rejects any other. Decode resolves
// sentinel codes through a sorted side table and stores each output value
// as its point is reconstructed.
//
// Compared to Lorenzo this predictor is slower (multiple passes over
// strided lattices) but markedly more accurate, which is exactly the trade
// FZMod-Quality makes (paper §3.3).
#pragma once

#include "fzmod/device/runtime.hh"
#include "fzmod/predictors/quant_field.hh"

namespace fzmod::predictors {

/// Anchor lattice stride (2^6): one raw-lattice anchor per 64^rank points.
inline constexpr std::size_t interp_anchor_stride = 64;

/// Anchor payload produced by the interpolation predictor, carried next to
/// the quant_field through the codec stage (it is tiny and incompressible).
struct interp_anchors {
  std::vector<i32> lattice;  // host; q = round(x / ebx2) per anchor point
  std::size_t stride = interp_anchor_stride;
};

template <class T>
void interp_compress_async(const device::buffer<T>& data, dims3 dims,
                           f64 ebx2, int radius, quant_field& out,
                           interp_anchors& anchors, device::stream& s);

/// Decoding writes `field.recon_scratch` although `field` is const, so it
/// is not reentrant on one field: two decodes of the same quant_field at
/// once race on that scratch. Give each concurrent decode its own field.
template <class T>
void interp_decompress_async(const quant_field& field,
                             const interp_anchors& anchors,
                             device::buffer<T>& data, device::stream& s);

}  // namespace fzmod::predictors
