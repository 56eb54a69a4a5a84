#pragma once

// Whole-field operations shared by the AMR model, ROI conversion, metrics
// and benches: restriction/prolongation between resolution levels, region
// copies, and slicing.

#include <functional>

#include "grid/field.h"

namespace mrc {

/// Box-average downsampling by an integer factor along every axis.
/// Extents must be divisible by the factor. Runs on `threads` exec-pool
/// lanes (0 = hardware; bit-identical for any width).
[[nodiscard]] FieldF restrict_average(const FieldF& fine, index_t factor, int threads = 0);

/// Box-average downsampling by 2 for arbitrary extents: the coarse grid has
/// ceil(n/2) samples per axis and each coarse cell averages its (possibly
/// boundary-clipped) 2x2x2 fine box. The pyramid container's level chain is
/// built by iterating this, so level extents follow ceil_div(dims, 2^level).
[[nodiscard]] FieldF restrict_half(const FieldF& fine);

/// restrict_average (or, at factor 2, restrict_half) into the coarse z-planes
/// [z0, z1) of `coarse`, which must have blocks_for(fine.dims(), factor)
/// extents. Each coarse plane reads only its own fine planes, so callers
/// split z across a pool; every sample is bit-identical either way.
void restrict_slab(const FieldF& fine, FieldF& coarse, index_t factor, index_t z0,
                   index_t z1);

/// Nearest-neighbor (injection) upsampling to `fine_dims`.
[[nodiscard]] FieldF prolong_nearest(const FieldF& coarse, Dim3 fine_dims);

/// Trilinear upsampling to `fine_dims` (cell-centered alignment).
///
/// prolong_trilinear, prolong_trilinear_rows, prolong_trilinear_region,
/// prolong_trilinear_region_rows and prolong_error_slab share one separable
/// kernel. Its invariant: every fine
/// sample evaluates the same double expressions in the same order (x-lerp
/// per coarse row, then y, then z, one float rounding) with no FMA
/// contraction, so the entry points agree bit for bit, whatever z-range they
/// cover, and stream bytes built on them never drift.
[[nodiscard]] FieldF prolong_trilinear(const FieldF& coarse, Dim3 fine_dims);

/// Receives one prolonged fine x-row: row(y, z, values), values[0, nx) being
/// the samples (0, y, z) .. (nx - 1, y, z). The buffer is reused per row.
using ProlongRowSink = std::function<void(index_t y, index_t z, const float* values)>;

/// prolong_trilinear over the fine z-planes [z0, z1) of the full fine_dims
/// grid, handed row by row to `row` (ascending z, then y) instead of stored.
/// Slabs are independent, so callers fuse per-sample work into the sink and
/// split z across a pool; prolong_trilinear is the full-range copy sink.
void prolong_trilinear_rows(const FieldF& coarse, Dim3 fine_dims, index_t z0, index_t z1,
                            const ProlongRowSink& row);

/// Coarse footprint of prolong_trilinear over the fine window
/// [fine_origin, fine_origin + fine_extent) of a fine_dims grid: the
/// half-open coarse index range covering both neighbors (i0 and i1) of
/// every fine sample in the window. origin/extent are in coarse indices.
struct SupportBox {
  Coord3 origin;
  Dim3 extent;
};
[[nodiscard]] SupportBox prolong_support(Dim3 coarse_dims, Dim3 fine_dims,
                                         Coord3 fine_origin, Dim3 fine_extent);

/// prolong_trilinear restricted to the fine window [fine_origin,
/// fine_origin + fine_extent), reading coarse samples from `coarse_window`
/// (a copy of the coarse box [window_origin, window_origin +
/// coarse_window.dims()), which must cover prolong_support of the fine
/// window). Sample arithmetic is identical to prolong_trilinear on the full
/// grids, so the result is bit-exact with the same window of the full
/// prolongation — the progressive container's refinement reads depend on
/// this.
[[nodiscard]] FieldF prolong_trilinear_region(const FieldF& coarse_window,
                                              Coord3 window_origin, Dim3 coarse_dims,
                                              Dim3 fine_dims, Coord3 fine_origin,
                                              Dim3 fine_extent);

/// prolong_trilinear_region handed row by row to `row` (ascending z, then y)
/// instead of stored, with y and z relative to fine_origin and values[0,
/// fine_extent.nx) the window's samples on that row: the window's
/// prolong_trilinear_rows. Callers fuse per-sample work into the sink;
/// prolong_trilinear_region is the copy sink.
void prolong_trilinear_region_rows(const FieldF& coarse_window, Coord3 window_origin,
                                   Dim3 coarse_dims, Dim3 fine_dims, Coord3 fine_origin,
                                   Dim3 fine_extent, const ProlongRowSink& row);

/// Max |prolong_trilinear(coarse, fine.dims()) - fine| over the fine z-slab
/// [z0, z1), without materializing the prolonged field (a sink on
/// prolong_trilinear_rows): the LOD error of the pyramid and progressive
/// builders and of adaptive bricks.
[[nodiscard]] double prolong_error_slab(const FieldF& coarse, const FieldF& fine,
                                        index_t z0, index_t z1);

/// Pointwise gradient magnitude |∇f| via central differences (one-sided at
/// domain boundaries, unit grid spacing). The adaptive container's default
/// importance signal: high-gradient bricks are where downsampling hurts.
[[nodiscard]] FieldF gradient_magnitude(const FieldF& f);

/// Copies the box [origin, origin+extent) out of `f`.
[[nodiscard]] FieldF extract_region(const FieldF& f, Coord3 origin, Dim3 extent);

/// Writes `region` into `f` at `origin`.
void insert_region(FieldF& f, Coord3 origin, const FieldF& region);

/// Central z-slice as a degenerate (nz == 1) field, used for 2-D SSIM.
[[nodiscard]] FieldF central_slice_z(const FieldF& f);

/// Per-block value range (max - min) over a b^3 tiling — the paper's ROI
/// criterion. Returns one value per block, in block raster order. Runs on
/// `threads` exec-pool lanes (0 = hardware).
[[nodiscard]] std::vector<double> block_value_ranges(const FieldF& f, index_t block,
                                                     int threads = 0);

}  // namespace mrc
