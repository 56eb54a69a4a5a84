#include "merge/padding.h"

#include <algorithm>

namespace mrc {

FieldF pad_xy(const FieldF& merged, PadKind kind) {
  const Dim3 d = merged.dims();
  FieldF out({d.nx + 1, d.ny + 1, d.nz});
  const int ax = d.nx >= 3 ? 3 : static_cast<int>(d.nx);
  const int ay = d.ny >= 3 ? 3 : static_cast<int>(d.ny);
  for (index_t z = 0; z < d.nz; ++z) {
    for (index_t y = 0; y < d.ny; ++y) {
      for (index_t x = 0; x < d.nx; ++x) out.at(x, y, z) = merged.at(x, y, z);
      out.at(d.nx, y, z) = pad_extrapolate(
          kind, merged.at(d.nx - 1, y, z), d.nx >= 2 ? merged.at(d.nx - 2, y, z) : 0.0f,
          d.nx >= 3 ? merged.at(d.nx - 3, y, z) : 0.0f, ax);
    }
    // Pad the +y layer, including the new +x column.
    for (index_t x = 0; x <= d.nx; ++x) {
      out.at(x, d.ny, z) = pad_extrapolate(
          kind, out.at(x, d.ny - 1, z), d.ny >= 2 ? out.at(x, d.ny - 2, z) : 0.0f,
          d.ny >= 3 ? out.at(x, d.ny - 3, z) : 0.0f, ay);
    }
  }
  return out;
}

FieldF strip_pad_xy(const FieldF& padded) {
  const Dim3 d = padded.dims();
  MRC_REQUIRE(d.nx >= 2 && d.ny >= 2, "nothing to strip");
  FieldF out({d.nx - 1, d.ny - 1, d.nz});
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny - 1; ++y)
      for (index_t x = 0; x < d.nx - 1; ++x) out.at(x, y, z) = padded.at(x, y, z);
  return out;
}

FieldF pad_to_even(const FieldF& f, PadKind kind) {
  const Dim3 d = f.dims();
  MRC_REQUIRE(!f.empty(), "pad_to_even of empty field");
  const Dim3 pd{d.nx + (d.nx & 1), d.ny + (d.ny & 1), d.nz + (d.nz & 1)};
  if (pd == d) return f;
  FieldF out(pd);
  const int ax = static_cast<int>(std::min<index_t>(d.nx, 3));
  const int ay = static_cast<int>(std::min<index_t>(d.ny, 3));
  const int az = static_cast<int>(std::min<index_t>(d.nz, 3));
  // Fill each axis in turn (x, then y, then z); later axes extrapolate from
  // already-padded lines so the corner samples are well-defined.
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y) {
      for (index_t x = 0; x < d.nx; ++x) out.at(x, y, z) = f.at(x, y, z);
      if (pd.nx > d.nx)
        out.at(d.nx, y, z) = pad_extrapolate(
            kind, f.at(d.nx - 1, y, z), d.nx >= 2 ? f.at(d.nx - 2, y, z) : 0.0f,
            d.nx >= 3 ? f.at(d.nx - 3, y, z) : 0.0f, ax);
    }
  if (pd.ny > d.ny)
    for (index_t z = 0; z < d.nz; ++z)
      for (index_t x = 0; x < pd.nx; ++x)
        out.at(x, d.ny, z) = pad_extrapolate(
            kind, out.at(x, d.ny - 1, z), d.ny >= 2 ? out.at(x, d.ny - 2, z) : 0.0f,
            d.ny >= 3 ? out.at(x, d.ny - 3, z) : 0.0f, ay);
  if (pd.nz > d.nz)
    for (index_t y = 0; y < pd.ny; ++y)
      for (index_t x = 0; x < pd.nx; ++x)
        out.at(x, y, d.nz) = pad_extrapolate(
            kind, out.at(x, y, d.nz - 1), d.nz >= 2 ? out.at(x, y, d.nz - 2) : 0.0f,
            d.nz >= 3 ? out.at(x, y, d.nz - 3) : 0.0f, az);
  return out;
}

double padding_overhead(index_t u) {
  MRC_REQUIRE(u >= 1, "bad unit size");
  const double up = static_cast<double>(u + 1);
  return (up * up) / (static_cast<double>(u) * static_cast<double>(u));
}

}  // namespace mrc
