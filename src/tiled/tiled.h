#pragma once

// Brick-tiled container: a field split into fixed-edge bricks (default 64^3,
// +1-sample overlap on the high faces so bricks render seam-free on their
// own), every brick compressed independently through any registered codec on
// the exec thread pool, plus a per-tile index enabling parallel decode and
// random-access region reads that touch only intersecting bricks.
//
// Stream layout (container header v3 under kTiledMagic):
//   shared container header      field extents + absolute error bound
//   varint  brick                core brick edge
//   varint  overlap              extra samples on each high face (1)
//   u32     inner codec magic    registry id every brick was encoded with
//   varint  ntx, nty, ntz        tile grid (must equal blocks_for(dims, brick))
//   varint  payload_bytes        total size of the brick payload section
//   per tile (x fastest):        varint offset, varint length,
//                                varint x0,y0,z0 (core origin),
//                                varint sx,sy,sz (stored extents, overlap incl.),
//                                f32 vmin, f32 vmax
//   payload                      concatenated self-describing brick streams
//
// The index is fully validated on read (grid shape, core placement, stored
// extents, offset/length bounds) so corrupt or hostile streams fail with a
// clean CodecError before any brick is decoded. Each stored sample belongs
// to exactly one brick's core; overlap samples are decode redundancy only,
// which is what makes read_region bit-identical to a full decompress.

#include <span>
#include <string>
#include <vector>

#include "compressors/registry.h"
#include "grid/field.h"

namespace mrc::tiled {

/// Container-header stream id of a tiled stream.
inline constexpr std::uint32_t kTiledMagic = 0x5443'524d;  // "MRCT"

/// Samples of overlap written past each brick's high faces (domain edge
/// permitting) — one layer is enough to interpolate/render across a seam.
inline constexpr index_t kOverlap = 1;

inline constexpr index_t kDefaultBrick = 64;

/// Half-open axis-aligned box [lo, hi) in sample coordinates.
struct Box {
  Coord3 lo;
  Coord3 hi;
  [[nodiscard]] constexpr Dim3 extent() const {
    return {hi.x - lo.x, hi.y - lo.y, hi.z - lo.z};
  }
  constexpr bool operator==(const Box&) const = default;
};

/// Whole-domain box of a field with extents `d`.
[[nodiscard]] constexpr Box full_box(const Dim3& d) {
  return {{0, 0, 0}, {d.nx, d.ny, d.nz}};
}

struct Config {
  std::string codec = "interp";  ///< any registry name, applied per brick
  CodecTuning tuning;            ///< per-brick codec tuning (threads forced to 1)
  index_t brick = kDefaultBrick; ///< core brick edge, >= 1
  int threads = 1;               ///< pool lanes; 0 = hardware
};

/// One record of the tile index.
struct TileEntry {
  std::uint64_t offset = 0;  ///< within the payload section
  std::uint64_t length = 0;  ///< compressed brick stream bytes
  Coord3 origin;             ///< core origin in the field
  Dim3 stored;               ///< stored extents (core + overlap, clipped)
  float vmin = 0.0f;         ///< value range over the stored samples
  float vmax = 0.0f;
};

/// Parsed + validated index of a tiled stream.
struct Index {
  Dim3 dims;
  double eb = 0.0;
  index_t brick = 0;
  index_t overlap = 0;
  std::uint32_t codec_magic = 0;
  std::string codec;  ///< registry name, or hex magic if unregistered
  Dim3 grid;          ///< tile counts per axis
  std::size_t payload_offset = 0;  ///< absolute offset of the payload section
  std::uint64_t payload_bytes = 0;
  std::vector<TileEntry> tiles;  ///< grid.size() entries, x fastest

  /// Core extents of tile `t` (stored minus overlap clipping).
  [[nodiscard]] Dim3 core_extent(std::size_t t) const;
};

/// Splits `f` into bricks and compresses every brick independently on a
/// thread pool of cfg.threads lanes. Deterministic: the stream is
/// byte-identical for any thread count.
[[nodiscard]] Bytes compress(const FieldF& f, double abs_eb, const Config& cfg = {});

/// Parses and validates just the fixed-size preamble — dims, brick,
/// overlap, codec, grid — in O(1), leaving `tiles` empty. This is what
/// api::info uses: stream identification never pays the O(tiles) record
/// walk.
[[nodiscard]] Index read_geometry(std::span<const std::byte> stream);

/// Parses and validates header + full tile index without decoding any
/// brick. Throws CodecError on malformed streams.
[[nodiscard]] Index read_index(std::span<const std::byte> stream);

/// Decodes every brick (in parallel) and reassembles the full field from
/// brick cores. threads = 0 means hardware.
[[nodiscard]] FieldF decompress(std::span<const std::byte> stream, int threads = 1);

/// Result of a region read, with the decode counters the random-access
/// guarantee is tested against.
struct RegionRead {
  FieldF data;                    ///< extents = region.extent()
  std::size_t tiles_decoded = 0;  ///< bricks actually decompressed
  std::size_t tiles_total = 0;    ///< bricks in the stream
};

/// Decodes only the bricks intersecting `region` and returns that region,
/// bit-identical to the same window of a full decompress(). Throws
/// ContractError if the region is empty or outside the field.
[[nodiscard]] RegionRead read_region(std::span<const std::byte> stream, const Box& region,
                                     int threads = 1);

/// Decodes the single brick `t` of a parsed stream and validates its extents
/// against the index record. `codec` must match idx.codec_magic (one
/// stateless instance can serve any number of threads). This is the unit the
/// serve-layer brick cache is built on.
[[nodiscard]] FieldF decode_tile(const Index& idx, const Compressor& codec,
                                 std::span<const std::byte> stream, std::size_t t);

/// Tile ids of the bricks whose cores intersect `region` (x fastest), i.e.
/// exactly the bricks a region read must decode.
[[nodiscard]] std::vector<index_t> tiles_in_region(const Index& idx, const Box& region);

/// Tile-grid coordinate of tile id `t` (ids are x fastest).
[[nodiscard]] Coord3 tile_coord(const Dim3& grid, index_t t);

/// Copies core ∩ `box` of a decoded brick whose core starts at `origin` and
/// spans `core` into `out`, which holds exactly `box`. Every region read
/// assembles through this ownership rule — each sample comes from the brick
/// whose core owns it — which is what keeps region reads bit-identical to a
/// full decompress.
void copy_core(const FieldF& brick, const Coord3& origin, const Dim3& core,
               const Box& box, FieldF& out);

}  // namespace mrc::tiled
