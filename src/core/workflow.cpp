#include "core/workflow.h"

#include <fstream>

#include "obs/obs.h"
#include "io/raw_io.h"

namespace mrc::workflow {

namespace {

/// Snapshot preamble: shared container header (finest-grid dims + eb) under
/// kSnapshotMagic, then block size and level count. Level streams follow as
/// length-prefixed blobs, identically on disk and in memory.
Bytes snapshot_header(const MultiResField& mr, double abs_eb) {
  MRC_REQUIRE(!mr.levels.empty(), "snapshot needs at least one level");
  const Dim3 fine =
      mr.fine_dims.size() > 0 ? mr.fine_dims : mr.levels.front().data.dims();
  Bytes out;
  ByteWriter w(out);
  detail::write_header(w, kSnapshotMagic, fine, abs_eb);
  w.put_varint(static_cast<std::uint64_t>(mr.block_size));
  w.put_varint(mr.levels.size());
  return out;
}

}  // namespace

OutputTiming write_snapshot(const MultiResField& mr, double abs_eb,
                            const sz3mr::Config& cfg, const std::string& path) {
  OutputTiming t;

  // Phase 1: pre-process — collect data into compression buffers.
  obs::ScopedTimer timer("workflow.preprocess");
  std::vector<sz3mr::PreparedLevel> prepared;
  prepared.reserve(mr.levels.size());
  for (const auto& level : mr.levels) {
    const index_t unit = std::max<index_t>(mr.block_size / level.ratio, 1);
    prepared.push_back(sz3mr::prepare_level(level, unit, cfg));
  }
  t.preprocess_s = timer.seconds();

  // Phase 2: compression + writing to the file system, in level order. Each
  // level is encoded on all cfg.threads lanes and written before the next
  // is touched, so peak memory holds one compressed level.
  timer.restart("workflow.compress_write");
  // Open (and so validate) the output path before any encoding work.
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  MRC_REQUIRE(f.good(), "cannot open snapshot file: " + path);
  const Bytes head = snapshot_header(mr, abs_eb);
  f.write(reinterpret_cast<const char*>(head.data()),
          static_cast<std::streamsize>(head.size()));
  t.bytes_written += head.size();
  for (const sz3mr::PreparedLevel& level : prepared) {
    const Bytes stream = sz3mr::encode_prepared(level, abs_eb);
    Bytes len;  // varint length prefix only; the payload is written directly
    ByteWriter w(len);
    w.put_varint(stream.size());
    f.write(reinterpret_cast<const char*>(len.data()),
            static_cast<std::streamsize>(len.size()));
    f.write(reinterpret_cast<const char*>(stream.data()),
            static_cast<std::streamsize>(stream.size()));
    t.bytes_written += len.size() + stream.size();
  }
  f.flush();
  MRC_REQUIRE(f.good(), "snapshot write failed: " + path);
  t.compress_write_s = timer.seconds();
  return t;
}

Bytes encode_snapshot(const MultiResField& mr, double abs_eb,
                      const sz3mr::Config& cfg) {
  // Levels encode one after another, each on cfg.threads lanes; the
  // snapshot bytes are identical for any thread count.
  const sz3mr::MultiResStreams streams = sz3mr::compress_multires(mr, abs_eb, cfg);
  Bytes out = snapshot_header(mr, abs_eb);
  ByteWriter w(out);
  for (const Bytes& s : streams.level_streams) w.put_blob(s);
  return out;
}

MultiResField decode_snapshot(std::span<const std::byte> snapshot, int threads) {
  ByteReader r(snapshot);
  const auto header = detail::read_header(r, kSnapshotMagic, "snapshot");
  MultiResField mr;
  mr.fine_dims = header.dims;
  mr.block_size = static_cast<index_t>(r.get_varint());
  const auto n_levels = r.get_varint();
  if (mr.block_size <= 0 || n_levels == 0 || n_levels > 64)
    throw CodecError("snapshot: bad block size / level count");
  // Level l must be the header's grid coarsened 2^l-fold, as restore reads it.
  const Dim3 f = mr.fine_dims;
  for (index_t ratio = 1; mr.levels.size() < n_levels; ratio *= 2) {
    mr.levels.push_back(sz3mr::decompress_level(r.get_blob(), threads));
    if (mr.levels.back().ratio != ratio || f.nx % ratio || f.ny % ratio || f.nz % ratio ||
        mr.levels.back().data.dims() != Dim3{f.nx / ratio, f.ny / ratio, f.nz / ratio})
      throw CodecError("snapshot: a level's ratio or extents disagree with the header");
  }
  return mr;
}

MultiResField read_snapshot(const std::string& path) {
  return decode_snapshot(io::read_bytes(path));
}

}  // namespace mrc::workflow
