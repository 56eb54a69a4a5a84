#pragma once

// Storage step of the end-to-end workflow (paper Fig. 3): uniform data →
// ROI-based adaptive conversion (roi/) → per-level SZ3MR compression
// (core/sz3mr.h) → snapshot storage (here), with the in-situ output-time
// instrumentation used by Table IV. api::compress_adaptive composes the
// whole chain.

#include <string>

#include "core/sz3mr.h"
#include "roi/roi_extract.h"

namespace mrc::workflow {

/// Container-header stream id of a multi-level snapshot. Snapshots start
/// with the same versioned header as every codec stream (dims = finest-grid
/// extents, eb = the bound all levels were encoded under), so peek_header
/// identifies them without decompressing anything.
inline constexpr std::uint32_t kSnapshotMagic = 0x5343'524d;  // "MRCS"

/// In-situ snapshot output with the paper's two-phase timing split:
/// (1) pre-process — collect unit blocks into the compression buffer
///     (merge + optional padding),
/// (2) compression + writing the compressed data to the file system.
struct OutputTiming {
  double preprocess_s = 0.0;
  double compress_write_s = 0.0;
  std::size_t bytes_written = 0;
  [[nodiscard]] double total_s() const { return preprocess_s + compress_write_s; }
};

/// Encodes and writes one level at a time, each on all cfg.threads lanes,
/// so peak memory holds one compressed level whatever the width.
[[nodiscard]] OutputTiming write_snapshot(const MultiResField& mr, double abs_eb,
                                          const sz3mr::Config& cfg,
                                          const std::string& path);

/// In-memory form of write_snapshot's on-disk format (identical bytes):
/// container header under kSnapshotMagic, then block size, level count, and
/// one length-prefixed sz3mr level stream per level.
[[nodiscard]] Bytes encode_snapshot(const MultiResField& mr, double abs_eb,
                                    const sz3mr::Config& cfg);

/// Full inverse of encode_snapshot / the bytes of a write_snapshot file.
/// Levels decode one after another, each on `threads` exec-pool lanes
/// (0 = hardware); the result is identical for any width.
[[nodiscard]] MultiResField decode_snapshot(std::span<const std::byte> snapshot,
                                            int threads = 0);

/// Reads back a snapshot written by write_snapshot, on all hardware lanes.
[[nodiscard]] MultiResField read_snapshot(const std::string& path);

}  // namespace mrc::workflow
