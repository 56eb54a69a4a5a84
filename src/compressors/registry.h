#pragma once

// Central codec registry — the single construction path for every compressor
// in the library. Each codec is installed under both its string name (encode
// dispatch: `registry().make("interp")`) and its stream magic (decode
// dispatch: `registry().make_for_magic(peek_header(stream).codec_magic)`),
// so adding a backend is one registry entry instead of a cross-cutting edit
// to every caller, and identifying a stream never probes codecs with
// exceptions.
//
// Most code should sit one level higher still, on the "api/mrc_api.h"
// facade; the registry is the extension point for new backends.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compressors/compressor.h"

namespace mrc {

/// Generic tuning knobs a codec factory may honour. Codecs ignore the knobs
/// they do not understand, so one struct configures any registered backend.
struct CodecTuning {
  std::uint32_t quant_radius = 512;  ///< interp/lorenzo/quantize bins per side
  bool adaptive_eb = false;          ///< interp per-level eb tightening
  double alpha = 2.25;               ///< adaptive-eb decay (paper §III-A)
  double beta = 8.0;                 ///< adaptive-eb decay cap
  index_t block_size = 0;            ///< lorenzo block edge; 0 = codec default
  bool use_regression = true;        ///< lorenzo per-block predictor choice
  /// Lanes of the parallel codecs: lorenzo/zfpx chunk counts, interp's
  /// exec-pool width for one stream (which changes no byte).
  int threads = 1;
  /// Requested entropy shards per Huffman code stream (interp/lorenzo/
  /// quantize; zfpx folds it into its chunk count, whose streams are already
  /// independent).
  /// Negotiated down by stream size; > 1 writes the v7 sharded layout, the
  /// default 1 keeps every stream byte-identical to v6.
  std::uint32_t entropy_shards = 1;
};

class CodecRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Compressor>(const CodecTuning&)>;

  struct Entry {
    std::string name;         ///< CLI/config identifier ("interp", ...)
    std::uint32_t magic = 0;  ///< stream id written into the container header
    std::string description;
    index_t block_edge = 0;  ///< block granularity (post-process unit); 0 = global
    Factory factory;
  };

  /// Installs a codec. Throws ContractError on a duplicate name or magic, or
  /// an incomplete entry (empty name, zero magic, missing factory).
  void add(Entry e);

  [[nodiscard]] const Entry* find(const std::string& name) const;
  [[nodiscard]] const Entry* find_magic(std::uint32_t magic) const;
  [[nodiscard]] bool contains(const std::string& name) const {
    return find(name) != nullptr;
  }

  /// Constructs a codec by name. Throws CodecError naming the known codecs.
  [[nodiscard]] std::unique_ptr<Compressor> make(const std::string& name,
                                                 const CodecTuning& tuning = {}) const;

  /// Constructs the decoder for a stream magic (from peek_header). Throws
  /// CodecError on an unknown magic.
  [[nodiscard]] std::unique_ptr<Compressor> make_for_magic(
      std::uint32_t magic, const CodecTuning& tuning = {}) const;

  /// Registered codec names, in registration order.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::vector<Entry> entries_;
};

/// Process-wide registry with all built-in codecs installed.
[[nodiscard]] CodecRegistry& registry();

}  // namespace mrc
