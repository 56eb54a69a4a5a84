#include "compressors/registry.h"

#include <cstdio>

#include "compressors/interp/interp_compressor.h"
#include "compressors/lorenzo/lorenzo_compressor.h"
#include "compressors/quantize/quantize_compressor.h"
#include "compressors/zfpx/zfpx_compressor.h"

namespace mrc {

void CodecRegistry::add(Entry e) {
  MRC_REQUIRE(!e.name.empty(), "codec entry needs a name");
  MRC_REQUIRE(e.magic != 0, "codec entry needs a stream magic: " + e.name);
  MRC_REQUIRE(static_cast<bool>(e.factory), "codec entry needs a factory: " + e.name);
  for (const auto& have : entries_) {
    MRC_REQUIRE(have.name != e.name, "duplicate codec name: " + e.name);
    MRC_REQUIRE(have.magic != e.magic, "duplicate codec magic: " + e.name);
  }
  entries_.push_back(std::move(e));
}

const CodecRegistry::Entry* CodecRegistry::find(const std::string& name) const {
  for (const auto& e : entries_)
    if (e.name == name) return &e;
  return nullptr;
}

const CodecRegistry::Entry* CodecRegistry::find_magic(std::uint32_t magic) const {
  for (const auto& e : entries_)
    if (e.magic == magic) return &e;
  return nullptr;
}

std::vector<std::string> CodecRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.name);
  return out;
}

namespace {

std::string join_names(const CodecRegistry& reg) {
  std::string out;
  for (const auto& n : reg.names()) {
    if (!out.empty()) out += "|";
    out += n;
  }
  return out;
}

}  // namespace

std::unique_ptr<Compressor> CodecRegistry::make(const std::string& name,
                                                const CodecTuning& tuning) const {
  if (const Entry* e = find(name)) return e->factory(tuning);
  throw CodecError("unknown codec '" + name + "' (known: " + join_names(*this) + ")");
}

std::unique_ptr<Compressor> CodecRegistry::make_for_magic(
    std::uint32_t magic, const CodecTuning& tuning) const {
  if (const Entry* e = find_magic(magic)) return e->factory(tuning);
  throw CodecError("stream written by an unregistered codec (magic 0x" +
                   [&] {
                     char buf[16];
                     std::snprintf(buf, sizeof buf, "%08x", magic);
                     return std::string(buf);
                   }() +
                   ")");
}

namespace {

CodecRegistry make_builtin_registry() {
  CodecRegistry reg;
  reg.add({.name = "interp",
           .magic = InterpCompressor::kMagic,
           .description = "SZ3-class global interpolation predictor",
           .block_edge = 0,
           .factory =
               [](const CodecTuning& t) -> std::unique_ptr<Compressor> {
                 InterpConfig c;
                 c.quant_radius = t.quant_radius;
                 c.adaptive_eb = t.adaptive_eb;
                 c.alpha = t.alpha;
                 c.beta = t.beta;
                 c.entropy_shards = t.entropy_shards;
                 c.threads = t.threads;
                 return std::make_unique<InterpCompressor>(c);
               }});
  reg.add({.name = "lorenzo",
           .magic = LorenzoCompressor::kMagic,
           .description = "SZ2-class Lorenzo + per-block regression",
           .block_edge = 6,
           .factory =
               [](const CodecTuning& t) -> std::unique_ptr<Compressor> {
                 LorenzoConfig c;
                 if (t.block_size > 0) c.block_size = t.block_size;
                 c.quant_radius = t.quant_radius;
                 c.use_regression = t.use_regression;
                 c.chunks = t.threads;
                 c.entropy_shards = t.entropy_shards;
                 return std::make_unique<LorenzoCompressor>(c);
               }});
  reg.add({.name = "zfpx",
           .magic = ZfpxCompressor::kMagic,
           .description = "ZFP-class fixed-accuracy transform codec",
           .block_edge = ZfpxCompressor::kBlock,
           .factory =
               [](const CodecTuning& t) -> std::unique_ptr<Compressor> {
                 ZfpxConfig c;
                 c.chunks = t.threads;
                 c.entropy_shards = t.entropy_shards;
                 return std::make_unique<ZfpxCompressor>(c);
               }});
  reg.add({.name = "quantize",
           .magic = QuantizeCompressor::kMagic,
           .description = "zero predictor + quantizer (decorrelated residuals)",
           .block_edge = 0,
           .factory =
               [](const CodecTuning& t) -> std::unique_ptr<Compressor> {
                 QuantizeConfig c;
                 c.quant_radius = t.quant_radius;
                 c.entropy_shards = t.entropy_shards;
                 return std::make_unique<QuantizeCompressor>(c);
               }});
  return reg;
}

}  // namespace

CodecRegistry& registry() {
  static CodecRegistry reg = make_builtin_registry();
  return reg;
}

}  // namespace mrc
