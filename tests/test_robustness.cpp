// Failure injection: corrupted, truncated, and random streams must raise
// CodecError (or reconstruct garbage within allocation limits) — never
// crash, hang, or attempt absurd allocations. Plus randomized round-trip
// fuzzing of every codec across dims/ebs/datasets.

#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "compressors/registry.h"
#include "core/sz3mr.h"
#include "lossless/lzss.h"
#include "lossless/quant_codec.h"
#include "test_util.h"

namespace mrc {
namespace {

using test::max_abs_err;

/// Decompression of hostile input either throws a library exception type or
/// succeeds (harmless bit flips can decode to bounded garbage) — anything
/// else (crash, bad_alloc from absurd sizes) fails the test.
template <typename Fn>
void expect_contained(Fn&& fn) {
  try {
    fn();
  } catch (const CodecError&) {
  } catch (const ContractError&) {
  }
}

class CodecRobustness : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Compressor> make() const {
    return registry().make(registry().names().at(static_cast<std::size_t>(GetParam())));
  }
};

TEST_P(CodecRobustness, TruncatedStreamsThrowNotCrash) {
  const auto codec = make();
  const FieldF f = test::smooth_field({12, 12, 12});
  const auto stream = codec->compress(f, 0.5);
  for (const double frac : {0.0, 0.1, 0.5, 0.9, 0.99}) {
    const auto len = static_cast<std::size_t>(static_cast<double>(stream.size()) * frac);
    Bytes cut(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(len));
    expect_contained([&] { (void)codec->decompress(cut); });
  }
}

TEST_P(CodecRobustness, BitFlipsAreContained) {
  const auto codec = make();
  const FieldF f = test::smooth_field({12, 12, 12});
  const auto stream = codec->compress(f, 0.5);
  Rng rng(GetParam() + 100);
  for (int trial = 0; trial < 64; ++trial) {
    Bytes mutated = stream;
    const auto pos = rng.uniform_index(mutated.size());
    mutated[pos] ^= static_cast<std::byte>(1u << rng.uniform_index(8));
    expect_contained([&] { (void)codec->decompress(mutated); });
  }
}

TEST_P(CodecRobustness, RandomBytesRejected) {
  const auto codec = make();
  Rng rng(GetParam() + 7);
  for (int trial = 0; trial < 32; ++trial) {
    Bytes junk(64 + rng.uniform_index(256));
    for (auto& b : junk) b = static_cast<std::byte>(rng.next_u64() & 0xff);
    expect_contained([&] { (void)codec->decompress(junk); });
  }
}

TEST_P(CodecRobustness, RandomizedRoundTripFuzz) {
  const auto codec = make();
  Rng rng(GetParam() * 31 + 5);
  for (int trial = 0; trial < 24; ++trial) {
    const Dim3 d{1 + static_cast<index_t>(rng.uniform_index(24)),
                 1 + static_cast<index_t>(rng.uniform_index(24)),
                 1 + static_cast<index_t>(rng.uniform_index(24))};
    FieldF f(d);
    const int mode = static_cast<int>(rng.uniform_index(3));
    for (index_t i = 0; i < d.size(); ++i) {
      switch (mode) {
        case 0: f[i] = static_cast<float>(rng.normal(0, 100)); break;
        case 1: f[i] = static_cast<float>(i % 17); break;
        default: f[i] = static_cast<float>(1e8 * rng.uniform()); break;
      }
    }
    const double eb = std::max(1e-3, f.value_range() * rng.uniform(1e-5, 1e-1));
    const auto rt = round_trip(*codec, f, eb);
    ASSERT_EQ(rt.reconstructed.dims(), d);
    ASSERT_LE(max_abs_err(f, rt.reconstructed), eb * (1 + 1e-9))
        << codec->name() << " dims " << d.str() << " eb " << eb;
  }
}

std::string codec_case_name(const ::testing::TestParamInfo<int>& info) {
  switch (info.param) {
    case 0: return "interp";
    case 1: return "lorenzo";
    case 2: return "zfpx";
    default: return "quantize";
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRobustness, ::testing::Values(0, 1, 2, 3),
                         codec_case_name);

struct Sz3mrPreset {
  sz3mr::Config cfg;
  const char* name;
};

// gtest_discover_tests puts the printed parameter into the ctest name.
void PrintTo(const Sz3mrPreset& p, std::ostream* os) { *os << p.name; }

/// Every sz3mr preset: each merge layout, padded and post-processed.
class Sz3mrRobustness : public ::testing::TestWithParam<Sz3mrPreset> {
 protected:
  static Bytes level_stream() {
    FieldF f = test::smooth_field({32, 32, 32});
    const std::array<double, 2> fr{0.5, 0.5};
    const auto mr = amr::build_hierarchy(f, 16, fr);
    return sz3mr::compress_level(mr.levels[0], 16, 0.5, GetParam().cfg);
  }
};

TEST_P(Sz3mrRobustness, TruncatedLevelStreamContained) {
  const auto stream = level_stream();
  for (const double frac : {0.05, 0.3, 0.7, 0.95}) {
    const auto len = static_cast<std::size_t>(static_cast<double>(stream.size()) * frac);
    Bytes cut(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(len));
    expect_contained([&] { (void)sz3mr::decompress_level(cut); });
  }
}

TEST_P(Sz3mrRobustness, BitFlippedLevelStreamContained) {
  const auto stream = level_stream();
  Rng rng(77);
  for (int trial = 0; trial < 48; ++trial) {
    Bytes mutated = stream;
    mutated[rng.uniform_index(mutated.size())] ^=
        static_cast<std::byte>(1u << rng.uniform_index(8));
    expect_contained([&] { (void)sz3mr::decompress_level(mutated); });
  }
}

INSTANTIATE_TEST_SUITE_P(Presets, Sz3mrRobustness,
                         ::testing::Values(Sz3mrPreset{sz3mr::baseline_sz3(), "baseline"},
                                           Sz3mrPreset{sz3mr::amric_sz3(), "amric"},
                                           Sz3mrPreset{sz3mr::tac_sz3(), "tac"},
                                           Sz3mrPreset{sz3mr::ours_pad(), "pad"},
                                           Sz3mrPreset{sz3mr::ours_pad_eb(), "pad_eb"},
                                           Sz3mrPreset{sz3mr::ours_processed(), "processed"}),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(LosslessRobustness, RandomBytesIntoDecoders) {
  Rng rng(13);
  for (int trial = 0; trial < 64; ++trial) {
    Bytes junk(16 + rng.uniform_index(128));
    for (auto& b : junk) b = static_cast<std::byte>(rng.next_u64() & 0xff);
    expect_contained([&] { (void)lossless::lzss_decompress(junk); });
    expect_contained([&] { (void)lossless::decode_quant_codes(junk, 512); });
  }
}

}  // namespace
}  // namespace mrc
