// mrcc — command-line front end for the mrcomp workflow, built entirely on
// the mrc::api facade.
//
//   mrcc compress   <in.f32> <nx> <ny> <nz> <out> [codec] [rel_eb] [key=value ...]
//   mrcc tiled      <in.f32> <nx> <ny> <nz> <out> [codec] [rel_eb] [key=value ...]
//   mrcc pyramid    <in.f32> <nx> <ny> <nz> <out> [codec] [rel_eb] [key=value ...]
//   mrcc progressive <in.f32> <nx> <ny> <nz> <out> [codec] [rel_eb] [key=value ...]
//   mrcc adaptive   <in.f32> <nx> <ny> <nz> <out> [importance] [rel_eb] [key=value ...]
//   mrcc decompress <in> <out.f32> [threads=N]   (threads applies to brick containers)
//   mrcc snapshot   <in.f32> <nx> <ny> <nz> <out> [roi_fraction] [rel_eb] [key=value ...]
//   mrcc restore    <in.snapshot> <out.f32>
//   mrcc region     <in.tiled> <x0> <y0> <z0> <x1> <y1> <z1> [--out=<file.raw>]
//                   [--progressive [--level=L]] [key=value ...]
//   mrcc lod        <in.mrcp> <x0> <y0> <z0> <x1> <y1> <z1>
//                   [--budget=<samples> | --eb_budget=<err> | --level=<l>]
//                   [--out=<file.raw>] [key=value ...]
//   mrcc metrics    <orig.raw> <recon.raw>
//   mrcc info       <in> [--tiles]
//   mrcc serve      <stream...> [--clients=K] [--reads=N] [--flight=<out.json>]
//                   [--slow_us=N] [key=value ...]
//   mrcc stats      <stream...> [--reads=N] [key=value ...]
//   mrcc trace-read <stream> <x0> <y0> <z0> <x1> <y1> <z1> [--level=L] [key=value ...]
//   mrcc codecs
//
// Any subcommand additionally accepts a global --trace=<out.json>: it turns
// the mrc::obs runtime switch on for the whole run and writes a
// chrome://tracing / Perfetto-loadable span trace on exit.
//
// Codec names come from the codec registry (`mrcc codecs` lists them); any
// api::Options knob can be set with trailing key=value arguments (a leading
// "--" is accepted, so `--tile=32 --threads=8` works too), e.g.
//   mrcc compress in.f32 64 64 64 out.mrc codec=zfpx eb=1e-3
//   mrcc pyramid  in.f32 256 256 256 out.mrcp --tile=64 --levels=0 --threads=8
//   mrcc adaptive in.f32 256 256 256 out.mrca importance=halo --coarse_level=2
//   mrcc adaptive in.f32 256 256 256 out.mrca importance=roi --roi=0:0:0:64:64:64
//   mrcc lod      out.mrcp 0 0 0 256 256 256 --budget=100000 --out=view.raw
// "adaptive" writes the adaptive multi-resolution container (MRCA): every
// brick at its own level, chosen by the importance source (halo | gradient
// | roi | file), and prints the resulting level histogram with per-level
// byte shares. "snapshot" runs the paper's snapshot workflow (ROI
// extraction + SZ3MR); "restore" reconstructs a uniform grid from it.
// "tiled" writes the brick-tiled container; "pyramid" writes the LOD
// pyramid (the field at resolutions 1, 1/2, 1/4, ...); "progressive"
// writes the progressive residual container (MRCR: coarsest level verbatim
// + per-level residual streams) and prints its level table — per-level
// bytes, residual entropy, and the cumulative telescoped error bound.
// "region" reads a half-open [x0,x1)x[y0,y1)x[z0,z1) box back out of a
// tiled stream, decoding only the intersecting bricks (an MRCR operand is
// read in-process at --level instead); with --progressive
// it instead streams the box coarse-first out of an MRCR stream through an
// in-process wire server (one `progressive` request, N refinement frames)
// and prints the bytes streamed per level. The box is then in level-L
// coordinates (--level, default 0, the finest); "lod" serves the same kind of box
// (in finest-grid coordinates) from a pyramid through the cached Dataset
// layer, picking the cheapest sufficient level for a sample or error budget
// unless --level pins one. "serve" opens every operand stream (MRCT / MRCP /
// MRCA, any mix) in one multi-tenant serve::Server — one global cache_mb
// brick cache, one exec pool — drives K simulated clients through the wire
// protocol over the in-process loopback transport for N region reads each,
// and prints the per-dataset hit ratios plus the server's admission and
// latency stats. Every simulated serve read carries a distinct wire trace
// id; --flight=<out.json> dumps the server's always-on flight recorder and
// slow-request log as JSON on the way out — error exits included — and
// --slow_us=N lowers the slow-capture threshold. "trace-read" runs exactly
// one traced region read through the same in-process wire server and prints
// the stitched span tree of that request (wire -> server -> pool lanes).
// "stats" opens streams the same way, drives --reads random
// region reads per dataset, prints the observability registry fetched over
// the wire metrics frame (Prometheus text), and verifies that its counters
// reconcile exactly with the server's global and per-dataset stats slices.
// --out writes the result as a self-describing
// .raw file (io::write_raw: extents header + f32 payload). "decompress"
// accepts any mrcomp stream — codec choice is read from the stream header;
// snapshots are restored, tiled streams reassembled, pyramids decoded at
// full resolution, adaptive streams reconstructed seam-free. "metrics"
// prints PSNR / RMSE / max error / SSIM between two .raw fields (the
// dormant metrics/ modules wired to the CLI). "info" reports kind, codec,
// dims, and error bound from the header alone, without decompressing —
// plus tile geometry (and the per-tile/per-brick index with --tiles) for
// the brick containers and the level table (extents, bytes, value range,
// LOD error) for pyramids. Bad arguments (unknown keys, malformed numbers,
// missing operands) always exit nonzero with a message on stderr.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/mrc_api.h"
#include "common/rng.h"
#include "io/raw_io.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "serve/wire.h"
#include "metrics/psnr.h"
#include "metrics/ssim.h"

using namespace mrc;

namespace {

void write_raw_floats(const FieldF& f, const std::string& path) {
  io::write_bytes(std::as_bytes(std::span(f.data(), static_cast<std::size_t>(f.size()))),
                  path);
}

/// Strict integer parse for positional operands (extents, box corners):
/// rejects trailing garbage and empty strings instead of atoll's silent 0.
index_t parse_ll(const char* s, const char* what) {
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0')
    throw ContractError(std::string("bad ") + what + ": '" + s + "' (expected an integer)");
  return static_cast<index_t>(v);
}

double parse_d(const std::string& s, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size())
    throw ContractError(std::string("bad ") + what + ": '" + s + "' (expected a number)");
  return v;
}

/// Applies trailing CLI arguments to `opt`: "key=value" goes through
/// Options::set; for back-compat a bare codec name or number is accepted in
/// the first two positions (codec, then relative error bound). Commands with
/// fewer meaningful positions pass nullptr — extra bare args are rejected
/// rather than silently mapped onto unrelated knobs.
void apply_args(api::Options& opt, const std::vector<std::string>& args,
                const char* bare1 = nullptr, const char* bare2 = nullptr) {
  const char* bare_keys[2] = {bare1, bare2};
  int bare = 0;
  for (std::string arg : args) {
    if (arg.rfind("--", 0) == 0) arg.erase(0, 2);  // --tile=64 == tile=64
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      opt.set(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (bare < 2 && bare_keys[bare] != nullptr) {
      opt.set(bare_keys[bare], arg);
      ++bare;
    } else {
      throw ContractError("unexpected argument: " + arg);
    }
  }
}

std::vector<std::string> tail_args(char** begin, char** end) {
  return std::vector<std::string>(begin, end);
}

/// Extracts a command-specific "--name=value" flag from `args` (also
/// accepted without the leading dashes). Returns true and fills `value` if
/// present; the flag is removed so apply_args never sees it.
bool take_flag(std::vector<std::string>& args, const std::string& name,
               std::string& value) {
  for (auto it = args.begin(); it != args.end(); ++it) {
    std::string a = *it;
    if (a.rfind("--", 0) == 0) a.erase(0, 2);
    if (a.rfind(name + "=", 0) == 0) {
      value = a.substr(name.size() + 1);
      args.erase(it);
      return true;
    }
  }
  return false;
}

/// Extracts a bare "--name" boolean flag (also accepted without dashes).
bool take_bool_flag(std::vector<std::string>& args, const std::string& name) {
  for (auto it = args.begin(); it != args.end(); ++it) {
    std::string a = *it;
    if (a.rfind("--", 0) == 0) a.erase(0, 2);
    if (a == name) {
      args.erase(it);
      return true;
    }
  }
  return false;
}

const char* kind_str(api::StreamInfo::Kind k) {
  switch (k) {
    case api::StreamInfo::Kind::field: return "field";
    case api::StreamInfo::Kind::level: return "level";
    case api::StreamInfo::Kind::tiled: return "tiled";
    case api::StreamInfo::Kind::pyramid: return "pyramid";
    case api::StreamInfo::Kind::adaptive: return "adaptive";
    case api::StreamInfo::Kind::progressive: return "progressive";
    default: return "snapshot";
  }
}

/// The adaptive encode's payoff at a glance: bricks and bytes per level.
void print_level_shares(const adaptive::Index& idx, std::size_t stream_bytes) {
  const auto hist = adaptive::level_histogram(idx);
  const auto bytes = adaptive::level_bytes(idx);
  std::printf("%7s %8s %8s %12s %8s\n", "level", "scale", "bricks", "bytes", "share");
  for (std::size_t l = 0; l < hist.size(); ++l) {
    if (hist[l] == 0) continue;
    std::printf("%7zu %7lldx %8zu %12llu %7.1f%%\n", l,
                static_cast<long long>(index_t{1} << l), hist[l],
                static_cast<unsigned long long>(bytes[l]),
                100.0 * static_cast<double>(bytes[l]) /
                    static_cast<double>(stream_bytes));
  }
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  mrcc compress   <in.f32> <nx> <ny> <nz> <out> [codec] [rel_eb] [key=value ...]\n"
      "  mrcc tiled      <in.f32> <nx> <ny> <nz> <out> [codec] [rel_eb] [key=value ...]\n"
      "  mrcc pyramid    <in.f32> <nx> <ny> <nz> <out> [codec] [rel_eb] [key=value ...]\n"
      "  mrcc progressive <in.f32> <nx> <ny> <nz> <out> [codec] [rel_eb] "
      "[key=value ...]\n"
      "  mrcc adaptive   <in.f32> <nx> <ny> <nz> <out> [importance] [rel_eb] "
      "[key=value ...]\n"
      "                  (importance: halo|gradient|roi|file; roi=x0:y0:z0:x1:y1:z1, "
      "coarse_level=N)\n"
      "  mrcc decompress <in> <out.f32> [threads=N (brick containers)]\n"
      "  mrcc snapshot   <in.f32> <nx> <ny> <nz> <out> [roi_fraction] [rel_eb] "
      "[key=value ...]\n"
      "  mrcc restore    <in.snapshot> <out.f32>\n"
      "  mrcc metrics    <orig.raw> <recon.raw>\n"
      "  mrcc region     <in.tiled> <x0> <y0> <z0> <x1> <y1> <z1> [--out=<file.raw>] "
      "[--progressive [--level=L]] [key=value ...]\n"
      "  mrcc lod        <in.mrcp> <x0> <y0> <z0> <x1> <y1> <z1> [--budget=<samples> | "
      "--eb_budget=<err> | --level=<l>] [--out=<file.raw>] [key=value ...]\n"
      "  mrcc info       <in> [--tiles]\n"
      "  mrcc serve      <stream...> [--clients=K] [--reads=N] "
      "[--flight=<out.json>] [--slow_us=N] [key=value ...]\n"
      "  mrcc stats      <stream...> [--reads=N] [key=value ...]\n"
      "  mrcc trace-read <stream> <x0> <y0> <z0> <x1> <y1> <z1> [--level=L] "
      "[key=value ...]\n"
      "  mrcc codecs\n"
      "key=value may also be spelled --key=value (--tile=64 --threads=8).\n"
      "global: --trace=<out.json> enables observability and writes a\n"
      "chrome://tracing / Perfetto trace of the run (any subcommand).\n");
  return 2;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  if (cmd == "codecs") {
    for (const auto& name : registry().names()) {
      const auto* e = registry().find(name);
      std::printf("%-10s %s\n", e->name.c_str(), e->description.c_str());
    }
    return 0;
  }
  if (cmd == "compress" && argc >= 7) {
    const Dim3 dims{parse_ll(argv[3], "nx"), parse_ll(argv[4], "ny"),
                    parse_ll(argv[5], "nz")};
    const FieldF f = io::read_raw_f32(argv[2], dims);
    api::Options opt;
    apply_args(opt, tail_args(argv + 7, argv + argc), "codec", "eb");
    const auto stream = api::compress(f, opt);
    io::write_bytes(stream, argv[6]);
    std::printf("%s: %lld values -> %zu bytes (CR %.1f)\n", opt.codec.c_str(),
                static_cast<long long>(f.size()), stream.size(),
                compression_ratio(f.size(), stream.size()));
    std::printf("options: %s\n", opt.to_string().c_str());
    return 0;
  }
  if (cmd == "tiled" && argc >= 7) {
    const Dim3 dims{parse_ll(argv[3], "nx"), parse_ll(argv[4], "ny"),
                    parse_ll(argv[5], "nz")};
    const FieldF f = io::read_raw_f32(argv[2], dims);
    api::Options opt;
    apply_args(opt, tail_args(argv + 7, argv + argc), "codec", "eb");
    const auto stream = api::compress_tiled(f, opt);
    io::write_bytes(stream, argv[6]);
    const auto meta = api::info(stream);
    std::printf("tiled(%s): %lld values, %s bricks of %lld^3 -> %zu bytes (CR %.1f)\n",
                opt.codec.c_str(), static_cast<long long>(f.size()),
                meta.tile_grid.str().c_str(), static_cast<long long>(meta.brick),
                stream.size(), compression_ratio(f.size(), stream.size()));
    std::printf("options: %s\n", opt.to_string().c_str());
    return 0;
  }
  if (cmd == "pyramid" && argc >= 7) {
    const Dim3 dims{parse_ll(argv[3], "nx"), parse_ll(argv[4], "ny"),
                    parse_ll(argv[5], "nz")};
    const FieldF f = io::read_raw_f32(argv[2], dims);
    api::Options opt;
    apply_args(opt, tail_args(argv + 7, argv + argc), "codec", "eb");
    const auto stream = api::build_pyramid(f, opt);
    io::write_bytes(stream, argv[6]);
    const auto idx = pyramid::read_geometry(stream);
    std::printf("pyramid(%s): %zu levels, brick %lld^3 -> %zu bytes (CR %.1f)\n",
                idx.codec.c_str(), idx.levels.size(), static_cast<long long>(idx.brick),
                stream.size(), compression_ratio(f.size(), stream.size()));
    for (std::size_t l = 0; l < idx.levels.size(); ++l) {
      const auto& e = idx.levels[l];
      std::printf("  level %zu: %-14s %10llu bytes, range [%.5g, %.5g], lod_err %.4g\n",
                  l, e.dims.str().c_str(), static_cast<unsigned long long>(e.length),
                  e.vmin, e.vmax, e.approx_err);
    }
    std::printf("options: %s\n", opt.to_string().c_str());
    return 0;
  }
  if (cmd == "progressive" && argc >= 7) {
    const Dim3 dims{parse_ll(argv[3], "nx"), parse_ll(argv[4], "ny"),
                    parse_ll(argv[5], "nz")};
    const FieldF f = io::read_raw_f32(argv[2], dims);
    api::Options opt;
    apply_args(opt, tail_args(argv + 7, argv + argc), "codec", "eb");
    const auto stream = api::build_progressive(f, opt);
    io::write_bytes(stream, argv[6]);
    const auto idx = progressive::read_geometry(stream);
    std::printf("progressive(%s): %zu levels, brick %lld^3 -> %zu bytes (CR %.1f)\n",
                idx.codec.c_str(), idx.levels.size(),
                static_cast<long long>(idx.brick), stream.size(),
                compression_ratio(f.size(), stream.size()));
    for (std::size_t l = 0; l < idx.levels.size(); ++l) {
      const auto& e = idx.levels[l];
      std::printf("  level %zu: %-14s %10llu bytes, resid_max %.4g, entropy %.2f "
                  "b/sample, cum_eb %.4g, lod_err %.4g%s\n",
                  l, e.dims.str().c_str(), static_cast<unsigned long long>(e.length),
                  e.resid_max, e.resid_entropy, e.cum_err, e.approx_err,
                  l + 1 == idx.levels.size() ? " (coarsest, stored verbatim)" : "");
    }
    std::printf("options: %s\n", opt.to_string().c_str());
    return 0;
  }
  if (cmd == "region" && argc >= 9) {
    const auto stream = io::read_bytes(argv[2]);
    const tiled::Box box{
        {parse_ll(argv[3], "x0"), parse_ll(argv[4], "y0"), parse_ll(argv[5], "z0")},
        {parse_ll(argv[6], "x1"), parse_ll(argv[7], "y1"), parse_ll(argv[8], "z1")}};
    auto args = tail_args(argv + 9, argv + argc);
    std::string out_path;
    const bool have_out = take_flag(args, "out", out_path);
    const bool progressive_read = take_bool_flag(args, "progressive");
    std::string level_s = "0";
    take_flag(args, "level", level_s);
    if (progressive_read) {
      // Coarse-first streaming read of an MRCR stream through an in-process
      // wire server: one `progressive` request, the coarse answer plus one
      // residual refinement frame per level, bytes accounted per frame.
      const int level = static_cast<int>(parse_ll(level_s.c_str(), "level"));
      api::Options opt;
      apply_args(opt, args);
      serve::Server srv(opt.server_config());
      const serve::wire::Transport loopback =
          [&srv](std::span<const std::byte> frame) { return srv.handle_frame(frame); };
      serve::wire::Client client(loopback);
      const serve::wire::OpenInfo info = client.open(stream, argv[2]);
      client.set_trace(0x70726f67ull);  // "prog": stitches the span tree
      const serve::wire::ProgressiveResult res =
          client.read_progressive(info.id, level, box);
      client.set_trace(0);
      srv.wait_idle();
      std::size_t total = 0, first = 0;
      std::printf("%7s %14s %12s %12s\n", "level", "dims", "bytes", "cum_bytes");
      for (const auto& fi : res.frames) {
        total += fi.frame_bytes;
        if (first == 0) first = fi.frame_bytes;
        const Dim3 ext{fi.box.hi.x - fi.box.lo.x, fi.box.hi.y - fi.box.lo.y,
                       fi.box.hi.z - fi.box.lo.z};
        std::printf("%7d %14s %12zu %12zu%s\n", fi.level, ext.str().c_str(),
                    fi.frame_bytes, total,
                    fi.residual ? "" : "  (coarse answer)");
      }
      std::printf("progressive %s: level %d reached, %zu bytes streamed "
                  "(%zu to first answer), status %s\n",
                  res.box.extent().str().c_str(), res.level, total, first,
                  res.complete()          ? "complete"
                  : res.status == serve::wire::ProgressiveResult::Status::truncated
                      ? "truncated"
                      : "frame_error");
      if (!res.complete())
        std::printf("degraded: %s\n", res.error.c_str());
      if (have_out) {
        io::write_raw(res.data, out_path);
        std::printf("wrote %s (self-describing raw: extents + f32 payload)\n",
                    out_path.c_str());
      }
      return res.complete() ? 0 : 1;
    }
    api::Options opt;
    apply_args(opt, args, "threads");
    if (api::info(stream).kind == api::StreamInfo::Kind::progressive) {
      // MRCR without --progressive: plain in-process read at --level
      // (default 0, the finest) — same bytes the streamed read refines to.
      const int level = static_cast<int>(parse_ll(level_s.c_str(), "level"));
      const FieldF data = progressive::read_region(stream, level, box, opt.threads);
      std::printf("region %s: progressive level %d\n", data.dims().str().c_str(),
                  level);
      if (have_out) {
        io::write_raw(data, out_path);
        std::printf("wrote %s (self-describing raw: extents + f32 payload)\n",
                    out_path.c_str());
      }
      return 0;
    }
    const auto rr = tiled::read_region(stream, box, opt.threads);
    std::printf("region %s: decoded %zu of %zu bricks\n", rr.data.dims().str().c_str(),
                rr.tiles_decoded, rr.tiles_total);
    if (have_out) {
      io::write_raw(rr.data, out_path);
      std::printf("wrote %s (self-describing raw: extents + f32 payload)\n",
                  out_path.c_str());
    }
    return 0;
  }
  if (cmd == "lod" && argc >= 9) {
    auto stream = io::read_bytes(argv[2]);
    const tiled::Box box{
        {parse_ll(argv[3], "x0"), parse_ll(argv[4], "y0"), parse_ll(argv[5], "z0")},
        {parse_ll(argv[6], "x1"), parse_ll(argv[7], "y1"), parse_ll(argv[8], "z1")}};
    auto args = tail_args(argv + 9, argv + argc);
    std::string budget_s, eb_budget_s, level_s, out_path;
    const bool have_budget = take_flag(args, "budget", budget_s);
    const bool have_eb_budget = take_flag(args, "eb_budget", eb_budget_s);
    const bool have_level = take_flag(args, "level", level_s);
    const bool have_out = take_flag(args, "out", out_path);
    if (static_cast<int>(have_budget) + static_cast<int>(have_eb_budget) +
            static_cast<int>(have_level) > 1)
      throw ContractError("lod: --budget, --eb_budget and --level are exclusive");
    api::Options opt;
    apply_args(opt, args);

    auto ds = api::open_dataset(std::move(stream), opt);
    int level = 0;
    if (have_level)
      level = static_cast<int>(parse_ll(level_s.c_str(), "level"));
    else if (have_eb_budget)
      level = ds.choose_level(parse_d(eb_budget_s, "eb_budget"));
    else if (have_budget)
      level = ds.choose_level(box, parse_ll(budget_s.c_str(), "budget"));
    // Without a budget or pinned level, serve the finest level.

    const tiled::Box lbox = ds.box_at_level(box, level);
    const FieldF data = ds.read_region(level, lbox);
    const auto st = ds.stats();
    std::printf("lod: level %d of %d (dims %s, lod_err %.4g), box %s -> %lld samples\n",
                level, ds.levels(), ds.dims(level).str().c_str(), ds.level_error(level),
                lbox.extent().str().c_str(), static_cast<long long>(data.size()));
    std::printf("cache: %llu hits, %llu misses, %llu evictions (%.0f%% hit ratio)\n",
                static_cast<unsigned long long>(st.hits),
                static_cast<unsigned long long>(st.misses),
                static_cast<unsigned long long>(st.evictions), 100.0 * st.hit_ratio());
    if (have_out) {
      io::write_raw(data, out_path);
      std::printf("wrote %s (self-describing raw: extents + f32 payload)\n",
                  out_path.c_str());
    }
    return 0;
  }
  if (cmd == "decompress" && argc >= 4) {
    const auto stream = io::read_bytes(argv[2]);
    const auto meta = api::info(stream);
    api::Options opt;
    apply_args(opt, tail_args(argv + 4, argv + argc), "threads");
    const FieldF f = api::decompress(stream, opt.threads);
    write_raw_floats(f, argv[3]);
    std::printf("%s %s stream, %s -> %s\n", kind_str(meta.kind), meta.codec.c_str(),
                f.dims().str().c_str(), argv[3]);
    return 0;
  }
  if (cmd == "adaptive" && argc >= 7) {
    const Dim3 dims{parse_ll(argv[3], "nx"), parse_ll(argv[4], "ny"),
                    parse_ll(argv[5], "nz")};
    const FieldF f = io::read_raw_f32(argv[2], dims);
    api::Options opt;
    apply_args(opt, tail_args(argv + 7, argv + argc), "importance", "eb");
    const auto stream = api::compress_adaptive_roi(f, opt);
    io::write_bytes(stream, argv[6]);
    const auto idx = adaptive::read_index(stream);
    std::printf("adaptive(%s, %s): %lld values, %s bricks of %lld^3 -> %zu bytes "
                "(CR %.1f)\n",
                opt.importance.c_str(), idx.codec.c_str(),
                static_cast<long long>(f.size()), idx.grid.str().c_str(),
                static_cast<long long>(idx.brick), stream.size(),
                compression_ratio(f.size(), stream.size()));
    print_level_shares(idx, stream.size());
    std::printf("options: %s\n", opt.to_string().c_str());
    return 0;
  }
  if (cmd == "snapshot" && argc >= 7) {
    const Dim3 dims{parse_ll(argv[3], "nx"), parse_ll(argv[4], "ny"),
                    parse_ll(argv[5], "nz")};
    const FieldF f = io::read_raw_f32(argv[2], dims);
    api::Options opt;
    apply_args(opt, tail_args(argv + 7, argv + argc), "roi_fraction", "eb");
    const auto snapshot = api::compress_adaptive(f, opt);
    io::write_bytes(snapshot, argv[6]);
    std::printf("adaptive snapshot: %zu bytes (CR %.1f vs uniform)\n", snapshot.size(),
                compression_ratio(f.size(), snapshot.size()));
    std::printf("options: %s\n", opt.to_string().c_str());
    return 0;
  }
  if (cmd == "metrics") {
    // Strict by design: exactly two self-describing .raw operands.
    if (argc != 4) {
      std::fprintf(stderr, "usage: mrcc metrics <orig.raw> <recon.raw>\n");
      return 2;
    }
    const FieldF orig = io::read_raw(argv[2]);
    const FieldF recon = io::read_raw(argv[3]);
    if (orig.dims() != recon.dims())
      throw ContractError("metrics: extents differ (" + orig.dims().str() + " vs " +
                          recon.dims().str() + ")");
    const auto st = metrics::error_stats(orig, recon);
    std::printf("dims %s, value range %.6g\n", orig.dims().str().c_str(),
                st.value_range);
    std::printf("psnr        %10.3f dB\n", st.psnr);
    std::printf("rmse        %10.6g\n", st.rmse);
    std::printf("max_abs_err %10.6g\n", st.max_abs_err);
    std::printf("ssim        %10.6f\n", metrics::ssim(orig, recon));
    std::printf("ssim_slice  %10.6f\n", metrics::ssim_central_slice(orig, recon));
    return 0;
  }
  if (cmd == "serve" && argc >= 3) {
    auto args = tail_args(argv + 2, argv + argc);
    std::string clients_s = "4", reads_s = "32";
    take_flag(args, "clients", clients_s);
    take_flag(args, "reads", reads_s);
    std::string flight_path, slow_us_s;
    const bool have_flight = take_flag(args, "flight", flight_path);
    if (take_flag(args, "slow_us", slow_us_s))
      obs::FlightRecorder::global().set_slow_threshold_us(
          static_cast<std::uint64_t>(parse_ll(slow_us_s.c_str(), "slow_us")));
    // Operands without '=' are stream paths; the rest are Options knobs.
    std::vector<std::string> paths, knobs;
    for (const std::string& a : args)
      (a.find('=') == std::string::npos ? paths : knobs).push_back(a);
    if (paths.empty()) throw ContractError("serve: need at least one stream");
    const int clients = static_cast<int>(parse_ll(clients_s.c_str(), "clients"));
    const int reads = static_cast<int>(parse_ll(reads_s.c_str(), "reads"));
    MRC_REQUIRE(clients >= 1 && reads >= 1, "serve: clients and reads must be >= 1");
    api::Options opt;
    apply_args(opt, knobs);

    serve::Server srv(opt.server_config());
    const serve::wire::Transport loopback =
        [&srv](std::span<const std::byte> frame) { return srv.handle_frame(frame); };
    serve::wire::Client admin(loopback);
    std::vector<serve::wire::OpenInfo> open;
    open.reserve(paths.size());
    for (const std::string& p : paths) {
      open.push_back(admin.open(io::read_bytes(p), p));
      std::printf("opened #%u %s: %d level(s), dims %s, eb %.4g\n", open.back().id,
                  p.c_str(), open.back().levels, open.back().dims.str().c_str(),
                  open.back().eb);
    }

    // K simulated clients, each walking random finest-level viewports over
    // random datasets through the wire protocol (overloads are retried).
    // Every read ships a distinct trace id — (client+1) in the high word,
    // read number in the low — so the flight recorder and any --trace dump
    // attribute each request unambiguously.
    std::atomic<bool> failed{false};
    std::mutex err_mu;
    std::string err_what;
    std::vector<std::thread> crew;
    crew.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      crew.emplace_back([&, c] {
        serve::wire::Client client(loopback);
        Rng rng(0x5eedull + static_cast<std::uint64_t>(c));
        for (int r = 0; r < reads && !failed.load(std::memory_order_relaxed);
             ++r) {
          const auto& ds = open[rng.uniform_index(open.size())];
          const Dim3 d = ds.dims;
          const index_t w = std::min<index_t>({16, d.nx, d.ny, d.nz});
          const index_t x0 = static_cast<index_t>(rng.uniform() * double(d.nx - w));
          const index_t y0 = static_cast<index_t>(rng.uniform() * double(d.ny - w));
          const index_t z0 = static_cast<index_t>(rng.uniform() * double(d.nz - w));
          client.set_trace(((static_cast<std::uint64_t>(c) + 1) << 32) |
                           (static_cast<std::uint64_t>(r) + 1));
          for (;;) {
            try {
              (void)client.region(ds.id, 0,
                                  {{x0, y0, z0}, {x0 + w, y0 + w, z0 + w}});
              break;
            } catch (const serve::ServerError& e) {
              if (e.code() == serve::ServerError::Code::overloaded) {
                std::this_thread::yield();
                continue;
              }
              // Unexpected error reply: stop the whole crew so the flight
              // recorder is dumped with the failure still in its ring.
              const std::lock_guard lock(err_mu);
              if (!failed.exchange(true)) err_what = e.what();
              return;
            }
          }
        }
      });
    }
    for (auto& t : crew) t.join();
    srv.wait_idle();

    if (have_flight) {
      obs::write_flight_json(flight_path);
      const auto fs = obs::FlightRecorder::global().stats();
      std::printf("flight: wrote %s (%llu recorded, %llu dropped)\n",
                  flight_path.c_str(),
                  static_cast<unsigned long long>(fs.recorded),
                  static_cast<unsigned long long>(fs.dropped));
    }
    if (failed.load()) {
      std::fprintf(stderr, "serve: wire error: %s\n", err_what.c_str());
      return 1;
    }

    std::printf("%4s %-20s %10s %8s %10s %10s\n", "id", "stream", "lookups",
                "hit%", "bricks", "bytes");
    for (const auto& ds : open) {
      const serve::ServerStats s = admin.stats(ds.id);
      std::printf("%4u %-20s %10llu %7.1f%% %10zu %10zu\n", ds.id,
                  paths[static_cast<std::size_t>(&ds - open.data())].c_str(),
                  static_cast<unsigned long long>(s.cache.lookups),
                  100.0 * s.cache.hit_ratio(), s.cache.entries, s.cache.bytes);
    }
    const serve::ServerStats s = admin.stats();
    std::printf("server: %llu requests (%llu shed), hit ratio %.1f%%, "
                "%zu/%zu cache bytes, queue %llu high + %llu low, "
                "p50 %llu us, p99 %llu us\n",
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.rejected),
                100.0 * s.cache.hit_ratio(), s.cache.bytes,
                static_cast<std::size_t>(opt.server_config().cache_bytes),
                static_cast<unsigned long long>(s.queue_high),
                static_cast<unsigned long long>(s.queue_low),
                static_cast<unsigned long long>(s.p50_us),
                static_cast<unsigned long long>(s.p99_us));
    return 0;
  }
  if (cmd == "stats" && argc >= 3) {
    // Opens streams in an in-process Server, drives a few wire reads, then
    // fetches the observability registry over the wire (metrics frame) and
    // reconciles its counters against the server's own stats slices.
    auto args = tail_args(argv + 2, argv + argc);
    std::string reads_s = "16";
    take_flag(args, "reads", reads_s);
    std::vector<std::string> paths, knobs;
    for (const std::string& a : args)
      (a.find('=') == std::string::npos ? paths : knobs).push_back(a);
    if (paths.empty()) throw ContractError("stats: need at least one stream");
    const int reads = static_cast<int>(parse_ll(reads_s.c_str(), "reads"));
    MRC_REQUIRE(reads >= 0, "stats: reads must be >= 0");
    api::Options opt;
    apply_args(opt, knobs);
    obs::set_enabled(true);  // so latency histograms show up in the exposition

    serve::Server srv(opt.server_config());
    const serve::wire::Transport loopback =
        [&srv](std::span<const std::byte> frame) { return srv.handle_frame(frame); };
    serve::wire::Client admin(loopback);
    std::vector<serve::wire::OpenInfo> open;
    open.reserve(paths.size());
    for (const std::string& p : paths) open.push_back(admin.open(io::read_bytes(p), p));

    Rng rng(0x5eed);
    for (const auto& ds : open)
      for (int r = 0; r < reads; ++r) {
        const Dim3 d = ds.dims;
        const index_t w = std::min<index_t>({16, d.nx, d.ny, d.nz});
        const index_t x0 = static_cast<index_t>(rng.uniform() * double(d.nx - w));
        const index_t y0 = static_cast<index_t>(rng.uniform() * double(d.ny - w));
        const index_t z0 = static_cast<index_t>(rng.uniform() * double(d.nz - w));
        for (;;) {
          try {
            (void)admin.region(ds.id, 0, {{x0, y0, z0}, {x0 + w, y0 + w, z0 + w}});
            break;
          } catch (const serve::ServerError& e) {
            if (e.code() != serve::ServerError::Code::overloaded) throw;
            std::this_thread::yield();
          }
        }
      }
    srv.wait_idle();

    const std::string text = admin.metrics();
    std::printf("%s", text.c_str());

    // Reconciliation: the registry's event counters must agree exactly with
    // the server's stats frames — global, and per-dataset summed over slices.
    auto metric = [&text](const char* name) -> long long {
      const std::string key = std::string(name) + " ";
      std::size_t pos = text.find(key);
      while (pos != std::string::npos && pos != 0 && text[pos - 1] != '\n')
        pos = text.find(key, pos + 1);
      MRC_REQUIRE(pos != std::string::npos,
                  "stats: metric missing from exposition");
      const std::size_t v0 = pos + key.size();
      const std::size_t v1 = text.find('\n', v0);
      return parse_ll(text.substr(v0, v1 - v0).c_str(), name);
    };
    const serve::ServerStats all = admin.stats();
    serve::CacheStats sum;
    for (const auto& ds : open) {
      const serve::ServerStats s = admin.stats(ds.id);
      sum.lookups += s.cache.lookups;
      sum.hits += s.cache.hits;
      sum.misses += s.cache.misses;
      sum.evictions += s.cache.evictions;
      sum.prefetched += s.cache.prefetched;
    }
    struct Row {
      const char* name;
      long long registry, server, slices;
    };
    const Row rows[] = {
        {"mrc_cache_lookups", metric("mrc_cache_lookups"),
         static_cast<long long>(all.cache.lookups), static_cast<long long>(sum.lookups)},
        {"mrc_cache_hits", metric("mrc_cache_hits"),
         static_cast<long long>(all.cache.hits), static_cast<long long>(sum.hits)},
        {"mrc_cache_misses", metric("mrc_cache_misses"),
         static_cast<long long>(all.cache.misses), static_cast<long long>(sum.misses)},
        {"mrc_cache_evictions", metric("mrc_cache_evictions"),
         static_cast<long long>(all.cache.evictions),
         static_cast<long long>(sum.evictions)},
        {"mrc_cache_prefetched", metric("mrc_cache_prefetched"),
         static_cast<long long>(all.cache.prefetched),
         static_cast<long long>(sum.prefetched)},
        {"mrc_serve_requests", metric("mrc_serve_requests"),
         static_cast<long long>(all.requests), static_cast<long long>(all.requests)},
        {"mrc_serve_rejected", metric("mrc_serve_rejected"),
         static_cast<long long>(all.rejected), static_cast<long long>(all.rejected)},
    };
    bool ok = true;
    std::printf("\n%-22s %12s %12s %12s\n", "reconciliation", "registry", "server",
                "slices");
    for (const Row& r : rows) {
      const bool match = r.registry == r.server && r.server == r.slices;
      ok = ok && match;
      std::printf("%-22s %12lld %12lld %12lld  %s\n", r.name, r.registry, r.server,
                  r.slices, match ? "ok" : "MISMATCH");
    }
    MRC_REQUIRE(ok, "stats: registry counters disagree with server stats");
    return 0;
  }
  if (cmd == "trace-read" && argc >= 9) {
    // One traced region read through an in-process wire server, stitched
    // tree printed: the CLI-sized demo of the request-tracing pipeline.
    auto stream = io::read_bytes(argv[2]);
    const tiled::Box box{
        {parse_ll(argv[3], "x0"), parse_ll(argv[4], "y0"), parse_ll(argv[5], "z0")},
        {parse_ll(argv[6], "x1"), parse_ll(argv[7], "y1"), parse_ll(argv[8], "z1")}};
    auto args = tail_args(argv + 9, argv + argc);
    std::string level_s = "0";
    take_flag(args, "level", level_s);
    const int level = static_cast<int>(parse_ll(level_s.c_str(), "level"));
    api::Options opt;
    apply_args(opt, args);
    obs::set_enabled(true);  // spans must be on for there to be a tree

    serve::Server srv(opt.server_config());
    const serve::wire::Transport loopback =
        [&srv](std::span<const std::byte> frame) { return srv.handle_frame(frame); };
    serve::wire::Client client(loopback);
    const serve::wire::OpenInfo info = client.open(stream, argv[2]);

    const std::uint64_t id = 0x7472'6163'6531ull;  // any nonzero id works
    client.set_trace(id);
    const FieldF data = client.region(info.id, level, box);
    client.set_trace(0);
    srv.wait_idle();

    std::printf("trace-read: %s level %d, box %s -> %lld samples, trace %016llx\n",
                argv[2], level, box.extent().str().c_str(),
                static_cast<long long>(data.size()),
                static_cast<unsigned long long>(id));
    std::printf("%s", obs::span_tree_text(id).c_str());
    return 0;
  }
  if (cmd == "restore" && argc == 4) {
    const FieldF f = api::restore(io::read_bytes(argv[2]));
    write_raw_floats(f, argv[3]);
    std::printf("restored uniform grid %s -> %s\n", f.dims().str().c_str(), argv[3]);
    return 0;
  }
  if (cmd == "info" && (argc == 3 || (argc == 4 && std::string(argv[3]) == "--tiles"))) {
    const auto stream = io::read_bytes(argv[2]);
    const auto meta = api::info(stream);
    std::printf("%s stream v%u, codec %s, dims %s, eb %.4g, %zu bytes (CR %.1f)",
                kind_str(meta.kind), meta.version, meta.codec.c_str(),
                meta.dims.str().c_str(), meta.eb, meta.stream_bytes,
                compression_ratio(meta.dims.size(), meta.stream_bytes));
    if (meta.kind == api::StreamInfo::Kind::snapshot)
      std::printf(", %zu levels", meta.levels);
    if (meta.kind == api::StreamInfo::Kind::tiled)
      std::printf(", %zu bricks (%s grid of %lld^3 +%lld overlap)", meta.tiles,
                  meta.tile_grid.str().c_str(), static_cast<long long>(meta.brick),
                  static_cast<long long>(meta.overlap));
    if (meta.kind == api::StreamInfo::Kind::adaptive)
      std::printf(", %zu bricks (%s grid of %lld^3, levels 0..%zu)", meta.tiles,
                  meta.tile_grid.str().c_str(), static_cast<long long>(meta.brick),
                  meta.levels - 1);
    if (meta.kind == api::StreamInfo::Kind::pyramid ||
        meta.kind == api::StreamInfo::Kind::progressive)
      std::printf(", %zu levels (brick %lld^3)", meta.levels,
                  static_cast<long long>(meta.brick));
    // Entropy-layout minor version: v7 headers carry the shard count each
    // Huffman code stream was split into; everything older is monolithic.
    if (meta.entropy_shards > 1)
      std::printf(", entropy layout sharded (%u shards)", meta.entropy_shards);
    else
      std::printf(", entropy layout monolithic");
    std::printf("\n");
    if (meta.kind == api::StreamInfo::Kind::pyramid ||
        meta.kind == api::StreamInfo::Kind::progressive) {
      // The full level table — value ranges and LOD error bounds make
      // choose_level / adaptive decisions inspectable from the CLI.
      std::printf("%6s %14s %12s %12s %12s %10s\n", "level", "dims", "bytes", "min",
                  "max", "lod_err");
      for (std::size_t l = 0; l < meta.level_meta.size(); ++l) {
        const auto& e = meta.level_meta[l];
        std::printf("%6zu %14s %12llu %12.5g %12.5g %10.4g\n", l, e.dims.str().c_str(),
                    static_cast<unsigned long long>(e.bytes), e.vmin, e.vmax,
                    e.approx_err);
      }
    }
    if (meta.kind == api::StreamInfo::Kind::adaptive) {
      const auto idx = adaptive::read_index(stream);
      print_level_shares(idx, meta.stream_bytes);
      if (argc == 4) {
        std::printf("%6s %5s %22s %14s %10s %12s %12s %10s\n", "brick", "level",
                    "origin", "stored", "bytes", "min", "max", "lod_err");
        for (std::size_t t = 0; t < idx.bricks.size(); ++t) {
          const auto& e = idx.bricks[t];
          std::printf("%6zu %5d %8lld,%5lld,%5lld %14s %10llu %12.5g %12.5g %10.4g\n",
                      t, e.level, static_cast<long long>(e.origin.x),
                      static_cast<long long>(e.origin.y),
                      static_cast<long long>(e.origin.z), e.stored.str().c_str(),
                      static_cast<unsigned long long>(e.length), e.vmin, e.vmax,
                      e.approx_err);
        }
      }
    }
    if (argc == 4 && meta.kind == api::StreamInfo::Kind::tiled) {
      const auto idx = tiled::read_index(stream);
      std::printf("%6s %22s %14s %10s %12s %12s\n", "tile", "origin", "stored", "bytes",
                  "min", "max");
      for (std::size_t t = 0; t < idx.tiles.size(); ++t) {
        const auto& e = idx.tiles[t];
        std::printf("%6zu %8lld,%5lld,%5lld %14s %10llu %12.5g %12.5g\n", t,
                    static_cast<long long>(e.origin.x), static_cast<long long>(e.origin.y),
                    static_cast<long long>(e.origin.z), e.stored.str().c_str(),
                    static_cast<unsigned long long>(e.length), e.vmin, e.vmax);
      }
    }
    return 0;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
 try {
  // --trace=<path> is global: accepted anywhere on the command line, for any
  // subcommand. It flips the observability runtime switch on so spans are
  // recorded, and writes a chrome://tracing / Perfetto JSON on the way out.
  std::string trace_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i] ? argv[i] : "";
    if (i >= 1 && a.rfind("--trace=", 0) == 0) {
      trace_path = a.substr(8);
      MRC_REQUIRE(!trace_path.empty(), "--trace= needs an output path");
      continue;
    }
    args.push_back(argv[i]);
  }
  if (!trace_path.empty()) mrc::obs::set_enabled(true);
  const int rc = run(static_cast<int>(args.size()), args.data());
  if (!trace_path.empty()) {
    mrc::obs::write_trace_json(trace_path);
    const auto ts = mrc::obs::trace_stats();
    std::printf("trace: wrote %s (%llu spans, %llu dropped)\n", trace_path.c_str(),
                static_cast<unsigned long long>(ts.recorded),
                static_cast<unsigned long long>(ts.dropped));
  }
  return rc;
 } catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
 }
}
