// bench_server_load — the multi-tenant serve::Server under concurrent wire
// traffic: one Server holding a pyramid (MRCP) and a tiled (MRCT) dataset
// behind one shared brick cache, K simulated clients each replaying a trace
// of region reads through the wire protocol over the in-process loopback
// transport. Traces:
//
//   viewport-walk  each client pans a brick-sized viewport along x in
//                  half-window steps, alternating datasets — consecutive
//                  reads overlap heavily, the workload the shared cache
//                  exists for
//   random         uniformly random brick-sized windows over a random
//                  dataset (seeded per client, repeatable) — the cold,
//                  cache-hostile baseline
//
// Every row gets a fresh Server (no warm state leaks between rows).
// Results land in BENCH_server_load.json with rows of exactly
// {clients, trace, p50_us, p99_us, hit_ratio}; the acceptance gates are
// p50 <= p99 on every row and a viewport-walk hit ratio strictly above
// the random trace's at the same client count.

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/mrc_api.h"
#include "bench_util.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "serve/server.h"
#include "serve/wire.h"

using namespace mrc;

namespace {

struct Row {
  int clients = 0;
  std::string trace;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  double hit_ratio = 0.0;
};

struct Req {
  std::uint32_t ds = 0;
  tiled::Box box;
};

/// One client's request sequence. viewport-walk pans a w-edge window along
/// the y=z=0 brick row (staggered by client so clients share, not clone,
/// the working set); random scatters windows over the whole domain.
std::vector<Req> make_trace(const std::string& trace,
                            std::span<const serve::wire::OpenInfo> open, int reads,
                            std::uint64_t client) {
  std::vector<Req> reqs;
  reqs.reserve(static_cast<std::size_t>(reads));
  Rng rng(0xbe9c'0000 + client);
  for (int r = 0; r < reads; ++r) {
    const auto& ds = trace == "random"
                         ? open[rng.uniform_index(open.size())]
                         : open[(client + static_cast<std::uint64_t>(r)) % open.size()];
    const Dim3 d = ds.dims;
    const index_t w = std::min({index_t{16}, d.nx, d.ny, d.nz});
    index_t x0 = 0, y0 = 0, z0 = 0;
    if (trace == "random") {
      x0 = static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(d.nx - w + 1)));
      y0 = static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(d.ny - w + 1)));
      z0 = static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(d.nz - w + 1)));
    } else {
      const index_t step = std::max<index_t>(1, w / 2);
      const index_t span = d.nx - w;
      if (span > 0)
        x0 = (static_cast<index_t>(client) * step * 2 +
              static_cast<index_t>(r) * step) % (span + 1);
    }
    reqs.push_back({ds.id, {{x0, y0, z0}, {x0 + w, y0 + w, z0 + w}}});
  }
  return reqs;
}

}  // namespace

int main() {
  const Dim3 dims = scaled({128, 128, 128});
  bench::print_title("multi-tenant server under concurrent wire load",
                     "new subsystem (no paper figure)",
                     "pyramid + tiled Nyx-like datasets, K wire clients");

  const FieldF f = sim::nyx_density(dims, /*seed=*/11);
  api::Options opt = api::Options::parse("codec=interp,eb=1e-3,tile=16,threads=0");
  const Bytes pyr = api::build_pyramid(f, opt);
  const Bytes til = api::compress_tiled(f, opt);
  std::printf("datasets: %s pyramid (%zu bytes) + tiled (%zu bytes)\n",
              dims.str().c_str(), pyr.size(), til.size());

  serve::ServerConfig scfg = opt.server_config();
  scfg.prefetch = false;  // demand traffic only: hit ratios mirror the traces
  // A deliberately tight budget (~8 decoded bricks across both datasets):
  // the walk's overlapping working set stays resident, random scatter
  // spanning every brick of both datasets has to thrash.
  const index_t edge = opt.tile + 1;  // stored bricks carry the +1 overlap
  scfg.cache_bytes =
      8 * static_cast<std::size_t>(edge * edge * edge) * sizeof(float);

  const int kReads = 48;
  std::vector<Row> rows;
  std::printf("%8s %14s %10s %10s %10s %10s\n", "clients", "trace", "reads",
              "p50 us", "p99 us", "hit%");
  for (const int clients : {2, 8}) {
    for (const char* trace : {"viewport-walk", "random"}) {
      serve::Server srv(scfg);  // fresh per row: no warm state leaks across
      const serve::wire::Transport loopback =
          [&srv](std::span<const std::byte> frame) { return srv.handle_frame(frame); };
      serve::wire::Client admin(loopback);
      const std::vector<serve::wire::OpenInfo> open{admin.open(pyr, "pyr"),
                                                    admin.open(til, "til")};

      std::vector<std::thread> crew;
      crew.reserve(static_cast<std::size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        crew.emplace_back([&, c] {
          serve::wire::Client client(loopback);
          for (const Req& q :
               make_trace(trace, open, kReads, static_cast<std::uint64_t>(c)))
            (void)client.region(q.ds, 0, q.box);
        });
      }
      for (auto& t : crew) t.join();
      srv.wait_idle();

      const serve::ServerStats s = admin.stats();
      MRC_REQUIRE(s.requests == static_cast<std::uint64_t>(clients) * kReads,
                  "server lost region requests");
      MRC_REQUIRE(s.p50_us <= s.p99_us, "latency quantiles must be monotone");

      Row row;
      row.clients = clients;
      row.trace = trace;
      row.p50_us = s.p50_us;
      row.p99_us = s.p99_us;
      row.hit_ratio = s.cache.hit_ratio();
      rows.push_back(row);
      std::printf("%8d %14s %10d %10llu %10llu %9.1f%%\n", clients, trace,
                  clients * kReads, static_cast<unsigned long long>(s.p50_us),
                  static_cast<unsigned long long>(s.p99_us), 100.0 * row.hit_ratio);
    }
  }

  // The whole point of the shared cache: an overlapping viewport walk must
  // serve warmer than cache-hostile random scatter at every client count.
  for (std::size_t i = 0; i + 1 < rows.size(); i += 2)
    MRC_REQUIRE(rows[i].hit_ratio > rows[i + 1].hit_ratio,
                "viewport-walk must out-hit the random trace");

  FILE* json = std::fopen("BENCH_server_load.json", "w");
  MRC_REQUIRE(json != nullptr, "cannot write BENCH_server_load.json");
  std::fprintf(json, "{\n  \"bench\": \"server_load\",\n  \"dims\": \"%s\",\n",
               dims.str().c_str());
  std::fprintf(json, "  \"hardware_threads\": %d,\n", exec::hardware_threads());
  std::fprintf(json, "  \"datasets\": 2,\n  \"reads_per_client\": %d,\n", kReads);
  std::fprintf(json, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(json,
                 "    {\"clients\": %d, \"trace\": \"%s\", \"p50_us\": %llu, "
                 "\"p99_us\": %llu, \"hit_ratio\": %.4f}%s\n",
                 r.clients, r.trace.c_str(),
                 static_cast<unsigned long long>(r.p50_us),
                 static_cast<unsigned long long>(r.p99_us), r.hit_ratio,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_server_load.json (%zu rows)\n", rows.size());
  return 0;
}
