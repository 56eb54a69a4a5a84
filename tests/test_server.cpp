// serve::Server — multi-tenant serving through one global cache: bit-exact
// region replies over the wire protocol under many concurrent clients and
// datasets, global-budget eviction fairness (hot steals from cold), the
// admission gate's explicit overload shedding, stats reconciliation
// (hits + misses == lookups in any snapshot; p50 <= p99), and the wire
// codec's hostile-input behavior (truncations, oversize length/extent
// claims rejected before any allocation, exhaustive header bit flips).
// ci.sh reruns Server*/Wire* under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "api/mrc_api.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "pyramid/pyramid.h"
#include "serve/brick_cache.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "test_util.h"

namespace mrc {
namespace {

using serve::Server;
using serve::ServerConfig;
using serve::ServerError;
using serve::ServerStats;
using tiled::Box;
namespace wire = serve::wire;

/// 40^3 zfpx pyramid, brick 8 -> levels 40^3 (125 bricks), 20^3, 10^3, 5^3.
Bytes pyramid_stream(double eb = 0.05) {
  const FieldF f = test::smooth_field({40, 40, 40});
  pyramid::Config cfg;
  cfg.codec = "zfpx";
  cfg.brick = 8;
  cfg.threads = 2;
  return pyramid::build(f, eb, cfg);
}

/// 24^3 zfpx tiled stream, brick 8 -> 27 bricks.
Bytes tiled_stream() {
  api::Options opt;
  opt.codec = "zfpx";
  opt.tile = 8;
  opt.threads = 2;
  return api::compress_tiled(test::smooth_field({24, 24, 24}, 50.0), opt);
}

ServerConfig quiet(std::size_t cache_bytes = 256ull << 20, int threads = 2) {
  ServerConfig cfg;
  cfg.cache_bytes = cache_bytes;
  cfg.threads = threads;
  cfg.prefetch = false;  // deterministic counters unless a test wants warming
  return cfg;
}

/// The in-repo mock transport: a request frame goes straight into
/// Server::handle_frame and the reply comes straight back.
wire::Transport loopback(Server& srv) {
  return [&srv](std::span<const std::byte> frame) { return srv.handle_frame(frame); };
}

// ---------------------------------------------------------------------------
// Wire round trip: open / region / lod / stats / close against one server.
// ---------------------------------------------------------------------------

TEST(Server, WireRoundTripServesEveryFrameType) {
  const Bytes pstream = pyramid_stream();
  Server srv(quiet());
  wire::Client client(loopback(srv));

  const wire::OpenInfo info = client.open(pstream, "halo_run_42");
  EXPECT_EQ(info.levels, 4);
  EXPECT_EQ(info.dims, (Dim3{40, 40, 40}));
  EXPECT_DOUBLE_EQ(info.eb, 0.05);
  ASSERT_EQ(srv.list().size(), 1u);
  EXPECT_EQ(srv.list()[0].second, "halo_run_42");

  // Region replies are bit-identical to direct container reads, cold + warm.
  for (const Box box : {Box{{0, 0, 0}, {10, 10, 10}}, Box{{3, 0, 5}, {20, 17, 9}}}) {
    const FieldF direct = pyramid::read_region(pstream, 0, box, 1).data;
    EXPECT_EQ(client.region(info.id, 0, box), direct);
    EXPECT_EQ(client.region(info.id, 0, box), direct);  // from cache now
  }

  // choose_level over the wire matches the in-process API.
  const Box view{{0, 0, 0}, {40, 40, 40}};
  EXPECT_EQ(client.choose_level(info.id, view, 8000),
            srv.choose_level(info.id, view, 8000));

  const ServerStats st = client.stats();
  EXPECT_EQ(st.datasets, 1u);
  EXPECT_EQ(st.cache.lookups, st.cache.hits + st.cache.misses);
  EXPECT_GT(st.cache.hits, 0u);      // the warm rereads
  EXPECT_GE(st.requests, 4u);        // four admitted region reads
  EXPECT_LE(st.p50_us, st.p99_us);
  const ServerStats one = client.stats(info.id);
  EXPECT_EQ(one.cache.lookups, st.cache.lookups);  // only dataset == global

  client.close(info.id);
  EXPECT_TRUE(srv.list().empty());
  try {
    (void)client.region(info.id, 0, view);
    FAIL() << "read of a closed dataset must fail";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ServerError::Code::unknown_dataset);  // over the wire
  }
}

TEST(Server, OpensAllThreeContainerKindsAndRejectsForeignBytes) {
  Server srv(quiet());
  wire::Client client(loopback(srv));
  const FieldF f = test::smooth_field({16, 16, 16});

  api::Options aopt;
  aopt.tile = 8;
  const Bytes astream = api::compress_adaptive_roi(f, aopt);
  const wire::OpenInfo adaptive = client.open(astream);
  EXPECT_EQ(adaptive.levels, 1);
  const Box all = tiled::full_box(f.dims());
  EXPECT_EQ(client.region(adaptive.id, 0, all),
            adaptive::read_region(astream, all).data);

  const wire::OpenInfo tiled_info = client.open(tiled_stream());
  EXPECT_EQ(tiled_info.levels, 1);
  EXPECT_EQ(tiled_info.dims, (Dim3{24, 24, 24}));

  const wire::OpenInfo pyr = client.open(pyramid_stream());
  EXPECT_EQ(pyr.levels, 4);
  EXPECT_EQ(srv.list().size(), 3u);

  // A plain codec stream is not a servable container: error frame, not a
  // dead server.
  try {
    (void)client.open(api::compress(f));
    FAIL() << "plain codec streams must be rejected";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ServerError::Code::bad_request);
  }
  EXPECT_EQ(srv.list().size(), 3u);  // registry untouched by the failure
}

// ---------------------------------------------------------------------------
// Concurrency: many clients, many datasets, one global cache.
// ---------------------------------------------------------------------------

TEST(Server, EightClientsTwoDatasetsStayBitExactAndReconcile) {
  const Bytes pstream = pyramid_stream();
  const Bytes tstream = tiled_stream();
  // Budget small enough that the two datasets contend for it.
  constexpr std::size_t kBudget = 96u << 10;
  Server srv(quiet(kBudget, /*threads=*/4));

  wire::Client opener(loopback(srv));
  const std::uint32_t pid = opener.open(pstream, "pyramid").id;
  const std::uint32_t tid = opener.open(tstream, "tiled").id;

  const FieldF pfull = pyramid::decompress_level(pstream, 0, 2);
  const FieldF tfull = tiled::decompress(tstream, 2);

  constexpr int kClients = 8;
  constexpr int kReads = 20;
  std::atomic<int> mismatches{0};
  std::atomic<bool> sampling{true};
  std::atomic<int> bad_snapshots{0};

  // A stats sampler races every read: the cache counters must reconcile and
  // the residency bytes must respect the global budget in EVERY snapshot.
  std::thread sampler([&] {
    while (sampling.load(std::memory_order_relaxed)) {
      const ServerStats snap = srv.stats();
      if (snap.cache.hits + snap.cache.misses != snap.cache.lookups ||
          snap.cache.bytes > kBudget || snap.p50_us > snap.p99_us)
        bad_snapshots.fetch_add(1);
    }
  });

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      wire::Client client(loopback(srv));  // one client per "connection"
      Rng rng(77u + static_cast<std::uint64_t>(c));
      for (int r = 0; r < kReads; ++r) {
        const bool use_pyramid = (c + r) % 2 == 0;
        const FieldF& full = use_pyramid ? pfull : tfull;
        const index_t n = full.dims().nx;
        const index_t x0 = static_cast<index_t>(rng.uniform() * double(n - 8));
        const index_t y0 = static_cast<index_t>(rng.uniform() * double(n - 8));
        const index_t z0 = static_cast<index_t>(rng.uniform() * double(n - 8));
        const Box box{{x0, y0, z0}, {x0 + 8, y0 + 8, z0 + 8}};
        const FieldF got = client.region(use_pyramid ? pid : tid, 0, box);
        for (index_t z = 0; z < 8 && mismatches.load() == 0; ++z)
          for (index_t y = 0; y < 8; ++y)
            for (index_t x = 0; x < 8; ++x)
              if (got.at(x, y, z) != full.at(x0 + x, y0 + y, z0 + z)) {
                mismatches.fetch_add(1);
                return;
              }
      }
    });
  }
  for (auto& t : clients) t.join();
  sampling.store(false, std::memory_order_relaxed);
  sampler.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(bad_snapshots.load(), 0);

  const ServerStats st = srv.stats();
  EXPECT_EQ(st.cache.hits + st.cache.misses, st.cache.lookups);
  EXPECT_LE(st.cache.bytes, kBudget);
  EXPECT_EQ(st.requests, static_cast<std::uint64_t>(kClients) * kReads);
  EXPECT_EQ(st.rejected, 0u);  // default admission cap far above 8 clients
  EXPECT_LE(st.p50_us, st.p99_us);
  // Per-dataset slices partition the global counters exactly.
  const ServerStats sp = srv.stats(pid);
  const ServerStats stt = srv.stats(tid);
  EXPECT_EQ(sp.cache.lookups + stt.cache.lookups, st.cache.lookups);
  EXPECT_EQ(sp.cache.hits + sp.cache.misses, sp.cache.lookups);
  EXPECT_EQ(stt.cache.hits + stt.cache.misses, stt.cache.lookups);
  EXPECT_EQ(sp.cache.bytes + stt.cache.bytes, st.cache.bytes);
}

TEST(Server, AdmissionGateShedsLoadWithExplicitOverload) {
  ServerConfig cfg = quiet(256u << 10, /*threads=*/2);
  cfg.max_active = 1;  // everything beyond one in-flight read is shed
  Server srv(cfg);
  wire::Client opener(loopback(srv));
  const Bytes pstream = pyramid_stream();
  const std::uint32_t id = opener.open(pstream).id;
  const FieldF full = pyramid::decompress_level(pstream, 0, 2);

  constexpr int kClients = 8;
  constexpr int kReads = 40;
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<int> mismatches{0};
  // Every client starts reading at once: a client that finished its reads
  // before the next one started would never collide.
  std::atomic<int> ready{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      wire::Client client(loopback(srv));
      Rng rng(9000u + static_cast<std::uint64_t>(c));
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      for (int r = 0; r < kReads; ++r) {
        const index_t x0 = static_cast<index_t>(rng.uniform() * 32);
        const Box box{{x0, 0, 0}, {x0 + 8, 8, 8}};
        for (;;) {  // overload is explicit and retryable, never silent
          try {
            const FieldF got = client.region(id, 0, box);
            if (got.at(1, 2, 3) != full.at(x0 + 1, 2, 3)) mismatches.fetch_add(1);
            served.fetch_add(1);
            break;
          } catch (const ServerError& e) {
            ASSERT_EQ(e.code(), ServerError::Code::overloaded);
            shed.fetch_add(1);
            std::this_thread::yield();
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(served.load(), static_cast<std::uint64_t>(kClients) * kReads);
  // 8 clients against a cap of 1: collisions are effectively certain.
  EXPECT_GT(shed.load(), 0u);
  const ServerStats st = srv.stats();
  EXPECT_EQ(st.requests, served.load());
  EXPECT_EQ(st.rejected, shed.load());
  EXPECT_EQ(st.active, 0u);
}

// ---------------------------------------------------------------------------
// Global budget: a hot dataset steals residency from a cold one.
// ---------------------------------------------------------------------------

TEST(Server, HotDatasetEvictsColdUnderOneGlobalBudget) {
  // ~64 KiB holds ~20 decoded 9^3 bricks — far fewer than the two datasets'
  // combined 152, so they must compete.
  constexpr std::size_t kBudget = 64u << 10;
  Server srv(quiet(kBudget, /*threads=*/2));
  wire::Client client(loopback(srv));
  const std::uint32_t cold = client.open(pyramid_stream(), "cold").id;
  const std::uint32_t hot = client.open(tiled_stream(), "hot").id;

  // Fill the cache with the cold dataset's finest level.
  (void)client.region(cold, 0, Box{{0, 0, 0}, {40, 40, 40}});
  const std::size_t cold_resident = srv.stats(cold).cache.entries;
  EXPECT_GT(cold_resident, 0u);

  // Hammer the hot dataset: three full sweeps, 27 bricks each.
  for (int sweep = 0; sweep < 3; ++sweep)
    (void)client.region(hot, 0, Box{{0, 0, 0}, {24, 24, 24}});

  const ServerStats st = srv.stats();
  const ServerStats sc = srv.stats(cold);
  const ServerStats sh = srv.stats(hot);
  EXPECT_LE(st.cache.bytes, kBudget);               // never above the budget
  EXPECT_EQ(st.cache.bytes, sc.cache.bytes + sh.cache.bytes);
  EXPECT_LT(sc.cache.entries, cold_resident);       // cold lost residency...
  EXPECT_GT(sh.cache.entries, sc.cache.entries);    // ...to the hot dataset
  EXPECT_GT(sc.cache.evictions, 0u);
  // The hot dataset's second and third sweeps ran warm.
  EXPECT_GT(sh.cache.hits, 0u);
}

TEST(Server, BudgetSmallerThanOneBrickStaysAHardCeiling) {
  // A decoded 9^3 brick is ~2.9 KB; a 1 KB budget cannot hold even one.
  // The cache must degrade to decode-through — replies stay bit-exact and
  // resident bytes never exceed the budget, they don't plateau at some
  // "one brick per shard" floor above it.
  constexpr std::size_t kBudget = 1u << 10;
  Server srv(quiet(kBudget, /*threads=*/2));
  wire::Client client(loopback(srv));
  const Bytes tstream = tiled_stream();
  const FieldF whole = api::decompress(tstream);
  const std::uint32_t id = client.open(tstream).id;

  for (int pass = 0; pass < 2; ++pass) {
    const FieldF got = client.region(id, 0, Box{{0, 0, 0}, {24, 24, 24}});
    ASSERT_EQ(got.dims(), whole.dims());
    for (index_t i = 0; i < got.size(); ++i) ASSERT_EQ(got.data()[i], whole.data()[i]);
    EXPECT_LE(srv.stats().cache.bytes, kBudget);
  }
  EXPECT_EQ(srv.stats().cache.entries, 0u);  // nothing fits, nothing resides
  EXPECT_GT(srv.stats().cache.evictions, 0u);
}

// ---------------------------------------------------------------------------
// Wire codec under hostile input. No reply below ever crashes the server;
// every malformed frame earns an error frame, and oversize claims die
// before any allocation could be sized from them.
// ---------------------------------------------------------------------------

/// The server's reply to raw bytes, parsed. handle_frame is total, so this
/// never throws.
wire::Frame reply_of(Server& srv, std::span<const std::byte> frame, Bytes& storage) {
  storage = srv.handle_frame(frame);
  return wire::parse_frame(storage);
}

TEST(Wire, TruncatedFramesEarnErrorFramesNeverCrashes) {
  Server srv(quiet());
  wire::Client client(loopback(srv));
  const std::uint32_t id = client.open(tiled_stream()).id;

  // A valid region request, then every truncation of it.
  Bytes body;
  ByteWriter w(body);
  w.put<std::uint32_t>(id);
  w.put<std::int32_t>(0);
  wire::put_box(w, Box{{0, 0, 0}, {8, 8, 8}});
  const Bytes good = wire::make_frame(wire::Type::region, body);
  Bytes storage;
  EXPECT_EQ(reply_of(srv, good, storage).type, wire::Type::region_ok);

  for (std::size_t n = 0; n < good.size(); ++n) {
    const auto truncated = std::span<const std::byte>(good).first(n);
    EXPECT_EQ(reply_of(srv, truncated, storage).type, wire::Type::error) << n;
  }
}

TEST(Wire, HostileLengthAndCountClaimsRejectedBeforeAllocation) {
  Server srv(quiet());
  Bytes storage;

  // Length prefix claims: zero, over-cap, and "the buffer is bigger than it
  // is" (the classic oversize-count attack) — all refused while only the
  // 5-byte header has been read.
  for (const std::uint64_t claim :
       {std::uint64_t{0}, std::uint64_t{wire::kMaxFrameBytes} + 1,
        std::uint64_t{0xffff'ffff}, std::uint64_t{2}}) {
    Bytes frame;
    ByteWriter w(frame);
    w.put<std::uint32_t>(static_cast<std::uint32_t>(claim));
    w.put<std::uint8_t>(static_cast<std::uint8_t>(wire::Type::stats));
    EXPECT_EQ(reply_of(srv, frame, storage).type, wire::Type::error) << claim;
  }

  // An open request whose name blob claims 2^48 bytes: the varint is read,
  // the bounds check fires, and no 256 TiB buffer is ever sized.
  {
    Bytes body;
    ByteWriter w(body);
    w.put_varint(std::uint64_t{1} << 48);
    const Bytes frame = wire::make_frame(wire::Type::open, body);
    EXPECT_EQ(reply_of(srv, frame, storage).type, wire::Type::error);
  }

  // A region request whose box spans 2^48 samples per axis: rejected by the
  // per-axis extent cap before any container code runs.
  {
    Bytes body;
    ByteWriter w(body);
    w.put<std::uint32_t>(1);
    w.put<std::int32_t>(0);
    wire::put_box(w, Box{{0, 0, 0}, {1, 1, 1}});  // placeholder, then corrupt
    const Bytes frame = wire::make_frame(wire::Type::region, body);
    Bytes huge = frame;
    // hi.x lives 8 bytes into the box: overwrite with 2^48.
    const std::uint64_t big = std::uint64_t{1} << 48;
    std::memcpy(huge.data() + 5 + 4 + 4 + 24, &big, sizeof(big));
    EXPECT_EQ(reply_of(srv, huge, storage).type, wire::Type::error);
  }

  // A region REPLY claiming 2^20^3 samples with a tiny payload: the client
  // refuses before allocating the claimed 4 PiB.
  {
    Bytes body;
    ByteWriter w(body);
    w.put<std::int64_t>(static_cast<std::int64_t>(wire::kMaxExtent));
    w.put<std::int64_t>(static_cast<std::int64_t>(wire::kMaxExtent));
    w.put<std::int64_t>(static_cast<std::int64_t>(wire::kMaxExtent));
    w.put<std::uint32_t>(0);  // 4 bytes of "payload"
    EXPECT_THROW((void)wire::decode_region_ok(body), CodecError);
  }
  // And a 48-bit extent claim dies on the per-axis cap.
  {
    Bytes body;
    ByteWriter w(body);
    w.put<std::int64_t>(std::int64_t{1} << 48);
    w.put<std::int64_t>(1);
    w.put<std::int64_t>(1);
    EXPECT_THROW((void)wire::decode_region_ok(body), CodecError);
  }
}

TEST(Wire, ExhaustiveHeaderBitFlipsAlwaysEarnAReply) {
  Server srv(quiet());
  wire::Client client(loopback(srv));
  const std::uint32_t id = client.open(tiled_stream()).id;

  Bytes body;
  ByteWriter w(body);
  w.put<std::uint32_t>(id);
  w.put<std::int32_t>(0);
  wire::put_box(w, Box{{0, 0, 0}, {8, 8, 8}});
  const Bytes good = wire::make_frame(wire::Type::region, body);

  // Flip every bit of the 5-byte header (and, for good measure, of the
  // body's first 8 bytes): the server must always produce a parseable
  // reply frame — region_ok if the mutation happened to stay valid,
  // an error frame otherwise. It must never throw or crash. A flip of the
  // type byte's kTracedFlag bit turns the frame into a (malformed) traced
  // request, whose reply legitimately echoes the flag — strip it before
  // classifying.
  Bytes storage;
  const std::size_t flip_bytes = std::min<std::size_t>(good.size(), 5 + 8);
  for (std::size_t byte = 0; byte < flip_bytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = good;
      mutated[byte] ^= std::byte{static_cast<unsigned char>(1u << bit)};
      const wire::Frame reply = reply_of(srv, mutated, storage);
      const auto t = static_cast<wire::Type>(
          static_cast<std::uint8_t>(reply.type) &
          static_cast<std::uint8_t>(~wire::kTracedFlag));
      EXPECT_TRUE(t == wire::Type::region_ok || t == wire::Type::error)
          << "byte " << byte << " bit " << bit;
    }
  }
}

// ---------------------------------------------------------------------------
// Request tracing: trace-id round trips, span stitching, flight records.
// ---------------------------------------------------------------------------

/// Flips the obs runtime switch for one test and always restores "off".
struct ScopedObs {
  ScopedObs() { obs::set_enabled(true); }
  ~ScopedObs() { obs::set_enabled(false); }
};

TEST(ServerTrace, TracedRepliesEchoTheIdOnEveryFrameType) {
  // Client::call verifies the echo (presence + value) on every reply, so a
  // traced walk over the full frame set is the round-trip proof.
  Server srv(quiet());
  wire::Client client(loopback(srv));
  client.set_trace(0x0123'4567'89ab'cdef);
  const std::uint32_t id = client.open(tiled_stream(), "traced").id;
  (void)client.region(id, 0, Box{{0, 0, 0}, {8, 8, 8}});
  (void)client.choose_level(id, Box{{0, 0, 0}, {8, 8, 8}}, 1 << 20);
  (void)client.stats(id);
  (void)client.metrics();
  (void)client.debug();
  client.close(id);
  srv.wait_idle();
}

TEST(ServerTrace, TracedRegionReadStitchesOneTraceAcrossLayers) {
  ScopedObs on;
  obs::reset_trace();
  obs::FlightRecorder::global().reset();

  Server srv(quiet());
  wire::Client client(loopback(srv));
  const std::uint32_t id = client.open(tiled_stream()).id;

  const std::uint64_t trace = 0x5151;
  client.set_trace(trace);
  const FieldF f = client.region(id, 0, Box{{0, 0, 0}, {16, 16, 16}});
  client.set_trace(0);
  EXPECT_EQ(f.dims(), (Dim3{16, 16, 16}));
  srv.wait_idle();

  // The one request's spans cover the wire codec, the server dispatch, and
  // the exec pool's decode tasks — stitched by the shared trace id.
  const auto spans = obs::spans_for(trace);
  ASSERT_FALSE(spans.empty());
  bool wire_decode = false, wire_encode = false, serve_request = false,
       exec_task = false;
  for (const auto& e : spans) {
    const std::string_view n(e.name);
    wire_decode = wire_decode || n == "wire.decode";
    wire_encode = wire_encode || n == "wire.encode";
    serve_request = serve_request || n == "serve.request";
    exec_task = exec_task || n.substr(0, 5) == "exec.";
  }
  EXPECT_TRUE(wire_decode);
  EXPECT_TRUE(wire_encode);
  EXPECT_TRUE(serve_request);
  EXPECT_TRUE(exec_task);

  // The stitched tree roots at the request span (earliest, widest).
  const std::string tree = obs::span_tree_text(trace);
  EXPECT_EQ(tree.rfind("serve.request", 0), 0u);

  // And the always-on flight recorder holds the request's record.
  bool found = false;
  for (const auto& rec : obs::FlightRecorder::global().snapshot())
    if (rec.trace == trace) {
      found = true;
      EXPECT_EQ(rec.frame_type, static_cast<std::uint8_t>(wire::Type::region));
      EXPECT_EQ(rec.outcome, 0);
      EXPECT_EQ(rec.dataset, id);
      EXPECT_EQ(rec.box_hi[0], 16);
      EXPECT_GT(rec.cache_hits + rec.cache_misses, 0u);
    }
  EXPECT_TRUE(found);

  obs::reset_trace();
  obs::FlightRecorder::global().reset();
}

TEST(ServerTrace, ErrorRepliesEchoTraceAndFailedRequestType) {
  Server srv(quiet());
  wire::Client client(loopback(srv));

  client.set_trace(0x77);
  try {
    (void)client.region(999, 0, Box{{0, 0, 0}, {8, 8, 8}});
    FAIL() << "expected ServerError";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ServerError::Code::unknown_dataset);
    EXPECT_EQ(e.trace, 0x77u);
    EXPECT_EQ(e.failed_request, static_cast<std::uint8_t>(wire::Type::region));
  }

  // Untraced client: the echoed id stays 0, attribution still works.
  client.set_trace(0);
  try {
    (void)client.region(999, 0, Box{{0, 0, 0}, {8, 8, 8}});
    FAIL() << "expected ServerError";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.trace, 0u);
    EXPECT_EQ(e.failed_request, static_cast<std::uint8_t>(wire::Type::region));
  }

  // A frame that never parses earns failed-request type 0.
  const Bytes junk(3, std::byte{0x5a});
  Bytes storage;
  const wire::Frame reply = reply_of(srv, junk, storage);
  EXPECT_EQ(reply.type, wire::Type::error);
  ASSERT_FALSE(reply.body.empty());
  EXPECT_EQ(static_cast<std::uint8_t>(reply.body.back()), 0);
}

TEST(ServerTrace, DebugFrameReturnsFlightRecorderJson) {
  obs::FlightRecorder::global().reset();
  Server srv(quiet());
  wire::Client client(loopback(srv));
  const std::uint32_t id = client.open(tiled_stream()).id;
  (void)client.region(id, 0, Box{{0, 0, 0}, {8, 8, 8}});
  // Error replies are always slow-log captured, whatever their latency.
  EXPECT_THROW((void)client.region(999, 0, Box{{0, 0, 0}, {8, 8, 8}}),
               ServerError);
  srv.wait_idle();

  const std::string doc = client.debug();
  EXPECT_EQ(doc.rfind("{\"flight\":", 0), 0u);
  EXPECT_NE(doc.find("\"records\":["), std::string::npos);
  EXPECT_NE(doc.find("\"slow\":["), std::string::npos);
  EXPECT_NE(doc.find("\"outcome\":3"), std::string::npos);  // unknown_dataset
  obs::FlightRecorder::global().reset();
}

TEST(ServerTrace, StatsOkCarriesSplitQueueDepths) {
  ServerStats s;
  s.cache.lookups = 10;
  s.cache.hits = 7;
  s.cache.misses = 3;
  s.datasets = 2;
  s.queue_high = 3;
  s.queue_low = 5;
  s.active = 1;
  s.requests = 9;
  s.rejected = 2;
  s.p50_us = 11;
  s.p99_us = 22;
  const Bytes frame = wire::encode_stats_ok(s);
  const wire::Frame f = wire::parse_frame(frame);
  ASSERT_EQ(f.type, wire::Type::stats_ok);
  const ServerStats d = wire::decode_stats_ok(f.body);
  EXPECT_EQ(d.queue_high, 3u);
  EXPECT_EQ(d.queue_low, 5u);
  EXPECT_EQ(d.cache.hits, 7u);
  EXPECT_EQ(d.datasets, 2u);
  EXPECT_EQ(d.p99_us, 22u);
}

TEST(ServerTrace, CoalescedDecodeRecordsOwnerAndAdopterIds) {
  ScopedObs on;
  obs::reset_trace();
  serve::BrickCache cache(64ull << 20, 4);
  const serve::CacheKey key{cache.register_dataset(), 7};
  const auto make_brick = [] {
    return std::make_shared<FieldF>(test::smooth_field({4, 4, 4}));
  };

  // The owner (trace 0xa) starts a gated decode; the adopter (trace 0xb)
  // fetches the same key while it runs and must wait on — adopt — it.
  std::promise<void> owner_in;
  std::promise<void> release;
  std::shared_future<void> go = release.get_future().share();
  std::thread owner([&] {
    const auto ctx = std::make_shared<obs::RequestCtx>();
    ctx->trace = 0xa;
    const obs::RequestScope scope(ctx);
    (void)cache.fetch(key, [&]() -> serve::BrickPtr {
      owner_in.set_value();
      go.wait();
      return make_brick();
    });
  });
  owner_in.get_future().wait();  // the decode is registered and running

  std::promise<void> adopter_in;
  std::thread adopter([&] {
    const auto ctx = std::make_shared<obs::RequestCtx>();
    ctx->trace = 0xb;
    const obs::RequestScope scope(ctx);
    adopter_in.set_value();  // about to fetch: the decode is still gated
    (void)cache.fetch(key, [&]() -> serve::BrickPtr { return make_brick(); });
  });
  adopter_in.get_future().wait();
  // Generous margin for the adopter to reach the in-flight wait before the
  // owner's decode is released (the entry stays in flight until then, so
  // the adopter coalesces as long as it arrives before release + finish).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.set_value();
  owner.join();
  adopter.join();

  // The adopter recorded a cache.adopt_decode span under its own trace,
  // ref'ing the owner — both ids of the coalesced decode are on record.
  bool adopted = false;
  for (const auto& e : obs::spans_for(0xb))
    if (std::string_view(e.name) == "cache.adopt_decode") {
      adopted = true;
      EXPECT_EQ(e.ref, 0xau);
    }
  EXPECT_TRUE(adopted);
  EXPECT_TRUE(obs::spans_for(0xa).empty());  // the owner waited on nothing

  obs::reset_trace();
}

TEST(ServerTrace, StolenPrefetchRecordsClaimSpanWithIssuerRef) {
  ScopedObs on;
  obs::reset_trace();
  serve::BrickCache cache(64ull << 20, 4);
  const serve::CacheKey key{cache.register_dataset(), 9};
  const auto make_brick = [] {
    return std::make_shared<FieldF>(test::smooth_field({4, 4, 4}));
  };
  std::atomic<int> prefetch_decodes{0};
  {
    // One worker, blocked behind a gate: the prefetch task stays queued and
    // unclaimed until the demand fetch steals it.
    exec::ThreadPool pool(2);
    std::promise<void> started;
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    auto blocker = pool.submit([&started, open] {
      started.set_value();
      open.wait();
    });
    started.get_future().wait();

    {
      const auto ctx = std::make_shared<obs::RequestCtx>();
      ctx->trace = 0x1;
      const obs::RequestScope scope(ctx);
      cache.prefetch(key, pool, [&]() -> serve::BrickPtr {
        prefetch_decodes.fetch_add(1);
        return make_brick();
      });
    }
    {
      const auto ctx = std::make_shared<obs::RequestCtx>();
      ctx->trace = 0x2;
      const obs::RequestScope scope(ctx);
      (void)cache.fetch(key, [&]() -> serve::BrickPtr { return make_brick(); });
    }
    gate.set_value();
    blocker.get();
  }  // pool drains (the stolen prefetch task finds its job gone) and joins

  EXPECT_EQ(prefetch_decodes.load(), 0);  // the demand fetch decoded inline
  EXPECT_TRUE(cache.contains(key));
  bool claimed = false;
  for (const auto& e : obs::spans_for(0x2))
    if (std::string_view(e.name) == "cache.claim_prefetch") {
      claimed = true;
      EXPECT_EQ(e.ref, 0x1u);  // ref = the request that issued the warm
    }
  EXPECT_TRUE(claimed);
  obs::reset_trace();
}

}  // namespace
}  // namespace mrc
