#include "serve/server.h"

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "obs/flight.h"
#include "obs/obs.h"
#include "serve/wire.h"

namespace mrc::serve {

struct Server::Impl {
  ServerConfig cfg;

  // The cache is declared before the pool and the pool before the dataset
  // registry: destruction runs datasets (each drains its decodes) -> pool
  // (joins workers) -> cache, so no queued task ever outlives what it
  // references.
  std::shared_ptr<BrickCache> cache;
  std::shared_ptr<exec::ThreadPool> pool;

  struct Served {
    std::string name;
    std::shared_ptr<Dataset> ds;
  };
  mutable std::shared_mutex mu;           ///< guards the registry only
  std::map<std::uint32_t, Served> datasets;
  std::uint32_t next_id = 1;

  std::atomic<std::uint64_t> active{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> rejected{0};
  obs::Histogram latency;

  explicit Impl(const ServerConfig& c) : cfg(c) {
    MRC_REQUIRE(cfg.cache_bytes >= 1, "serve: cache byte budget must be >= 1");
    MRC_REQUIRE(cfg.max_active >= 1, "serve: admission cap must be >= 1");
    cache = std::make_shared<BrickCache>(cfg.cache_bytes);
    pool = std::make_shared<exec::ThreadPool>(cfg.threads);
  }

  /// Handle lookup: a shared_ptr snapshot, so reads keep serving a dataset
  /// that is concurrently close()d and the registry lock is never held
  /// across a decode.
  [[nodiscard]] std::shared_ptr<Dataset> find(std::uint32_t id) const {
    const std::shared_lock lock(mu);
    const auto it = datasets.find(id);
    if (it == datasets.end())
      throw ServerError(ServerError::Code::unknown_dataset,
                        "serve: unknown dataset id " + std::to_string(id));
    return it->second.ds;
  }

  /// Admission gate: at most cfg.max_active reads in flight; excess load is
  /// shed immediately (Code::overloaded) instead of queueing without bound.
  struct Admission {
    Impl& im;
    explicit Admission(Impl& im_) : im(im_) {
      // The registry mirrors (mrc.serve.requests / .rejected) tick at the
      // same sites as the per-server atomics, so the wire `metrics` frame
      // reconciles exactly with ServerStats in a single-server process.
      static obs::Counter& g_requests =
          obs::Registry::global().counter("mrc.serve.requests");
      static obs::Counter& g_rejected =
          obs::Registry::global().counter("mrc.serve.rejected");
      if (im.active.fetch_add(1, std::memory_order_acq_rel) >=
          im.cfg.max_active) {
        im.active.fetch_sub(1, std::memory_order_acq_rel);
        im.rejected.fetch_add(1, std::memory_order_relaxed);
        g_rejected.add(1);
        throw ServerError(ServerError::Code::overloaded,
                          "serve: overloaded, retry later (admission cap " +
                              std::to_string(im.cfg.max_active) + ")");
      }
      im.requests.fetch_add(1, std::memory_order_relaxed);
      g_requests.add(1);
    }
    ~Admission() { im.active.fetch_sub(1, std::memory_order_acq_rel); }
    Admission(const Admission&) = delete;
    Admission& operator=(const Admission&) = delete;
  };

  /// Server-wide gauges around a cache-counter snapshot of any scope.
  [[nodiscard]] ServerStats gauges(CacheStats c) const {
    ServerStats s;
    s.cache = c;
    {
      const std::shared_lock lock(mu);
      s.datasets = static_cast<std::uint32_t>(datasets.size());
    }
    s.queue_high = pool->queued_high();
    s.queue_low = pool->queued_low();
    s.active = active.load(std::memory_order_relaxed);
    s.requests = requests.load(std::memory_order_relaxed);
    s.rejected = rejected.load(std::memory_order_relaxed);
    s.p50_us = latency.quantile(0.50);
    s.p99_us = latency.quantile(0.99);
    return s;
  }
};

Server::Server(const ServerConfig& cfg) : impl_(std::make_unique<Impl>(cfg)) {}
Server::~Server() = default;
Server::Server(Server&&) noexcept = default;
Server& Server::operator=(Server&&) noexcept = default;

std::uint32_t Server::open(Bytes stream, std::string name) {
  Impl& im = *impl_;
  Config dcfg;  // budget/threads live in the shared resources
  dcfg.prefetch = im.cfg.prefetch;
  auto ds = std::make_shared<Dataset>(std::move(stream), dcfg, im.cache, im.pool);
  const std::unique_lock lock(im.mu);
  const std::uint32_t id = im.next_id++;
  im.datasets.emplace(id, Impl::Served{std::move(name), std::move(ds)});
  return id;
}

void Server::close(std::uint32_t id) {
  Impl& im = *impl_;
  std::shared_ptr<Dataset> ds;  // destroyed outside the lock: teardown drains
  {
    const std::unique_lock lock(im.mu);
    const auto it = im.datasets.find(id);
    if (it == im.datasets.end())
      throw ServerError(ServerError::Code::unknown_dataset,
                        "serve: unknown dataset id " + std::to_string(id));
    ds = std::move(it->second.ds);
    im.datasets.erase(it);
  }
  ds->drop_cache();  // hand the budget back now, not at the last reference
}

std::vector<std::pair<std::uint32_t, std::string>> Server::list() const {
  const Impl& im = *impl_;
  const std::shared_lock lock(im.mu);
  std::vector<std::pair<std::uint32_t, std::string>> out;
  out.reserve(im.datasets.size());
  for (const auto& [id, served] : im.datasets) out.emplace_back(id, served.name);
  return out;
}

int Server::levels(std::uint32_t id) const { return impl_->find(id)->levels(); }

Dim3 Server::dims(std::uint32_t id, int level) const {
  return impl_->find(id)->dims(level);
}

double Server::eb(std::uint32_t id) const { return impl_->find(id)->eb(); }

FieldF Server::read_region(std::uint32_t id, int level, const tiled::Box& region) {
  Impl& im = *impl_;
  const std::shared_ptr<Dataset> ds = im.find(id);
  const Impl::Admission gate(im);
  OBS_SPAN("serve.read_region");
  const auto t0 = std::chrono::steady_clock::now();
  FieldF out = ds->read_region(level, region);
  const auto us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  im.latency.record(us);
  if (obs::enabled()) {
    static obs::Histogram& h =
        obs::Registry::global().histogram("mrc.serve.read_us");
    h.record(us);
  }
  return out;
}

std::vector<ProgressiveLayer> Server::read_progressive(std::uint32_t id, int level,
                                                       const tiled::Box& region) {
  Impl& im = *impl_;
  const std::shared_ptr<Dataset> ds = im.find(id);
  // One admission slot covers the whole layer chain — a progressive read is
  // one request, not one per level.
  const Impl::Admission gate(im);
  OBS_SPAN("serve.read_progressive");
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<ProgressiveLayer> out = ds->read_progressive(level, region);
  const auto us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  im.latency.record(us);
  if (obs::enabled()) {
    static obs::Histogram& h =
        obs::Registry::global().histogram("mrc.serve.read_us");
    h.record(us);
  }
  return out;
}

int Server::choose_level(std::uint32_t id, const tiled::Box& fine_box,
                         index_t sample_budget) const {
  return impl_->find(id)->choose_level(fine_box, sample_budget);
}

ServerStats Server::stats() const { return impl_->gauges(impl_->cache->stats()); }

ServerStats Server::stats(std::uint32_t id) const {
  return impl_->gauges(impl_->find(id)->stats());
}

void Server::wait_idle() { impl_->cache->wait_idle(); }

Bytes Server::handle_frame(std::span<const std::byte> frame) {
  const auto done = [](ByteReader& r) {
    if (!r.exhausted()) throw CodecError("wire: request has trailing bytes");
  };
  // The request clock, context, and flight record start before parsing:
  // even an unparseable frame gets a record (frame_type 0) with its true
  // latency. The context scope makes the request's trace id and per-request
  // counters visible to everything this thread — and, via the pool's task
  // wrapper, every lane — touches while serving it.
  const std::uint64_t t0 = obs::now_ns();
  const auto ctx = std::make_shared<obs::RequestCtx>();
  const obs::RequestScope scope(ctx);
  wire::Request req;     // stays zeroed when parse_request throws
  obs::FlightRecord fr;  // dataset/box/level filled per frame type below

  // Per-frame-type latency histograms (mrc.serve.frame_us.<type>) and the
  // stitched request span, recorded around the full dispatch — parse to
  // reply bytes — when obs is enabled. The serve.request span is recorded
  // *before* the flight record so a slow-log capture sees the whole tree.
  const bool timed = obs::enabled();
  const auto reply = [&](const char* type_name, Bytes r, std::uint8_t outcome) {
    const std::uint64_t t1 = obs::now_ns();
    if (timed) {
      obs::Registry::global()
          .histogram(std::string("mrc.serve.frame_us.") + type_name)
          .record((t1 - t0) / 1000);
      obs::detail::record_span("serve.request", t0, t1 - t0);
    }
    fr.trace = req.trace;
    fr.frame_type = static_cast<std::uint8_t>(req.type);
    fr.outcome = outcome;
    fr.cache_hits = ctx->cache_hits.load(std::memory_order_relaxed);
    fr.cache_misses = ctx->cache_misses.load(std::memory_order_relaxed);
    fr.queue_wait_us = ctx->queue_wait_ns.load(std::memory_order_relaxed) / 1000;
    fr.end_ns = t1;
    fr.total_us = (t1 - t0) / 1000;
    obs::FlightRecorder::global().record(fr);
    return r;
  };
  const auto finish = [&](const char* type_name, Bytes r) {
    return reply(type_name, wire::echo_trace(std::move(r), req.traced, req.trace),
                 /*outcome=*/0);
  };
  try {
    {
      // Recorded after ctx->trace is set, so the decode span carries the id.
      const std::uint64_t tp0 = timed ? obs::now_ns() : 0;
      req = wire::parse_request(frame);
      ctx->trace = req.trace;
      if (timed)
        obs::detail::record_span("wire.decode", tp0, obs::now_ns() - tp0);
    }
    ByteReader r(req.body);
    switch (req.type) {
      case wire::Type::open: {
        const std::span<const std::byte> name_b = r.get_blob();
        const std::span<const std::byte> stream_b = r.get_blob();
        done(r);
        std::string name(reinterpret_cast<const char*>(name_b.data()),
                         name_b.size());
        const std::uint32_t id =
            open(Bytes(stream_b.begin(), stream_b.end()), std::move(name));
        fr.dataset = id;
        Bytes body;
        ByteWriter w(body);
        w.put<std::uint32_t>(id);
        w.put<std::int32_t>(levels(id));
        const Dim3 d = dims(id, 0);
        w.put<std::int64_t>(d.nx);
        w.put<std::int64_t>(d.ny);
        w.put<std::int64_t>(d.nz);
        w.put<double>(eb(id));
        return finish("open", wire::make_frame(wire::Type::open_ok, body));
      }
      case wire::Type::region: {
        const auto id = r.get<std::uint32_t>();
        const auto level = r.get<std::int32_t>();
        const tiled::Box box = wire::get_box(r);
        done(r);
        fr.dataset = id;
        fr.level = level;
        fr.box_lo[0] = box.lo.x, fr.box_lo[1] = box.lo.y, fr.box_lo[2] = box.lo.z;
        fr.box_hi[0] = box.hi.x, fr.box_hi[1] = box.hi.y, fr.box_hi[2] = box.hi.z;
        const FieldF f = read_region(id, level, box);
        const std::uint64_t te0 = timed ? obs::now_ns() : 0;
        Bytes out = wire::encode_region_ok(f);
        if (timed)
          obs::detail::record_span("wire.encode", te0, obs::now_ns() - te0);
        return finish("region", std::move(out));
      }
      case wire::Type::progressive: {
        const auto id = r.get<std::uint32_t>();
        const auto level = r.get<std::int32_t>();
        const tiled::Box box = wire::get_box(r);
        done(r);
        fr.dataset = id;
        fr.level = level;
        fr.box_lo[0] = box.lo.x, fr.box_lo[1] = box.lo.y, fr.box_lo[2] = box.lo.z;
        fr.box_hi[0] = box.hi.x, fr.box_hi[1] = box.hi.y, fr.box_hi[2] = box.hi.z;
        const std::vector<ProgressiveLayer> layers =
            read_progressive(id, level, box);
        // The reply is N concatenated frames, coarsest first, and every one
        // echoes the trace id itself — so the encoder stamps each frame and
        // this case returns through `reply`, NOT `finish` (which would stamp
        // the concatenation a second time).
        const std::uint64_t te0 = timed ? obs::now_ns() : 0;
        Bytes out = wire::encode_progressive_reply(layers, req.traced, req.trace);
        if (timed)
          obs::detail::record_span("wire.encode", te0, obs::now_ns() - te0);
        if (obs::enabled()) {
          static obs::Counter& g_req =
              obs::Registry::global().counter("mrc.progressive.requests");
          static obs::Counter& g_frames =
              obs::Registry::global().counter("mrc.progressive.frames");
          static obs::Counter& g_bytes =
              obs::Registry::global().counter("mrc.progressive.bytes");
          g_req.add(1);
          g_frames.add(layers.size());
          g_bytes.add(out.size());
        }
        return reply("progressive", std::move(out), /*outcome=*/0);
      }
      case wire::Type::lod: {
        const auto id = r.get<std::uint32_t>();
        const tiled::Box box = wire::get_box(r);
        const auto budget = r.get<std::uint64_t>();
        done(r);
        fr.dataset = id;
        fr.box_lo[0] = box.lo.x, fr.box_lo[1] = box.lo.y, fr.box_lo[2] = box.lo.z;
        fr.box_hi[0] = box.hi.x, fr.box_hi[1] = box.hi.y, fr.box_hi[2] = box.hi.z;
        const int level = choose_level(id, box, static_cast<index_t>(budget));
        fr.level = level;
        Bytes body;
        ByteWriter w(body);
        w.put<std::int32_t>(level);
        return finish("lod", wire::make_frame(wire::Type::lod_ok, body));
      }
      case wire::Type::stats: {
        const auto id = r.get<std::uint32_t>();
        done(r);
        fr.dataset = id;
        return finish("stats",
                      wire::encode_stats_ok(id == wire::kAllDatasets ? stats()
                                                                     : stats(id)));
      }
      case wire::Type::metrics: {
        // Malformed metrics frames (trailing bytes) die in done() — before
        // the exposition text is built or any reply buffer is allocated.
        done(r);
        const std::string text = obs::render_text();
        Bytes body;
        ByteWriter w(body);
        w.put_blob(std::as_bytes(std::span(text.data(), text.size())));
        return finish("metrics", wire::make_frame(wire::Type::metrics_ok, body));
      }
      case wire::Type::debug: {
        done(r);
        const std::string text = obs::flight_json();
        Bytes body;
        ByteWriter w(body);
        w.put_blob(std::as_bytes(std::span(text.data(), text.size())));
        return finish("debug", wire::make_frame(wire::Type::debug_ok, body));
      }
      case wire::Type::close: {
        const auto id = r.get<std::uint32_t>();
        done(r);
        fr.dataset = id;
        close(id);
        return finish("close", wire::make_frame(wire::Type::close_ok));
      }
      default:
        throw ServerError(ServerError::Code::bad_request,
                          "wire: unknown frame type");
    }
  } catch (const ServerError& e) {
    // Error frames carry the failed request type and — like every reply —
    // echo the trace id, so a pipelining client can attribute the failure.
    return reply("error",
                 wire::echo_trace(
                     wire::make_error(e.code(), e.what(),
                                      static_cast<std::uint8_t>(req.type)),
                     req.traced, req.trace),
                 static_cast<std::uint8_t>(e.code()));
  } catch (const std::exception& e) {
    // Contract violations, malformed frames, decode failures: the client
    // asked for something the server cannot do — a bad request either way.
    return reply("error",
                 wire::echo_trace(
                     wire::make_error(ServerError::Code::bad_request, e.what(),
                                      static_cast<std::uint8_t>(req.type)),
                     req.traced, req.trace),
                 static_cast<std::uint8_t>(ServerError::Code::bad_request));
  }
}

}  // namespace mrc::serve
