#include "serve/wire.h"

#include <cstring>

#include "grid/field_ops.h"
#include "progressive/progressive.h"

namespace mrc::serve::wire {

namespace {

void require_wire(bool cond, const std::string& msg) {
  if (!cond) throw CodecError("wire: " + msg);
}

/// Frame header: u32 length + u8 type.
inline constexpr std::size_t kHeaderBytes = 5;

/// Opens a frame of type `t` at the end of `out`: appends a placeholder
/// length prefix and the type byte, and returns where the frame starts. The
/// caller appends the body in place, then calls end_frame.
std::size_t begin_frame(Bytes& out, Type t) {
  const std::size_t start = out.size();
  ByteWriter w(out);
  w.put<std::uint32_t>(0);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(t));
  return start;
}

/// Closes the frame begun at `start`, the last one in `out`: when `traced`,
/// sets kTracedFlag and appends the trace id, then writes the length prefix.
void end_frame(Bytes& out, std::size_t start, bool traced = false,
               std::uint64_t trace = 0) {
  if (traced) {
    out[start + 4] |= static_cast<std::byte>(kTracedFlag);
    ByteWriter(out).put<std::uint64_t>(trace);
  }
  const std::size_t len = out.size() - start - sizeof(std::uint32_t);
  require_wire(len <= kMaxFrameBytes, "frame exceeds the 1 GiB cap");
  const auto len32 = static_cast<std::uint32_t>(len);
  std::memcpy(out.data() + start, &len32, sizeof(len32));
}

/// Bytes of a progressive_ok body ahead of its samples: i32 level, u8 flag,
/// 3 x i64 level dims, 6 x i64 box.
inline constexpr std::size_t kLayerHeaderBytes =
    sizeof(std::int32_t) + sizeof(std::uint8_t) + 9 * sizeof(std::int64_t);

}  // namespace

Frame parse_frame(std::span<const std::byte> buf) {
  require_wire(buf.size() >= kHeaderBytes, "frame shorter than its header");
  ByteReader r(buf);
  const auto len = r.get<std::uint32_t>();
  require_wire(len >= 1, "zero-length frame");
  require_wire(len <= kMaxFrameBytes, "frame length exceeds the 1 GiB cap");
  // Exact match — a length larger than the buffer is a truncation (or a
  // hostile claim we refuse before touching the body), smaller means
  // trailing garbage.
  require_wire(static_cast<std::size_t>(len) == buf.size() - 4,
               "frame length does not match the buffer");
  const auto t = r.get<std::uint8_t>();
  return Frame{static_cast<Type>(t), buf.subspan(kHeaderBytes)};
}

Request parse_request(std::span<const std::byte> buf) {
  const Frame f = parse_frame(buf);
  const auto raw = static_cast<std::uint8_t>(f.type);
  Request out;
  out.type = static_cast<Type>(raw & ~kTracedFlag);
  out.body = f.body;
  if ((raw & kTracedFlag) != 0) {
    require_wire(f.body.size() >= sizeof(std::uint64_t),
                 "traced frame shorter than its trace id");
    std::memcpy(&out.trace, f.body.data() + f.body.size() - sizeof(std::uint64_t),
                sizeof(std::uint64_t));
    out.traced = true;
    out.body = f.body.first(f.body.size() - sizeof(std::uint64_t));
  }
  return out;
}

Bytes make_frame(Type t, std::span<const std::byte> body) {
  Bytes out;
  // Room for the trace id too, so echo_trace never reallocates.
  out.reserve(kHeaderBytes + body.size() + sizeof(std::uint64_t));
  const std::size_t start = begin_frame(out, t);
  ByteWriter(out).put_bytes(body);
  end_frame(out, start);
  return out;
}

Bytes echo_trace(Bytes frame, bool traced, std::uint64_t trace) {
  if (!traced) return frame;
  require_wire(frame.size() >= kHeaderBytes, "cannot trace-stamp a non-frame");
  end_frame(frame, 0, traced, trace);
  return frame;
}

Bytes make_error(ServerError::Code code, std::string_view what,
                 std::uint8_t failed_type) {
  Bytes body;
  ByteWriter w(body);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(code));
  w.put_blob(std::as_bytes(std::span(what.data(), what.size())));
  // Which request type earned this error — correlation a pipelining client
  // needs when replies arrive out of band (0 = the frame never parsed).
  w.put<std::uint8_t>(failed_type);
  return make_frame(Type::error, body);
}

void put_box(ByteWriter& w, const tiled::Box& box) {
  w.put<std::int64_t>(box.lo.x);
  w.put<std::int64_t>(box.lo.y);
  w.put<std::int64_t>(box.lo.z);
  w.put<std::int64_t>(box.hi.x);
  w.put<std::int64_t>(box.hi.y);
  w.put<std::int64_t>(box.hi.z);
}

tiled::Box get_box(ByteReader& r) {
  std::int64_t v[6];
  for (auto& x : v) x = r.get<std::int64_t>();
  for (int a = 0; a < 3; ++a) {
    require_wire(v[a] >= 0 && v[a + 3] > v[a], "region box is empty or negative");
    // Checked on the raw i64s, so a hostile 2^48-sample claim dies here —
    // long before any extent arithmetic or allocation sees it.
    require_wire(v[a + 3] - v[a] <= static_cast<std::int64_t>(kMaxExtent),
                 "region extent exceeds the per-axis cap");
  }
  return tiled::Box{{v[0], v[1], v[2]}, {v[3], v[4], v[5]}};
}

Bytes encode_region_ok(const FieldF& f) {
  const std::span<const std::byte> samples = std::as_bytes(f.span());
  Bytes out;
  // Sized once, trace suffix included: the samples are copied exactly once
  // and echo_trace never reallocates.
  out.reserve(kHeaderBytes + 3 * sizeof(std::int64_t) + samples.size() +
              sizeof(std::uint64_t));
  const std::size_t start = begin_frame(out, Type::region_ok);
  ByteWriter w(out);
  w.put<std::int64_t>(f.dims().nx);
  w.put<std::int64_t>(f.dims().ny);
  w.put<std::int64_t>(f.dims().nz);
  w.put_bytes(samples);
  end_frame(out, start);
  return out;
}

FieldF decode_region_ok(std::span<const std::byte> body) {
  ByteReader r(body);
  const auto nx = r.get<std::int64_t>();
  const auto ny = r.get<std::int64_t>();
  const auto nz = r.get<std::int64_t>();
  std::uint64_t product = 1;
  for (const std::int64_t n : {nx, ny, nz}) {
    require_wire(n >= 1 && n <= static_cast<std::int64_t>(kMaxExtent),
                 "region extent out of range");
    product *= static_cast<std::uint64_t>(n);  // <= 2^60: cannot overflow
  }
  // The sample payload must match the claimed extents byte-for-byte BEFORE
  // the field buffer is allocated from them.
  require_wire(r.remaining() == product * sizeof(float),
               "region payload does not match its extents");
  const std::span<const std::byte> raw =
      r.get_bytes(static_cast<std::size_t>(product) * sizeof(float));
  std::vector<float> data(static_cast<std::size_t>(product));
  std::memcpy(data.data(), raw.data(), raw.size());
  return FieldF{Dim3{nx, ny, nz}, std::move(data)};
}

Bytes encode_progressive_reply(std::span<const ProgressiveLayer> layers, bool traced,
                               std::uint64_t trace) {
  const std::size_t suffix = traced ? sizeof(std::uint64_t) : 0;
  std::size_t total = 0;
  for (const ProgressiveLayer& layer : layers)
    total += kHeaderBytes + kLayerHeaderBytes + layer.data.span().size_bytes() + suffix;
  Bytes out;
  out.reserve(total);
  for (const ProgressiveLayer& layer : layers) {
    const std::size_t start = begin_frame(out, Type::progressive_ok);
    ByteWriter w(out);
    w.put<std::int32_t>(layer.level);
    w.put<std::uint8_t>(layer.residual ? 1 : 0);
    w.put<std::int64_t>(layer.level_dims.nx);
    w.put<std::int64_t>(layer.level_dims.ny);
    w.put<std::int64_t>(layer.level_dims.nz);
    put_box(w, layer.box);
    w.put_bytes(std::as_bytes(layer.data.span()));
    end_frame(out, start, traced, trace);
  }
  return out;
}

ProgressiveLayer decode_progressive_ok(std::span<const std::byte> body) {
  ByteReader r(body);
  ProgressiveLayer layer;
  const auto level = r.get<std::int32_t>();
  require_wire(level >= 0 && level < progressive::kMaxLevels,
               "progressive layer level out of range");
  layer.level = level;
  const auto flag = r.get<std::uint8_t>();
  require_wire(flag <= 1, "progressive residual flag must be 0 or 1");
  layer.residual = flag != 0;
  std::int64_t d[3];
  for (auto& v : d) v = r.get<std::int64_t>();
  for (const std::int64_t v : d)
    // Level extents are global grid dims, not a region: capped by the
    // containers' 2^40 total-sample limit rather than kMaxExtent.
    require_wire(v >= 1 && v <= (std::int64_t{1} << 40),
                 "progressive level extents out of range");
  layer.level_dims = Dim3{d[0], d[1], d[2]};
  layer.box = get_box(r);
  require_wire(layer.box.hi.x <= layer.level_dims.nx &&
                   layer.box.hi.y <= layer.level_dims.ny &&
                   layer.box.hi.z <= layer.level_dims.nz,
               "progressive layer box outside its level grid");
  const Dim3 ext{layer.box.hi.x - layer.box.lo.x, layer.box.hi.y - layer.box.lo.y,
                 layer.box.hi.z - layer.box.lo.z};
  const std::uint64_t product = static_cast<std::uint64_t>(ext.nx) *
                                static_cast<std::uint64_t>(ext.ny) *
                                static_cast<std::uint64_t>(ext.nz);  // <= 2^60
  // The sample payload must match the claimed box byte-for-byte BEFORE the
  // field buffer is allocated from it.
  require_wire(r.remaining() == product * sizeof(float),
               "progressive payload does not match its box");
  const std::span<const std::byte> raw =
      r.get_bytes(static_cast<std::size_t>(product) * sizeof(float));
  std::vector<float> data(static_cast<std::size_t>(product));
  std::memcpy(data.data(), raw.data(), raw.size());
  layer.data = FieldF{ext, std::move(data)};
  return layer;
}

Bytes encode_stats_ok(const ServerStats& s) {
  // Fixed layout (7 u64 cache counters, u32 dataset count, 7 u64 server
  // gauges — queue depth split per priority class) built into a pre-sized
  // buffer: the growing-ByteWriter path trips GCC 12's -Wstringop-overflow
  // false positive at -O3 here.
  Bytes body(14 * sizeof(std::uint64_t) + sizeof(std::uint32_t));
  std::byte* p = body.data();
  const auto put64 = [&p](std::uint64_t v) {
    std::memcpy(p, &v, sizeof(v));
    p += sizeof(v);
  };
  put64(s.cache.lookups);
  put64(s.cache.hits);
  put64(s.cache.misses);
  put64(s.cache.evictions);
  put64(s.cache.prefetched);
  put64(s.cache.bytes);
  put64(s.cache.entries);
  const std::uint32_t datasets = s.datasets;
  std::memcpy(p, &datasets, sizeof(datasets));
  p += sizeof(datasets);
  put64(s.queue_high);
  put64(s.queue_low);
  put64(s.active);
  put64(s.requests);
  put64(s.rejected);
  put64(s.p50_us);
  put64(s.p99_us);
  return make_frame(Type::stats_ok, body);
}

ServerStats decode_stats_ok(std::span<const std::byte> body) {
  ByteReader r(body);
  ServerStats s;
  s.cache.lookups = r.get<std::uint64_t>();
  s.cache.hits = r.get<std::uint64_t>();
  s.cache.misses = r.get<std::uint64_t>();
  s.cache.evictions = r.get<std::uint64_t>();
  s.cache.prefetched = r.get<std::uint64_t>();
  s.cache.bytes = static_cast<std::size_t>(r.get<std::uint64_t>());
  s.cache.entries = static_cast<std::size_t>(r.get<std::uint64_t>());
  s.datasets = r.get<std::uint32_t>();
  s.queue_high = r.get<std::uint64_t>();
  s.queue_low = r.get<std::uint64_t>();
  s.active = r.get<std::uint64_t>();
  s.requests = r.get<std::uint64_t>();
  s.rejected = r.get<std::uint64_t>();
  s.p50_us = r.get<std::uint64_t>();
  s.p99_us = r.get<std::uint64_t>();
  require_wire(r.exhausted(), "stats reply has trailing bytes");
  return s;
}

// -- Client -----------------------------------------------------------------

Bytes Client::call(Type t, std::span<const std::byte> body, Type expect) {
  const bool traced = trace_ != 0;
  const Bytes request = echo_trace(make_frame(t, body), traced, trace_);
  Bytes reply = send_(request);
  const Frame f = parse_frame(reply);
  const auto raw = static_cast<std::uint8_t>(f.type);
  const bool traced_reply = (raw & kTracedFlag) != 0;
  const Type reply_type = static_cast<Type>(raw & ~kTracedFlag);
  std::span<const std::byte> reply_body = f.body;
  std::uint64_t echoed = 0;
  if (traced_reply) {
    require_wire(reply_body.size() >= sizeof(std::uint64_t),
                 "traced reply shorter than its trace id");
    std::memcpy(&echoed, reply_body.data() + reply_body.size() - sizeof(echoed),
                sizeof(echoed));
    reply_body = reply_body.first(reply_body.size() - sizeof(echoed));
  }
  // The echo must round-trip exactly: a traced request earns a traced reply
  // carrying the same id — error frames included — and an untraced request
  // must never earn one (a stray id means the transport crossed replies).
  require_wire(traced == traced_reply, "reply trace presence mismatch");
  if (traced) require_wire(echoed == trace_, "reply trace id mismatch");
  if (reply_type == Type::error) {
    ByteReader r(reply_body);
    const auto code = r.get<std::uint8_t>();
    const std::span<const std::byte> msg = r.get_blob();
    const auto failed = r.get<std::uint8_t>();
    require_wire(r.exhausted(), "error reply has trailing bytes");
    ServerError err(static_cast<ServerError::Code>(code),
                    std::string(reinterpret_cast<const char*>(msg.data()),
                                msg.size()));
    err.failed_request = failed;
    err.trace = echoed;
    throw err;
  }
  require_wire(reply_type == expect, "unexpected reply type");
  // Strip the trace suffix so the per-method body decoders (which subspan
  // past the 5-byte header and require exhaustion) see the plain layout.
  if (traced_reply) reply.resize(reply.size() - sizeof(std::uint64_t));
  return reply;
}

OpenInfo Client::open(std::span<const std::byte> stream, std::string_view name) {
  Bytes body;
  ByteWriter w(body);
  w.put_blob(std::as_bytes(std::span(name.data(), name.size())));
  w.put_blob(stream);
  const Bytes reply = call(Type::open, body, Type::open_ok);
  ByteReader r{std::span<const std::byte>(reply).subspan(5)};
  OpenInfo info;
  info.id = r.get<std::uint32_t>();
  info.levels = r.get<std::int32_t>();
  info.dims.nx = r.get<std::int64_t>();
  info.dims.ny = r.get<std::int64_t>();
  info.dims.nz = r.get<std::int64_t>();
  info.eb = r.get<double>();
  require_wire(r.exhausted(), "open reply has trailing bytes");
  return info;
}

FieldF Client::region(std::uint32_t id, int level, const tiled::Box& box) {
  Bytes body;
  ByteWriter w(body);
  w.put<std::uint32_t>(id);
  w.put<std::int32_t>(level);
  put_box(w, box);
  const Bytes reply = call(Type::region, body, Type::region_ok);
  return decode_region_ok(std::span(reply).subspan(5));
}

ProgressiveResult Client::read_progressive(std::uint32_t id, int level,
                                           const tiled::Box& box) {
  Bytes body;
  ByteWriter w(body);
  w.put<std::uint32_t>(id);
  w.put<std::int32_t>(level);
  put_box(w, box);
  const bool traced = trace_ != 0;
  const Bytes request =
      echo_trace(make_frame(Type::progressive, body), traced, trace_);
  const Bytes reply = send_(request);
  const std::span<const std::byte> buf(reply);

  ProgressiveResult out;
  Dim3 window_dims;  // level grid of the current window (out.data/out.box)
  bool have_coarse = false;
  // Record why refinement stopped but keep the refined-so-far window — the
  // point of coarse-first streaming is that a broken tail still leaves a
  // usable answer. Before the coarse frame lands there is nothing to keep,
  // so failures there throw instead.
  const auto degrade = [&](ProgressiveResult::Status st, std::string why) {
    out.status = st;
    out.error = std::move(why);
  };

  std::size_t pos = 0;
  while (pos < buf.size() && out.status == ProgressiveResult::Status::complete) {
    if (have_coarse && out.level == level) {
      degrade(ProgressiveResult::Status::frame_error,
              "trailing bytes past the requested level");
      break;
    }
    // Split one frame off the concatenated reply by its length prefix. A
    // cut anywhere — inside the prefix or inside the frame — degrades.
    std::uint32_t len = 0;
    if (buf.size() - pos >= sizeof(len)) std::memcpy(&len, buf.data() + pos, sizeof(len));
    if (buf.size() - pos < kHeaderBytes || len < 1 || len > kMaxFrameBytes ||
        buf.size() - pos - sizeof(len) < len) {
      if (!have_coarse)
        throw CodecError("wire: progressive reply truncated before the coarse frame");
      degrade(ProgressiveResult::Status::truncated,
              "progressive reply cut mid-frame");
      break;
    }
    const std::span<const std::byte> one =
        buf.subspan(pos, sizeof(len) + static_cast<std::size_t>(len));
    pos += one.size();

    try {
      const Frame f = parse_frame(one);
      const auto raw = static_cast<std::uint8_t>(f.type);
      const bool traced_reply = (raw & kTracedFlag) != 0;
      const Type reply_type = static_cast<Type>(raw & ~kTracedFlag);
      std::span<const std::byte> frame_body = f.body;
      std::uint64_t echoed = 0;
      if (traced_reply) {
        require_wire(frame_body.size() >= sizeof(std::uint64_t),
                     "traced progressive frame shorter than its trace id");
        std::memcpy(&echoed, frame_body.data() + frame_body.size() - sizeof(echoed),
                    sizeof(echoed));
        frame_body = frame_body.first(frame_body.size() - sizeof(echoed));
      }
      // EVERY frame of the multi-frame reply must echo the request's trace
      // id on its own — that is what lets the flight recorder stitch all N
      // frames into one span tree, and the client verifies it per frame.
      require_wire(traced == traced_reply, "progressive frame trace presence mismatch");
      if (traced) require_wire(echoed == trace_, "progressive frame trace id mismatch");
      if (reply_type == Type::error) {
        ByteReader er(frame_body);
        const auto code = er.get<std::uint8_t>();
        const std::span<const std::byte> msg = er.get_blob();
        const auto failed = er.get<std::uint8_t>();
        require_wire(er.exhausted(), "error reply has trailing bytes");
        std::string what(reinterpret_cast<const char*>(msg.data()), msg.size());
        if (!have_coarse) {
          ServerError err(static_cast<ServerError::Code>(code), what);
          err.failed_request = failed;
          err.trace = echoed;
          throw err;
        }
        degrade(ProgressiveResult::Status::frame_error,
                "server error mid-refinement: " + what);
        break;
      }
      require_wire(reply_type == Type::progressive_ok,
                   "unexpected progressive frame type");
      ProgressiveLayer layer = decode_progressive_ok(frame_body);
      if (!have_coarse) {
        require_wire(!layer.residual,
                     "first progressive frame must carry data, not a residual");
        require_wire(layer.level >= level, "coarse frame below the requested level");
        out.data = std::move(layer.data);
        out.box = layer.box;
        out.level = layer.level;
        window_dims = layer.level_dims;
        have_coarse = true;
      } else {
        require_wire(layer.residual, "refinement frame must carry a residual");
        require_wire(layer.level == out.level - 1,
                     "refinement frame out of level order");
        const Dim3 half = blocks_for(layer.level_dims, 2);
        require_wire(half.nx == window_dims.nx && half.ny == window_dims.ny &&
                         half.nz == window_dims.nz,
                     "refinement level extents break the halving chain");
        // The held coarse window must cover the prolongation footprint of
        // the incoming fine box, or refine() would read outside it.
        const Dim3 fine_ext{layer.box.hi.x - layer.box.lo.x,
                            layer.box.hi.y - layer.box.lo.y,
                            layer.box.hi.z - layer.box.lo.z};
        const SupportBox sup =
            prolong_support(window_dims, layer.level_dims, layer.box.lo, fine_ext);
        require_wire(out.box.lo.x <= sup.origin.x && out.box.lo.y <= sup.origin.y &&
                         out.box.lo.z <= sup.origin.z &&
                         sup.origin.x + sup.extent.nx <= out.box.hi.x &&
                         sup.origin.y + sup.extent.ny <= out.box.hi.y &&
                         sup.origin.z + sup.extent.nz <= out.box.hi.z,
                     "refinement box escapes the coarse window's support");
        out.data = progressive::refine(out.data, out.box, window_dims, layer.data,
                                       layer.box, layer.level_dims);
        out.box = layer.box;
        out.level = layer.level;
        window_dims = layer.level_dims;
      }
      out.frames.push_back(
          ProgressiveFrameInfo{layer.level, layer.box, one.size(), layer.residual});
    } catch (const CodecError& e) {
      if (!have_coarse) throw;
      degrade(ProgressiveResult::Status::frame_error, e.what());
      break;
    }
  }
  if (!have_coarse) throw CodecError("wire: empty progressive reply");
  if (out.status == ProgressiveResult::Status::complete && out.level != level)
    degrade(ProgressiveResult::Status::truncated,
            "progressive reply ended before the requested level");
  if (out.complete())
    require_wire(out.box.lo.x == box.lo.x && out.box.lo.y == box.lo.y &&
                     out.box.lo.z == box.lo.z && out.box.hi.x == box.hi.x &&
                     out.box.hi.y == box.hi.y && out.box.hi.z == box.hi.z,
                 "refined box does not match the request");
  return out;
}

int Client::choose_level(std::uint32_t id, const tiled::Box& fine_box,
                         std::uint64_t sample_budget) {
  Bytes body;
  ByteWriter w(body);
  w.put<std::uint32_t>(id);
  put_box(w, fine_box);
  w.put<std::uint64_t>(sample_budget);
  const Bytes reply = call(Type::lod, body, Type::lod_ok);
  ByteReader r{std::span<const std::byte>(reply).subspan(5)};
  const auto level = r.get<std::int32_t>();
  require_wire(r.exhausted(), "lod reply has trailing bytes");
  return level;
}

ServerStats Client::stats(std::uint32_t id) {
  Bytes body;
  ByteWriter w(body);
  w.put<std::uint32_t>(id);
  const Bytes reply = call(Type::stats, body, Type::stats_ok);
  return decode_stats_ok(std::span(reply).subspan(5));
}

std::string Client::metrics() {
  const Bytes reply = call(Type::metrics, {}, Type::metrics_ok);
  ByteReader r{std::span<const std::byte>(reply).subspan(5)};
  const std::span<const std::byte> text = r.get_blob();
  require_wire(r.exhausted(), "metrics reply has trailing bytes");
  return std::string(reinterpret_cast<const char*>(text.data()), text.size());
}

std::string Client::debug() {
  const Bytes reply = call(Type::debug, {}, Type::debug_ok);
  ByteReader r{std::span<const std::byte>(reply).subspan(5)};
  const std::span<const std::byte> text = r.get_blob();
  require_wire(r.exhausted(), "debug reply has trailing bytes");
  return std::string(reinterpret_cast<const char*>(text.data()), text.size());
}

void Client::close(std::uint32_t id) {
  Bytes body;
  ByteWriter w(body);
  w.put<std::uint32_t>(id);
  const Bytes reply = call(Type::close, body, Type::close_ok);
  require_wire(reply.size() == 5, "close reply has trailing bytes");
}

}  // namespace mrc::serve::wire
