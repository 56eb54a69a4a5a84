#pragma once

// Length-prefixed wire protocol of the serve::Server — the frame codec and a
// thin typed Client, both transport-agnostic: anything that can move a byte
// buffer and return the reply buffer (an in-process loopback in the tests
// and benches, a socket in a real deployment) can carry it.
//
// Frame layout (all integers little-endian, fixed width unless noted):
//
//   u32  length     — bytes that follow (type byte + body), in
//                     [1, kMaxFrameBytes], and must equal exactly what the
//                     buffer holds: no trailing garbage, no truncation
//   u8   type       — wire::Type, optionally OR'd with kTracedFlag
//   ...  body       — per-type payload (see wire.cpp encode/decode pairs)
//   [u64 trace]     — only when the type byte carries kTracedFlag: the
//                     client-generated request trace id, echoed verbatim on
//                     the reply — error frames included — so a client can
//                     attribute any reply under pipelining and the server
//                     can stitch the request's spans into one tree
//
// Validation before allocation, always: every count and extent in a frame is
// checked against the bytes actually present (and against hard caps — e.g.
// per-axis region extents <= 2^20) *before* any buffer is sized from it, so
// a hostile 48-bit length claim costs nothing. Malformed frames throw
// CodecError from the decode helpers; Server::handle_frame converts that to
// an error frame, and Client converts error frames into ServerError (the
// server-side code survives the round trip).

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "serve/server.h"

namespace mrc::serve::wire {

/// Protocol revision. 3 (minor bump over PR 8's 2) adds the progressive
/// read pair: the `progressive` request and the multi-frame `progressive_ok`
/// reply — the one request type whose reply buffer holds N concatenated
/// frames (coarse answer first, then one residual refinement per finer
/// level), each individually length-prefixed and each echoing the request's
/// trace id. Version 2 added optional per-request trace ids (kTracedFlag +
/// trailing u64, echoed on every reply including errors), the `debug`
/// flight-recorder frame, the split queue_high/queue_low fields in
/// stats_ok, and the failed-request-type byte in error frames. There is no
/// on-wire handshake yet (both ends of the loopback transport come from one
/// build); the constant documents the revision and lets a future hello
/// frame carry it.
inline constexpr std::uint32_t kWireVersion = 3;

/// Hard cap on `length` — a frame can never demand more than 1 GiB.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

/// Type-byte flag: the frame body ends with a trailing u64 trace id. Chosen
/// as 0x10 because no assigned type byte uses that bit — requests are
/// 0x01..0x0f, replies 0x81..0x8f, and `error` (0xee) has 0x10 clear.
inline constexpr std::uint8_t kTracedFlag = 0x10;

/// Per-axis cap on region extents in a frame (2^20 samples per axis; the
/// containers cap total samples at 2^40, so nothing real comes close).
inline constexpr std::uint64_t kMaxExtent = 1ull << 20;

/// Dataset-id wildcard: a stats request for the whole server.
inline constexpr std::uint32_t kAllDatasets = 0xffff'ffffu;

/// Frame types. Requests in the low range, replies with the high bit set;
/// `error` is the one reply any request may earn.
enum class Type : std::uint8_t {
  open = 0x01,    ///< name blob + stream blob
  region = 0x02,  ///< u32 id, i32 level, box (6 x i64)
  lod = 0x03,     ///< u32 id, box (6 x i64), u64 sample budget
  stats = 0x04,    ///< u32 id (kAllDatasets = server-wide)
  close = 0x05,    ///< u32 id
  metrics = 0x06,  ///< empty — the process-wide obs registry exposition
  debug = 0x07,    ///< empty — flight recorder + slow-log JSON
  progressive = 0x08,  ///< u32 id, i32 level, box (6 x i64)

  open_ok = 0x81,    ///< u32 id, i32 levels, dims (3 x i64), f64 eb
  region_ok = 0x82,  ///< extents (3 x i64), then extents-product f32 samples
  lod_ok = 0x83,     ///< i32 level
  stats_ok = 0x84,   ///< ServerStats fields (see wire.cpp)
  close_ok = 0x85,   ///< empty
  metrics_ok = 0x86, ///< Prometheus-style text blob (obs::render_text)
  debug_ok = 0x87,   ///< JSON text blob (obs::flight_json)
  /// One layer of a progressive reply: i32 level, u8 residual flag, level
  /// dims (3 x i64), box (6 x i64), then box-extent-product f32 samples.
  /// The reply to `progressive` is N of these concatenated in one buffer,
  /// coarsest first, every one echoing the request's trace id.
  progressive_ok = 0x88,
  error = 0xee,      ///< u8 ServerError::Code, message blob, u8 failed type
};

/// A parsed frame; `body` aliases the input buffer.
struct Frame {
  Type type = Type::error;
  std::span<const std::byte> body;
};

/// Validates and splits one complete frame: the length prefix must match the
/// buffer exactly. Throws CodecError otherwise (before looking at the body).
/// The type byte is returned raw — it may still carry kTracedFlag (see
/// parse_request, which strips it).
[[nodiscard]] Frame parse_frame(std::span<const std::byte> buf);

/// A request with its optional trace id split off: `type` has kTracedFlag
/// cleared, `body` excludes the trailing id bytes. `type` defaults to 0 —
/// "the frame never parsed" — which is what the server's flight record and
/// error frames report when parse_request itself throws.
struct Request {
  Type type = static_cast<Type>(0);
  bool traced = false;
  std::uint64_t trace = 0;
  std::span<const std::byte> body;
};

/// parse_frame + trace-id extraction. Throws CodecError when the frame is
/// malformed (including a traced frame too short to hold its id).
[[nodiscard]] Request parse_request(std::span<const std::byte> buf);

/// Wraps a body in the length + type framing.
[[nodiscard]] Bytes make_frame(Type t, std::span<const std::byte> body = {});

/// Stamps a finished frame with a trace id: sets kTracedFlag on the type
/// byte, appends the id, and fixes the length prefix. Identity when
/// `traced` is false. This is how every reply — error frames included —
/// echoes the request's id without each encode path knowing about tracing.
[[nodiscard]] Bytes echo_trace(Bytes frame, bool traced, std::uint64_t trace);

/// An error reply frame carrying a ServerError code + message + the request
/// type byte that failed (0 when the frame never parsed).
[[nodiscard]] Bytes make_error(ServerError::Code code, std::string_view what,
                               std::uint8_t failed_type = 0);

/// What open_ok reports about a freshly opened dataset.
struct OpenInfo {
  std::uint32_t id = 0;
  int levels = 0;
  Dim3 dims;  ///< finest-level extents
  double eb = 0.0;
};

/// One request/reply exchange: ships a frame, returns the reply frame bytes.
/// A progressive request's reply buffer holds N concatenated frames.
using Transport = std::function<Bytes(std::span<const std::byte>)>;

/// One applied frame of a progressive read, for byte accounting (`mrcc
/// region --progressive` prints bytes-streamed-per-level from these).
struct ProgressiveFrameInfo {
  int level = 0;
  tiled::Box box;
  std::size_t frame_bytes = 0;  ///< whole frame incl. length prefix + trace
  bool residual = false;
};

/// Outcome of Client::read_progressive. The client applies frames as they
/// parse, so even a truncated or mid-stream-error reply leaves `data`
/// holding the last fully refined window — a usable coarse answer — with a
/// typed status instead of an exception. Only a reply with *no* usable
/// coarse frame throws.
struct ProgressiveResult {
  enum class Status : std::uint8_t {
    complete,     ///< refined all the way to the requested level
    truncated,    ///< reply ended early (connection drop mid-refinement)
    frame_error,  ///< a malformed/error frame stopped refinement
  };
  FieldF data;     ///< reconstruction over `box` in level-`level` coordinates
  tiled::Box box;  ///< box of `data` (the requested box once complete)
  int level = 0;   ///< level actually reached (the requested one on complete)
  Status status = Status::complete;
  std::string error;  ///< what stopped refinement (empty on complete)
  std::vector<ProgressiveFrameInfo> frames;  ///< applied frames, coarsest first
  [[nodiscard]] bool complete() const { return status == Status::complete; }
};

/// Typed client over any Transport. Methods mirror the Server API; an error
/// frame in reply is rethrown as ServerError with the original code, and a
/// malformed reply throws CodecError.
class Client {
 public:
  explicit Client(Transport send) : send_(std::move(send)) {
    MRC_REQUIRE(send_ != nullptr, "wire: client needs a transport");
  }

  /// Trace id attached to every subsequent request (echoed by the server on
  /// the matching reply, which this client verifies). 0 turns tracing off.
  void set_trace(std::uint64_t id) { trace_ = id; }
  [[nodiscard]] std::uint64_t trace() const { return trace_; }

  OpenInfo open(std::span<const std::byte> stream, std::string_view name = {});
  [[nodiscard]] FieldF region(std::uint32_t id, int level, const tiled::Box& box);
  /// A coarse-first streaming read of a progressive (MRCR) dataset: ships
  /// one `progressive` request, splits the multi-frame reply, and refines
  /// in place — coarse data first, then prolong + residual per level — with
  /// every frame's trace echo, level sequence, support coverage and payload
  /// size validated before it is applied. On complete, `data` is bit-exact
  /// with region(id, level, box). A truncated or mid-stream-error reply
  /// degrades gracefully (see ProgressiveResult); a reply without one
  /// usable coarse frame throws ServerError/CodecError.
  [[nodiscard]] ProgressiveResult read_progressive(std::uint32_t id, int level,
                                                   const tiled::Box& box);
  [[nodiscard]] int choose_level(std::uint32_t id, const tiled::Box& fine_box,
                                 std::uint64_t sample_budget);
  [[nodiscard]] ServerStats stats(std::uint32_t id = kAllDatasets);
  /// The server process's obs registry as Prometheus-style text.
  [[nodiscard]] std::string metrics();
  /// The server process's flight recorder + slow-log as JSON.
  [[nodiscard]] std::string debug();
  void close(std::uint32_t id);

 private:
  /// Ships `body` under `t` (tagged with trace_ when set), validates the
  /// reply frame and its echoed trace id, rethrows error frames as
  /// ServerError (with failed_request/trace attribution filled in), and
  /// requires the reply type to be `expect`. Returns the reply buffer with
  /// any trace suffix already stripped (body = bytes past the 5-byte
  /// header).
  Bytes call(Type t, std::span<const std::byte> body, Type expect);

  Transport send_;
  std::uint64_t trace_ = 0;
};

// -- codec helpers shared by Server::handle_frame and Client ----------------
// (exposed for the fuzz tests; application code uses Server/Client)

void put_box(ByteWriter& w, const tiled::Box& box);
[[nodiscard]] tiled::Box get_box(ByteReader& r);  ///< validates 0 <= lo < hi, extent <= kMaxExtent

[[nodiscard]] Bytes encode_region_ok(const FieldF& f);
[[nodiscard]] FieldF decode_region_ok(std::span<const std::byte> body);

/// The whole reply to a progressive request: one progressive_ok frame per
/// layer (layout under Type), in order, each stamped with `trace` when
/// `traced`. Written in place into one buffer sized up front, so every
/// sample is copied once.
[[nodiscard]] Bytes encode_progressive_reply(std::span<const ProgressiveLayer> layers,
                                             bool traced, std::uint64_t trace);
/// Validates level, flag, dims, box-within-dims and payload == extent
/// product * 4 BEFORE the sample buffer is allocated.
[[nodiscard]] ProgressiveLayer decode_progressive_ok(std::span<const std::byte> body);

[[nodiscard]] Bytes encode_stats_ok(const ServerStats& s);
[[nodiscard]] ServerStats decode_stats_ok(std::span<const std::byte> body);

}  // namespace mrc::serve::wire
