#pragma once
// Fixed-capacity per-thread span tracer. `TRACE_SCOPE("orch.serve_epoch")`
// records an RAII span into the calling thread's ring buffer; full rings
// overwrite the oldest span and count the drop, so tracing never
// allocates or blocks on the hot path. Disabled cost is one relaxed
// atomic load and a branch.
//
// Timestamps are *sim-clock* microseconds (fed via set_sim_now from the
// epoch loop), so a trace dump is bit-identical across runs and across
// `epoch_threads` settings — determinism_test runs with tracing enabled.
// Wall-clock durations are opt-in (set_wall_clock) and reserved for
// benches and live deployments; they must never feed instruments that
// determinism_test compares. See docs/observability.md.
//
// Trace context. Every span carries a trace id, its own span id, and a
// parent span id, so a federation-wide request (broker placement → edge
// admission → domain install) reads as one tree even when the hops cross
// process boundaries. Identity is built to be *transport-invariant*:
//
//  - A span id is (component-key << 40) | per-component sequence, where
//    the component key is a stable 24-bit hash of the component *name*
//    ("" for the broker/control plane, "edge.r0"... for regions) and the
//    sequence restarts from 1 at clear(). Whether a region's spans are
//    recorded in the broker's process (in-process edges) or in a remote
//    edge process, the ids come out identical.
//  - Trace ids are allocated only when a *root* span (no live enclosing
//    span, no adopted context) opens. Handlers always run nested, under
//    a ContextScope adopted from the X-Slices-Trace header (in-process
//    that is the caller's own live context), so only the driving process
//    allocates, and the sequence matches the in-process run.
//  - Span ids exceed 2^53, so JSON exports serialize trace/span/parent
//    ids as decimal strings, never as numbers.
//
// Threading: each lane is written only by its owning thread.
// snapshot/export/clear walk every lane and must run at a quiescent
// point (no concurrent TRACE_SCOPEs), which holds everywhere we call
// them: REST handlers and benches run on the control thread while the
// pool is idle between epochs.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "json/value.hpp"

namespace slices::telemetry::trace {

/// One completed scope, recorded at exit.
struct Span {
  const char* name = nullptr;     // static string from TRACE_SCOPE
  std::int64_t sim_us = 0;        // sim clock at scope entry
  std::int64_t wall_start_ns = -1;  // wall-clock entry, -1 when wall off
  std::int64_t wall_dur_ns = -1;    // wall-clock duration, -1 when wall off
  std::uint64_t trace = 0;        // trace id (0 = recorded while untraced)
  std::uint64_t span = 0;         // this span's id
  std::uint64_t parent = 0;       // enclosing span id (0 = trace root)
  std::uint64_t seq = 0;          // per-lane sequence number
  std::uint32_t depth = 0;        // nesting depth at entry (0 = top level)
  std::uint32_t component = 0;    // intern index (0 = broker/control plane)
};

/// Cross-hop trace context: what X-Slices-Trace carries. `sim_us` slaves
/// the callee process's sim clock to the caller at the request boundary,
/// so remote spans timestamp exactly like their in-process twins.
struct Context {
  std::uint64_t trace = 0;
  std::uint64_t parent = 0;
  std::uint32_t depth = 0;
  std::int64_t sim_us = 0;

  [[nodiscard]] bool valid() const noexcept { return trace != 0; }
};

/// Name of the HTTP header carrying an encoded Context.
inline constexpr const char* kContextHeader = "X-Slices-Trace";

/// Stable resolved component (name interned once, sequence per clear()).
/// Held by pointer in thread lanes; never relocated or freed.
struct Component {
  std::string name;
  std::uint64_t key = 0;  // 24-bit stable hash of name; 0 for ""
  std::atomic<std::uint64_t> next_seq{0};
};

/// Pre-resolved component handle for ComponentScope (no lock per scope).
struct ComponentRef {
  std::uint32_t index = 0;
  Component* ptr = nullptr;
};

/// Bookkeeping captured when a scope opens; consumed at exit.
struct EntryToken {
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  std::uint32_t depth = 0;
  std::uint32_t component = 0;
  bool new_trace = false;  // this entry allocated the trace id
};

/// Process-wide tracer: one ring-buffer lane per participating thread.
class Tracer {
 public:
  static constexpr std::size_t kDefaultLaneCapacity = 8192;
  /// Low bits of a span id hold the per-component sequence; high bits
  /// the component key.
  static constexpr std::uint32_t kComponentShift = 40;

  static Tracer& instance();

  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Opt into wall-clock span durations. Off by default: wall values are
  /// nondeterministic and must stay out of anything determinism_test
  /// compares.
  void set_wall_clock(bool on) noexcept { wall_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool wall_clock() const noexcept {
    return wall_.load(std::memory_order_relaxed);
  }

  /// Publish the sim clock (µs); called by the epoch loop before tracing.
  void set_sim_now(std::int64_t us) noexcept { sim_now_us_.store(us, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t sim_now() const noexcept {
    return sim_now_us_.load(std::memory_order_relaxed);
  }

  /// Ring capacity per lane. Applies immediately to lanes created after
  /// the call and to *existing* lanes at the next clear() — a live ring
  /// is only resized at a quiescent point, where its spans are being
  /// dropped anyway. status_json() reports each lane's actual capacity
  /// so a pending resize is visible.
  void set_lane_capacity(std::size_t spans) noexcept {
    lane_capacity_.store(spans == 0 ? 1 : spans, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t lane_capacity() const noexcept {
    return lane_capacity_.load(std::memory_order_relaxed);
  }

  /// Intern `name` (idempotent) and return a handle for ComponentScope.
  /// Index 0 is the default "" component (broker / control plane).
  ComponentRef intern_component(std::string_view name);

  /// Open a scope on the calling thread: assigns the span id, pushes the
  /// parent chain, allocates a trace id at roots.
  EntryToken enter() noexcept;
  /// Close the scope opened by `token` (restores parent chain / depth).
  void exit(const EntryToken& token) noexcept;

  /// Record a completed span into the calling thread's lane.
  void record(const char* name, const EntryToken& token, std::int64_t sim_us,
              std::int64_t wall_start_ns, std::int64_t wall_dur_ns) noexcept;

  /// The calling thread's live context (for stamping outbound requests).
  /// trace == 0 when no span is open.
  [[nodiscard]] Context current_context() noexcept;

  /// Adopt a carried context on the calling thread; returns the state to
  /// restore. Used by ContextScope.
  [[nodiscard]] Context adopt_context(const Context& ctx) noexcept;
  void restore_context(const Context& saved) noexcept;

  /// Swap the calling thread's component; returns the previous ref.
  [[nodiscard]] ComponentRef swap_component(const ComponentRef& ref) noexcept;

  // -- quiescent-point operations ------------------------------------
  /// Total retained spans across lanes.
  [[nodiscard]] std::size_t span_count() const;
  /// Spans overwritten because a lane ring was full.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Drop all retained spans and restart identity: per-lane rings (and
  /// drop counters), trace-id allocation, and per-component sequences
  /// all reset, and a pending set_lane_capacity takes effect.
  void clear();
  /// {"enabled","wall_clock","spans","dropped","lanes","lane_detail":
  ///  [{"tid","spans","dropped","capacity"}]}.
  [[nodiscard]] json::Value status_json() const;
  /// Chrome trace-event JSON ("traceEvents" array of "X" phases),
  /// loadable in Perfetto / chrome://tracing. Lanes emit in registration
  /// order, spans oldest-first; with wall clock off, ts is the sim clock
  /// and the output is deterministic. Trace/span/parent ids appear in
  /// args as decimal strings.
  void export_chrome_json(std::string& out) const;
  /// JSON array of one component's spans across all lanes, sorted by the
  /// span-id sequence (assignment order). Bytes are transport-invariant:
  /// a region exported from its own process matches the same region
  /// exported from the broker process of an in-process run. Ids are
  /// decimal strings.
  void export_component_spans_json(std::uint32_t component, std::string& out) const;

 private:
  struct Lane {
    std::vector<Span> ring;
    std::size_t next = 0;       // write cursor
    std::size_t size = 0;       // retained spans (<= ring.size())
    std::uint64_t seq = 0;      // per-lane span sequence
    std::uint64_t dropped = 0;  // overwritten spans
    std::uint32_t depth = 0;    // live nesting depth
    std::uint64_t cur_trace = 0;   // live trace id (0 = none)
    std::uint64_t cur_parent = 0;  // innermost open span id
    std::uint32_t component = 0;   // active component index
    Component* comp = nullptr;     // resolved active component
    int tid = 0;                // stable lane id for the exporter
  };

  Tracer();
  Lane& local_lane();

  std::atomic<bool> enabled_{false};
  std::atomic<bool> wall_{false};
  std::atomic<std::int64_t> sim_now_us_{0};
  std::atomic<std::size_t> lane_capacity_{kDefaultLaneCapacity};
  std::atomic<std::uint64_t> next_trace_id_{0};

  mutable std::mutex lanes_mutex_;  // guards lanes_ / components_ growth only
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::unique_ptr<Component>> components_;
};

/// Encode `ctx` as the X-Slices-Trace wire value:
/// "<trace>-<parent>-<depth>-<sim_us>" (decimal).
void encode_context(const Context& ctx, std::string& out);
/// Parse an X-Slices-Trace value; returns an invalid Context on garbage.
[[nodiscard]] Context parse_context(std::string_view value);

/// RAII scope: snapshots the sim clock (and wall clock when enabled) at
/// entry, records the span at exit. No-op while tracing is disabled.
class Scope {
 public:
  explicit Scope(const char* name) noexcept {
    Tracer& t = Tracer::instance();
    if (!t.enabled()) return;
    name_ = name;
    sim_us_ = t.sim_now();
    token_ = t.enter();
    if (t.wall_clock()) {
      wall_start_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count();
    }
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  ~Scope() {
    if (name_ == nullptr) return;
    Tracer& t = Tracer::instance();
    std::int64_t wall_dur_ns = -1;
    if (wall_start_ns_ >= 0) {
      const std::int64_t end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                      std::chrono::steady_clock::now().time_since_epoch())
                                      .count();
      wall_dur_ns = end_ns - wall_start_ns_;
    }
    t.record(name_, token_, sim_us_, wall_start_ns_, wall_dur_ns);
    t.exit(token_);
  }

 private:
  const char* name_ = nullptr;
  std::int64_t sim_us_ = 0;
  std::int64_t wall_start_ns_ = -1;
  EntryToken token_;
};

/// RAII adoption of a carried Context (the serving side of a RestBus or
/// HttpServer exchange). Spans opened inside parent the caller's span on
/// either transport. No-op for invalid contexts or disabled tracing.
class ContextScope {
 public:
  explicit ContextScope(const Context& ctx) noexcept {
    Tracer& t = Tracer::instance();
    if (!t.enabled() || !ctx.valid()) return;
    saved_ = t.adopt_context(ctx);
    active_ = true;
  }

  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

  ~ContextScope() {
    if (active_) Tracer::instance().restore_context(saved_);
  }

 private:
  Context saved_;
  bool active_ = false;
};

/// RAII component attribution: spans opened inside are tagged with (and
/// id-keyed by) `ref`'s component instead of the thread's current one.
class ComponentScope {
 public:
  explicit ComponentScope(const ComponentRef& ref) noexcept {
    Tracer& t = Tracer::instance();
    if (!t.enabled() || ref.ptr == nullptr) return;
    saved_ = t.swap_component(ref);
    active_ = true;
  }

  ComponentScope(const ComponentScope&) = delete;
  ComponentScope& operator=(const ComponentScope&) = delete;

  ~ComponentScope() {
    if (active_) (void)Tracer::instance().swap_component(saved_);
  }

 private:
  ComponentRef saved_;
  bool active_ = false;
};

// Convenience forwarders onto the singleton.
inline void set_enabled(bool on) noexcept { Tracer::instance().set_enabled(on); }
[[nodiscard]] inline bool enabled() noexcept { return Tracer::instance().enabled(); }
inline void set_wall_clock(bool on) noexcept { Tracer::instance().set_wall_clock(on); }
[[nodiscard]] inline bool wall_clock() noexcept { return Tracer::instance().wall_clock(); }
inline void set_sim_now(std::int64_t us) noexcept { Tracer::instance().set_sim_now(us); }
inline void clear() { Tracer::instance().clear(); }

}  // namespace slices::telemetry::trace

#define SLICES_TRACE_CONCAT_INNER(a, b) a##b
#define SLICES_TRACE_CONCAT(a, b) SLICES_TRACE_CONCAT_INNER(a, b)
/// Record the enclosing scope as a span named `name` (a string literal).
#define TRACE_SCOPE(name) \
  ::slices::telemetry::trace::Scope SLICES_TRACE_CONCAT(slices_trace_scope_, __COUNTER__) { name }
