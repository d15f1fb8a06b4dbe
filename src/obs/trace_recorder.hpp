#pragma once
// Fleet-wide request-lifecycle tracing.  The cluster layer (router,
// scheduler, disagg coordinator, autoscaler, chaos) records structured
// events on the shared simulated clock; the recorder renders them after the
// run as Chrome Trace Event JSON (loadable in ui.perfetto.dev / chrome://
// tracing) or as JSONL for programmatic analysis.
//
// Hot-path cost is the whole design: recording pushes one POD struct into a
// vector — no strings, no allocation beyond vector growth, no formatting.
// Names, categories and argument keys are static per-event-type tables
// applied only at export.  Every hook in the simulator is guarded by a null
// check on the recorder pointer, so a fleet without telemetry attached pays
// a single branch per hook (`bench_telemetry_overhead` gates the attached
// cost below 5%).
//
// Perfetto lane mapping:
//   pid 0        = "fleet" control plane (router / autoscaler / interconnect
//                  / chaos threads)
//   pid i+1      = replica i ("engine" thread: prefill/chunk/decode spans;
//                  "lifecycle" thread: admit/complete/handoff instants)
//   async b/e    = per-request journey lanes (cat "request", id = request
//                  id): queued → run → migrate → run, grouped by id
//   flow s/t/f   = KV-migration arrows from the prefill replica's engine
//                  lane to the decode replica's
//
// Everything runs on the simulated clock, so with a fixed seed the recorded
// byte stream is deterministic — the telemetry golden test pins it.
//
// Thread-safety contract: a TraceRecorder is EXTERNALLY SYNCHRONIZED — it
// holds no lock, and every method assumes single-threaded access.  The
// cluster simulator records from its one event-loop thread; keep it that way
// rather than adding locks here (a mutex per recorded POD would dwarf the
// <5% telemetry budget).

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace liquid::obs {

/// Trace process/thread layout (see file comment).
inline constexpr std::int32_t kFleetPid = 0;
inline constexpr std::int32_t kTidRouter = 1;
inline constexpr std::int32_t kTidAutoscaler = 2;
inline constexpr std::int32_t kTidInterconnect = 3;
inline constexpr std::int32_t kTidChaos = 4;
/// Replica-process thread ids.
inline constexpr std::int32_t kTidEngine = 1;
inline constexpr std::int32_t kTidLifecycle = 2;
[[nodiscard]] constexpr std::int32_t ReplicaPid(std::size_t replica) {
  return static_cast<std::int32_t>(replica) + 1;
}

enum class TraceEventType : std::uint8_t {
  // Fleet control plane (pid 0).
  kArrival,           ///< a0 prompt_tokens, a1 max_new_tokens, a2 attempt
  kRoute,             ///< a0 replica, a1 predicted_ttft; ext = scorer terms
  kReject,            ///< a0 best predicted_ttft (SLO shed)
  kNoReplica,         ///< fleet-level drop: nothing alive to route to
  kRetryScheduled,    ///< a0 attempt, a1 release time
  kRetriesExhausted,  ///< a0 attempt
  kKill,              ///< a0 replica, a1 lost in-flight requests
  kDegrade,           ///< a0 replica, a1 slowdown factor
  kScaleUp,           ///< a0 replica, a1 pool, a2 signal value
  kScaleDown,         ///< a0 replica, a1 pool, a2 signal value
  kAutoscaleTick,
  kMigrationBegin,    ///< a0 src, a1 dst, a2 bytes
  kMigrationLand,     ///< a0 src, a1 dst, a2 visible stall seconds
  kMigrationReroute,  ///< a0 src, a1 new dst
  kTargetDeath,       ///< a0 dst that died mid-transfer
  kLocalFallback,     ///< a0 src decoding its own handoff
  kImportOom,         ///< a0 dst whose pool could not hold the KV

  // Replica plane (pid = replica + 1).
  kAdmit,         ///< instant; a0 cached prefix tokens credited
  kPrefill,       ///< span; a0 prompt tokens, a1 cached tokens
  kPrefillChunk,  ///< span; a0 chunk tokens, a1 prior tokens
  kDecodeStep,    ///< span; a0 batch size, a1 mean KV length
  kPrefixHit,     ///< instant; a0 cached prefix tokens
  kComplete,      ///< instant; a0 generated tokens, a1 TTFT seconds
  kHandoffExport, ///< instant; a0 exported KV tokens
  kPreempt,       ///< instant; a0 tokens generated this residency
  kPoolDrop,      ///< instant; prompt can never fit this pool

  // Per-request journey stages (async lanes under pid 0, cat "request").
  kStageQueued,   ///< a0 replica
  kStageRun,      ///< a0 replica
  kStageMigrate,  ///< a0 src, a1 dst
};

[[nodiscard]] const char* ToString(TraceEventType type);

enum class TracePhase : std::uint8_t {
  kInstant,
  kSpan,
  kAsyncBegin,
  kAsyncEnd,
  kFlowStart,
  kFlowStep,
  kFlowEnd,
};

/// One recorded event.  POD on purpose: recording must never allocate or
/// format (see file comment).
struct TraceEvent {
  TraceEventType type = TraceEventType::kArrival;
  TracePhase phase = TracePhase::kInstant;
  std::int32_t pid = kFleetPid;
  std::int32_t tid = kTidRouter;
  double t = 0;    ///< simulated seconds
  double dur = 0;  ///< span duration (kSpan only)
  std::uint64_t id = 0;  ///< request id (or replica id for fleet events)
  double a0 = 0, a1 = 0, a2 = 0;
  /// Variable-length (key, value) tail in the recorder's side pool (route
  /// decisions carry the scorer term breakdown here).
  std::uint32_t ext_off = 0, ext_len = 0;
};

/// One named value in an event's variable-length tail.  Keys must be string
/// literals (static storage): the recorder stores the pointer.
struct TraceArg {
  const char* key = "";
  double value = 0;
};

class TraceRecorder {
 public:
  void Reserve(std::size_t events) { events_.reserve(events); }

  /// Names a Perfetto process lane (replica or the fleet control plane).
  /// `sort_index` orders lanes top-to-bottom in the UI.
  void DeclareProcess(std::int32_t pid, std::string name, int sort_index);
  void DeclareThread(std::int32_t pid, std::int32_t tid, std::string name);

  void Instant(TraceEventType type, double t, std::int32_t pid,
               std::int32_t tid, std::uint64_t id, double a0 = 0,
               double a1 = 0, double a2 = 0);
  /// Instant carrying a variable-length (key, value) breakdown.
  void InstantWithArgs(TraceEventType type, double t, std::int32_t pid,
                       std::int32_t tid, std::uint64_t id, double a0,
                       double a1, double a2, std::span<const TraceArg> ext);
  void Span(TraceEventType type, double start, double dur, std::int32_t pid,
            std::int32_t tid, std::uint64_t id, double a0 = 0, double a1 = 0,
            double a2 = 0);
  /// Opens/closes one stage slice in the request's async journey lane.
  void AsyncBegin(TraceEventType type, double t, std::uint64_t id,
                  double a0 = 0, double a1 = 0, double a2 = 0);
  void AsyncEnd(TraceEventType type, double t, std::uint64_t id);
  /// KV-migration flow arrow anchor (binds to the engine-lane slice
  /// containing `t` on (pid, tid)).
  void Flow(TracePhase phase, double t, std::int32_t pid, std::int32_t tid,
            std::uint64_t id);

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  void Clear();

  /// Chrome Trace Event JSON (the `{"traceEvents": [...]}` envelope);
  /// deterministic byte-for-byte for a fixed event sequence.
  [[nodiscard]] std::string ToChromeTraceJson() const;
  /// One JSON object per line, in record order — the programmatic decision
  /// log (learned routing weights replay the `route` lines).
  [[nodiscard]] std::string ToJsonl() const;
  bool WriteChromeTrace(const std::string& path) const;
  bool WriteJsonl(const std::string& path) const;

 private:
  struct NameDecl {
    std::int32_t pid = 0;
    std::int32_t tid = 0;
    bool is_thread = false;
    int sort_index = 0;
    std::string name;
  };

  std::vector<TraceEvent> events_;
  std::vector<TraceArg> ext_pool_;
  std::vector<NameDecl> decls_;
};

}  // namespace liquid::obs
