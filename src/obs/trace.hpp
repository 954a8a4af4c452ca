// Structured event tracing (ISSUE 6 tentpole): ring-buffered trace events
// with Chrome trace-event (chrome://tracing / Perfetto) and CSV exporters.
//
// Two timestamp domains, never mixed in one ring:
//
//   sim-time    TraceRing attached to one Simulator (one per sweep cell).
//               Timestamps are deterministic simulated seconds, so the
//               exported trace is a pure function of the scenario spec —
//               bitwise identical across thread counts, and recording it
//               cannot perturb results (the ring is write-only).
//   wall-clock  the process-wide profiling ring (global_trace()) fed by
//               OBS_SPAN scopes and serve-side events (batch formation,
//               checkpoint hot-reload).
//
// Rings are fixed-capacity and overwrite the oldest events when full (the
// recorded total keeps counting, so exporters report drops). record() is a
// relaxed atomic slot claim plus a seqlocked slot write — no locks, no
// heap, so instrumented steady-state loops stay allocation-free — and
// snapshot() may run while writers record: it returns only whole events.
//
// Event names are `const char*` and must point at static storage
// (literals); the ring stores the pointer, not a copy.
//
// Chrome JSON mapping: one sim second (or wall microsecond) maps to one
// viewer microsecond — a month-long scenario renders as a ~2.6s timeline.
// `pid` is the track group (sweep cell index), `tid` the track (partition
// id, or thread slot for wall rings). Jobs export as complete "X" slices
// [start, end]; point events (kills, preemptions, cluster events) as
// instants "i".
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace mirage::obs {

enum class TraceEventKind : std::uint8_t {
  kJobRun,            ///< one scheduled run of a job: slice [ts, ts+dur]
  kJobKill,           ///< instant: job killed by an outage
  kJobPreempt,        ///< instant: job checkpointed/requeued
  kJobRequeue,        ///< instant: preempted job re-entered the queue
  kClusterEvent,      ///< instant: capacity event applied (arg0 = type)
  kCellStart,         ///< sweep-cell lifecycle begin
  kCellFinish,        ///< sweep-cell lifecycle end (dur = wall us)
  kBatchFormed,       ///< serve: one engine tick (arg0 = batch size, arg1 = tick id)
  kCheckpointReload,  ///< serve: registry loaded/hot-swapped a model
  kSpan,              ///< OBS_SPAN profiling scope: slice [ts, ts+dur]
  kRequestBegin,      ///< serve: request minted (arg0 = request id, arg1 = session id)
  kRequestEnqueue,    ///< serve: request entered the engine ring (arg0 = id, arg1 = slot)
  kRequestComplete,   ///< serve: journey slice [enqueue, served] (arg0 = id, arg1 = tick id)
};

const char* trace_event_kind_name(TraceEventKind k);

struct TraceEvent {
  std::int64_t ts = 0;    ///< sim seconds or wall microseconds
  std::int64_t dur = 0;   ///< slice duration (same unit); 0 for instants
  std::int64_t arg0 = 0;  ///< kind-specific (job id, batch size, ...)
  std::int64_t arg1 = 0;  ///< kind-specific (nodes, version, ...)
  const char* name = "";  ///< static string (slice label)
  std::uint32_t tid = 0;  ///< track: partition id / thread slot
  TraceEventKind kind = TraceEventKind::kSpan;

  bool is_slice() const {
    return kind == TraceEventKind::kJobRun || kind == TraceEventKind::kSpan ||
           kind == TraceEventKind::kCellStart || kind == TraceEventKind::kCellFinish ||
           kind == TraceEventKind::kRequestComplete;
  }
};

/// Fixed-capacity multi-writer ring. record() never allocates; the buffer
/// is sized at construction (or attach time) and old events are
/// overwritten once `capacity` is exceeded.
///
/// Each slot is a seqlock: ticket t (the writer's cursor value) moves the
/// slot's sequence from even to 2t+1, stores the event's words, then
/// publishes 2t+2. snapshot() keeps event i only if the sequence reads
/// 2i+2 before and after the copy. A writer that finds the slot odd (the
/// ring wrapped within one write) drops its event.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 1 << 14);

  /// Drop-in recording gate: rings can be individually disabled (a
  /// disabled ring records nothing; hooks stay wired).
  void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  bool recording() const { return recording_.load(std::memory_order_relaxed); }

  void record(const TraceEvent& ev) {
    if (!recording()) return;
    const std::uint64_t ticket = cursor_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[static_cast<std::size_t>(ticket % slots_.size())];
    std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    if ((seq & 1) != 0 || !slot.seq.compare_exchange_strong(seq, 2 * ticket + 1,
                                                            std::memory_order_acquire,
                                                            std::memory_order_relaxed)) {
      return;
    }
    std::atomic_thread_fence(std::memory_order_release);
    std::uint64_t words[kWords];
    std::memcpy(words, &ev, sizeof ev);
    for (std::size_t w = 0; w < kWords; ++w) {
      slot.words[w].store(words[w], std::memory_order_relaxed);
    }
    slot.seq.store(2 * ticket + 2, std::memory_order_release);
  }

  std::size_t capacity() const { return slots_.size(); }
  /// Total events recorded since the last clear (may exceed capacity).
  std::uint64_t recorded() const { return cursor_.load(std::memory_order_relaxed); }
  std::uint64_t dropped() const {
    const std::uint64_t n = recorded();
    return n > slots_.size() ? n - slots_.size() : 0;
  }

  /// Events in recording order (oldest surviving first). Safe against
  /// concurrent record(): slots being written or overwritten during the
  /// copy are left out.
  std::vector<TraceEvent> snapshot() const;

  /// Forget every event. Not safe against concurrent record().
  void clear();

 private:
  static constexpr std::size_t kWords = sizeof(TraceEvent) / sizeof(std::uint64_t);
  static_assert(sizeof(TraceEvent) % sizeof(std::uint64_t) == 0);
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  ///< 2t+1 while ticket t writes, 2t+2 after
    std::atomic<std::uint64_t> words[kWords] = {};  ///< the TraceEvent's bytes
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<bool> recording_{true};
};

/// Process-wide wall-clock profiling ring (OBS_SPAN + serve events).
/// Recording obeys obs::enabled() at the hook sites.
TraceRing& global_trace();

/// One named export track: a ring plus the label and pid its events render
/// under ("cell 3: a100/u0.95/d8/outage" with pid=3).
struct TraceTrack {
  std::string label;
  std::uint32_t pid = 0;
  const TraceRing* ring = nullptr;
};

/// Chrome trace-event JSON ({"traceEvents":[...],"displayTimeUnit":"ms"}).
/// Deterministic: output depends only on ring contents and track order.
std::string to_chrome_json(const std::vector<TraceTrack>& tracks);

/// Flat CSV (track,pid,tid,kind,name,ts,dur,arg0,arg1), same ordering.
std::string to_trace_csv(const std::vector<TraceTrack>& tracks);

/// Minimal structural validation of an exported Chrome trace: JSON parses
/// (objects/arrays/strings/numbers/bools/null), top level is an object
/// with a "traceEvents" array, and every event object carries the
/// required "name"/"ph"/"ts"/"pid"/"tid" keys. False + diagnostic
/// otherwise. Used by tests and the --trace smoke in CI.
bool validate_chrome_trace(const std::string& json, std::string* error = nullptr);

}  // namespace mirage::obs
