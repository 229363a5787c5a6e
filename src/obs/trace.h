// Per-task trace spans (ISSUE 2 + ISSUE 8, DESIGN.md §5b/§5d): every task
// attempt leaves two spans — a `queued` span (submission → dispatch) and a
// `run` span (dispatch → terminal state) — tagged with worker id, attempt
// number and outcome; the causal-tracing layer adds `ingest`, `refit`,
// `decision` and `recovery` spans around them. Spans land in a bounded
// ring buffer that overwrites its oldest entries, so a long-lived process
// keeps the most recent window of activity at fixed memory cost; every
// overwrite is accounted in the `obs.trace.dropped_spans` counter (visible
// in /metrics and /snapshot.json), so a consumer can tell a quiet system
// from one whose ring is thrashing.
//
// Causal lineage (ISSUE 8): a span may carry a 128-bit trace id, its own
// 64-bit span id and a parent span id (obs/trace_context.h), plus
// free-form key/value attributes (claim id, shard, engine, …). Spans of
// one trace form a tree — ingest span → Work Queue attempt spans
// (including retries and speculative duplicates) → refit/recovery spans →
// decision — reconstructible via /trace.json?trace_id=…
//
// Timestamps are runtime-relative seconds (the emitting clock: WorkQueue's
// master stopwatch or SimCluster's simulated clock). The Chrome exporter
// (obs/export.h) turns the spans into `trace_event` JSON — with flow
// events stitching parent→child edges across threads — that loads in
// about:tracing / Perfetto.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace sstd::obs {

enum class SpanPhase : std::uint8_t {
  kQueued,    // task attempt: submission → dispatch
  kRun,       // task attempt: dispatch → terminal state
  kIngest,    // a sampled report entering the system
  kRefit,     // one per-claim Baum-Welch refit
  kDecision,  // a claim's estimate flipped
  kRecovery,  // shard or node rebuild from snapshot + WAL replay
};

enum class SpanOutcome : std::uint8_t {
  kDispatched,  // queued span: left the queue onto a worker
  kDone,        // run span: attempt produced the result
  kFailed,      // run span: attempt failed, retries exhausted (quarantine)
  kRetried,     // run span: attempt failed, a retry was scheduled
  kAborted,     // run span: fast-abort cancelled the attempt
  kEvicted,     // run span: worker crash took the attempt down
};

const char* span_phase_name(SpanPhase phase);
const char* span_outcome_name(SpanOutcome outcome);

struct TraceSpan {
  std::uint64_t task = 0;
  std::uint32_t job = 0;
  std::uint32_t worker = 0;
  int attempt = 0;  // 0-based attempt index
  SpanPhase phase = SpanPhase::kRun;
  SpanOutcome outcome = SpanOutcome::kDone;
  bool speculative = false;
  double begin_s = 0.0;
  double end_s = 0.0;

  // Causal lineage (zero = untraced span, the pre-ISSUE-8 shape).
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;

  // Key/value attributes (claim id, shard, engine, interval, …).
  // Recording copies them into the ring; span recording happens at task
  // state transitions and sampled events, rare enough that the
  // allocations don't register.
  std::vector<std::pair<std::string, std::string>> attrs;

  bool traced() const { return (trace_hi | trace_lo) != 0; }
  // First value for `key`; empty when absent.
  const std::string& attr(const std::string& key) const;
};

// Bounded, thread-safe span sink. Recording is a short critical section
// (move into a preallocated slot); recording happens at task state
// transitions, orders of magnitude rarer than counter increments.
class TraceRecorder {
 public:
  // Drop accounting lands in `registry` as obs.trace.dropped_spans /
  // obs.trace.recorded_spans counters (surfaced via /metrics and
  // /snapshot.json). A ring that wraps silently would hide exactly the
  // evidence a post-incident trace query needs.
  explicit TraceRecorder(std::size_t capacity = 8192,
                         MetricsRegistry* registry = nullptr);

  void record(TraceSpan span);

  // Retained spans, oldest first.
  std::vector<TraceSpan> snapshot() const;
  // Retained spans of one trace, oldest first.
  std::vector<TraceSpan> trace(std::uint64_t trace_hi,
                               std::uint64_t trace_lo) const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  // Total spans ever recorded / overwritten by ring wrap-around.
  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

  void clear();

  // Process-wide default recorder the runtime records into (drop
  // accounting in the global registry).
  static TraceRecorder& global();

 private:
  const std::size_t capacity_;
  Counter* recorded_counter_;
  Counter* dropped_counter_;
  mutable std::mutex mu_;
  std::vector<TraceSpan> ring_;
  std::size_t next_ = 0;  // slot the next span lands in once full
  std::uint64_t total_ = 0;
  std::uint64_t dropped_ = 0;
};

// How a causal span hangs off the context it is recorded for.
enum class SpanEdge : std::uint8_t {
  kRoot,   // the span *is* the context: its id is ctx.span_id, no parent
  kChild,  // a freshly minted span id whose parent is ctx.span_id
};

// Records one causal span (ingest, refit, decision, recovery; outcome
// kDone) of `ctx`'s trace into the global recorder. No-op unless `ctx` is
// a valid, sampled context. Attempt spans are built by WorkQueue and
// SimCluster instead: they carry task, worker and attempt fields that no
// causal span has.
void record_causal_span(
    const TraceContext& ctx, SpanEdge edge, SpanPhase phase,
    std::uint32_t job, double begin_s, double end_s,
    std::vector<std::pair<std::string, std::string>> attrs);

}  // namespace sstd::obs
