#include "obs/trace.h"

#include <algorithm>

namespace sstd::obs {

const char* span_phase_name(SpanPhase phase) {
  switch (phase) {
    case SpanPhase::kQueued: return "queued";
    case SpanPhase::kRun: return "run";
    case SpanPhase::kIngest: return "ingest";
    case SpanPhase::kRefit: return "refit";
    case SpanPhase::kDecision: return "decision";
    case SpanPhase::kRecovery: return "recovery";
  }
  return "?";
}

const char* span_outcome_name(SpanOutcome outcome) {
  switch (outcome) {
    case SpanOutcome::kDispatched: return "dispatched";
    case SpanOutcome::kDone: return "done";
    case SpanOutcome::kFailed: return "failed";
    case SpanOutcome::kRetried: return "retried";
    case SpanOutcome::kAborted: return "aborted";
    case SpanOutcome::kEvicted: return "evicted";
  }
  return "?";
}

const std::string& TraceSpan::attr(const std::string& key) const {
  static const std::string kEmpty;
  for (const auto& [k, v] : attrs) {
    if (k == key) return v;
  }
  return kEmpty;
}

TraceRecorder::TraceRecorder(std::size_t capacity, MetricsRegistry* registry)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  MetricsRegistry& reg =
      registry != nullptr ? *registry : MetricsRegistry::global();
  recorded_counter_ = reg.counter("obs.trace.recorded_spans");
  dropped_counter_ = reg.counter("obs.trace.dropped_spans");
  ring_.reserve(capacity_);
}

void TraceRecorder::record(TraceSpan span) {
  recorded_counter_->inc();
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
  } else {
    // Ring wrap: the oldest span is lost. Account for it — silent loss
    // would make a truncated trace indistinguishable from a short one.
    ring_[next_] = std::move(span);
    next_ = (next_ + 1) % capacity_;
    ++dropped_;
    dropped_counter_->inc();
  }
  ++total_;
}

std::vector<TraceSpan> TraceRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceSpan> out;
  out.reserve(ring_.size());
  // Once the ring is full, `next_` points at the oldest retained span.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<TraceSpan> TraceRecorder::trace(std::uint64_t trace_hi,
                                            std::uint64_t trace_lo) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceSpan> out;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const TraceSpan& span = ring_[(next_ + i) % ring_.size()];
    if (span.trace_hi == trace_hi && span.trace_lo == trace_lo) {
      out.push_back(span);
    }
  }
  return out;
}

std::size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::uint64_t TraceRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::uint64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  total_ = 0;
  dropped_ = 0;
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* recorder = new TraceRecorder();  // never dies
  return *recorder;
}

void record_causal_span(
    const TraceContext& ctx, SpanEdge edge, SpanPhase phase,
    std::uint32_t job, double begin_s, double end_s,
    std::vector<std::pair<std::string, std::string>> attrs) {
  if (!ctx.sampled || !ctx.valid()) return;
  TraceSpan span;
  span.phase = phase;
  span.outcome = SpanOutcome::kDone;
  span.job = job;
  span.begin_s = begin_s;
  span.end_s = end_s;
  span.trace_hi = ctx.trace_hi;
  span.trace_lo = ctx.trace_lo;
  if (edge == SpanEdge::kRoot) {
    span.span_id = ctx.span_id;
  } else {
    span.span_id = mint_span_id();
    span.parent_span = ctx.span_id;
  }
  span.attrs = std::move(attrs);
  TraceRecorder::global().record(std::move(span));
}

}  // namespace sstd::obs
