#include "sstd/streaming.h"

#include <algorithm>
#include <string>

#include "core/serialize.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "util/stopwatch.h"

namespace sstd {

namespace {
// Before any data-driven fit we need *some* bin scale; a handful of net
// confident reports per window is a reasonable prior for social traces.
constexpr double kDefaultScale = 3.0;

// Engine-side span recording (refit/decision, ISSUE 8): children of the
// Work Queue attempt span installed thread-locally around the shard task.
// No-op when the interval's trace was not sampled.
void record_engine_span(const obs::TraceContext& ctx, obs::SpanPhase phase,
                        double begin_s, double end_s, std::uint32_t claim,
                        IntervalIndex k, std::uint32_t shard) {
  obs::record_causal_span(ctx, obs::SpanEdge::kChild, phase, shard, begin_s,
                          end_s,
                          {{"claim", std::to_string(claim)},
                           {"interval", std::to_string(k)},
                           {"engine", "SSTD"}});
}
}  // namespace

SstdStreaming::SstdStreaming(SstdConfig config, TimestampMs interval_ms)
    : config_(config),
      interval_ms_(interval_ms),
      window_ms_(config.window_ms > 0 ? config.window_ms : interval_ms),
      quantizer_(config.num_bins, kDefaultScale) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  ins_.reports_ingested = registry.counter("stream.reports_ingested");
  ins_.intervals_closed = registry.counter("stream.intervals_closed");
  ins_.refits = registry.counter("stream.refits");
  ins_.claims_evicted = registry.counter("stream.claims_evicted");
  ins_.refit_s = registry.histogram("stream.refit_s");
  ins_.decision_staleness_s =
      registry.histogram("stream.decision_staleness_s");
  obs::CostRegistry& costs = obs::CostRegistry::global();
  ins_.cost_refit = costs.center("refit");
  ins_.cost_quantize = costs.center("ingest/quantize");
  ins_.cost_replay = costs.center("refit/replay");
  ins_.cost_decode = costs.center("decode/viterbi");
}

SstdStreaming::ClaimPipeline& SstdStreaming::pipeline_for(
    std::uint32_t claim) {
  auto it = pipelines_.find(claim);
  if (it == pipelines_.end()) {
    it = pipelines_.emplace(claim, ClaimPipeline(window_ms_)).first;
    it->second.model = make_truth_hmm(config_.num_bins, config_.stickiness,
                                      config_.emission_bias);
    it->second.decoder =
        std::make_unique<OnlineViterbi>(it->second.model.core());
    it->second.filter =
        std::make_unique<OnlineForward>(it->second.model.core());
  }
  return it->second;
}

void SstdStreaming::offer(const Report& report) {
  ins_.reports_ingested->inc();
  latest_time_ = std::max(latest_time_, report.time_ms);
  ClaimPipeline& pipeline = pipeline_for(report.claim.value);
  pipeline.acs.add(report);
  pipeline.last_report_interval =
      static_cast<IntervalIndex>(report.time_ms / interval_ms_);
  if (pipeline.pending_ingest_wall_s < 0.0) {
    pipeline.pending_ingest_wall_s = wall_clock_.elapsed_seconds();
  }
}

void SstdStreaming::refit(std::uint32_t claim, ClaimPipeline& pipeline,
                          IntervalIndex k) {
  if (crash_hook_) crash_hook_(k, refits_);
  const obs::TraceContext& ctx = obs::current_trace_context();
  const bool span_traced =
      ctx.sampled && ctx.valid() &&
      static_cast<std::int64_t>(claim) == traced_claim_annotation_;
  const double refit_begin_s =
      span_traced ? wall_clock_.elapsed_seconds() : 0.0;
  const Stopwatch watch;
  {
    // Cost attribution (ISSUE 10): the "refit" scope covers exactly the
    // stream.refit_s-timed region; the fit itself flushes refit/forward
    // and refit/mstep from inside the EM loop.
    const obs::CostScope refit_scope(ins_.cost_refit);
    std::vector<int>& symbols = refit_batch_[0];
    {
      const obs::CostScope quantize_scope(ins_.cost_quantize,
                                          obs::CostScope::kWallOnly);
      quantizer_.quantize_series_into(pipeline.history, symbols);
    }
    pipeline.model.fit(refit_batch_, config_.train, &workspace_);
    pipeline.model.canonicalize_truth_states();
    ++refits_;
    ins_.refits->inc();

    // Restart the online decoder and filter (keeping their buffers) and
    // replay the (short) symbol history through the refit model.
    const obs::CostScope replay_scope(ins_.cost_replay,
                                      obs::CostScope::kWallOnly);
    pipeline.decoder->reset(pipeline.model.core());
    pipeline.filter->reset(pipeline.model.core());
    const int X = pipeline.model.num_states();
    log_emit_scratch_.resize(X);
    for (int symbol : symbols) {
      for (int i = 0; i < X; ++i) {
        log_emit_scratch_[i] = pipeline.model.log_b(i, symbol);
      }
      pipeline.decoder->step(log_emit_scratch_);
      pipeline.filter->step(log_emit_scratch_);
    }
  }
  ins_.refit_s->observe(watch.elapsed_seconds());
  if (span_traced) {
    record_engine_span(ctx, obs::SpanPhase::kRefit, refit_begin_s,
                       wall_clock_.elapsed_seconds(), claim, k,
                       shard_annotation_);
  }
}

void SstdStreaming::end_interval(IntervalIndex k) {
  const TimestampMs interval_end =
      static_cast<TimestampMs>(k + 1) * interval_ms_ - 1;

  const bool refit_round =
      config_.refit_every > 0 &&
      (k + 1) % config_.refit_every == 0;

  if (refit_round) {
    // Re-fit the shared quantizer scale from all accumulated histories so
    // bin geometry tracks the trace's actual ACS magnitudes.
    std::vector<std::vector<double>> all;
    all.reserve(pipelines_.size());
    for (const auto& [_, pipeline] : pipelines_) {
      all.push_back(pipeline.history);
    }
    quantizer_ =
        AcsQuantizer::fit(all, config_.num_bins, config_.scale_quantile);
  }

  // Idle-claim GC: drop pipelines whose conversation has died.
  if (config_.evict_after_idle_intervals > 0) {
    for (auto it = pipelines_.begin(); it != pipelines_.end();) {
      if (k - it->second.last_report_interval >
          config_.evict_after_idle_intervals) {
        it = pipelines_.erase(it);
        ++evictions_;
        ins_.claims_evicted->inc();
      } else {
        ++it;
      }
    }
  }

  const obs::TraceContext& ctx = obs::current_trace_context();
  const bool traced = ctx.sampled && ctx.valid();
  // One scope for the whole per-claim stepping loop (per-claim scopes
  // would cost more than the ~300 ns decode step they time). Refits nest
  // inside and subtract out as children, so decode/viterbi *self* time is
  // the pure quantize-and-step work.
  const obs::CostScope decode_scope(ins_.cost_decode);
  for (auto& [claim_id, pipeline] : pipelines_) {
    const double value = pipeline.acs.value_at(interval_end);
    pipeline.history.push_back(value);
    ++pipeline.intervals_seen;

    if (refit_round && pipeline.intervals_seen >= config_.warmup_intervals) {
      refit(claim_id, pipeline, k);
    } else {
      const int symbol = quantizer_.quantize(value);
      const int X = pipeline.model.num_states();
      log_emit_scratch_.resize(X);
      for (int i = 0; i < X; ++i) {
        log_emit_scratch_[i] = pipeline.model.log_b(i, symbol);
      }
      pipeline.decoder->step(log_emit_scratch_);
      pipeline.filter->step(log_emit_scratch_);
    }
    const std::int8_t previous = pipeline.estimate;
    pipeline.estimate =
        static_cast<std::int8_t>(pipeline.decoder->current_state());

    // Provenance (ISSUE 8): every estimate flip — including the first
    // decision from kNoEstimate — lands in the decision ring with the
    // refit ordinal, the WAL frontier and (when sampled) the causal
    // chain that produced it.
    if (pipeline.estimate != previous) {
      obs::DecisionRecord record;
      record.claim = std::to_string(claim_id);
      record.interval = static_cast<std::uint64_t>(k);
      record.old_estimate = previous;
      record.new_estimate = pipeline.estimate;
      record.posterior = pipeline.filter->steps() > 0
                             ? pipeline.filter->probability_true()
                             : 0.5;
      record.shard = shard_annotation_;
      record.refit_seq = refits_;
      record.wal_lsn = wal_lsn_annotation_;
      record.wall_s = wall_clock_.elapsed_seconds();
      if (traced) {
        record.trace_hi = ctx.trace_hi;
        record.trace_lo = ctx.trace_lo;
        record.span_id = ctx.span_id;
        if (static_cast<std::int64_t>(claim_id) == traced_claim_annotation_) {
          const double now_s = wall_clock_.elapsed_seconds();
          record_engine_span(ctx, obs::SpanPhase::kDecision, now_s, now_s,
                             claim_id, k, shard_annotation_);
        }
      }
      obs::DecisionProvenanceRing::global().record(std::move(record));
    }

    // Freshness: this decision just consumed every report offered so far;
    // staleness is how long the oldest of them waited for it. Sampled
    // intervals attach the trace id as a bucket exemplar, linking the
    // aggregate histogram back to one concrete causal chain.
    if (pipeline.pending_ingest_wall_s >= 0.0) {
      const double staleness_s =
          wall_clock_.elapsed_seconds() - pipeline.pending_ingest_wall_s;
      if (traced &&
          static_cast<std::int64_t>(claim_id) == traced_claim_annotation_) {
        ins_.decision_staleness_s->observe_exemplar(
            staleness_s, ctx.trace_hi, ctx.trace_lo, ctx.span_id);
      } else {
        ins_.decision_staleness_s->observe(staleness_s);
      }
      pipeline.pending_ingest_wall_s = -1.0;
    }
  }
  ins_.intervals_closed->inc();
}

std::int8_t SstdStreaming::current_estimate(ClaimId claim) const {
  const auto it = pipelines_.find(claim.value);
  if (it == pipelines_.end()) return kNoEstimate;
  return it->second.estimate;
}

std::int8_t SstdStreaming::lagged_estimate(ClaimId claim,
                                           IntervalIndex lag) const {
  const auto it = pipelines_.find(claim.value);
  if (it == pipelines_.end()) return kNoEstimate;
  const auto& decoder = *it->second.decoder;
  if (decoder.steps() <= static_cast<std::size_t>(lag)) return kNoEstimate;
  return static_cast<std::int8_t>(
      decoder.lagged_state(static_cast<std::size_t>(lag)));
}

namespace {
constexpr std::uint8_t kStreamStateVersion = 1;
}  // namespace

std::string SstdStreaming::save_state() const {
  ByteWriter out;
  out.u8(kStreamStateVersion);
  // Config echo: a snapshot only restores into an engine with the same
  // discretization (bins, cadence, window) — anything else would silently
  // change decision semantics.
  out.i32(config_.num_bins);
  out.i64(interval_ms_);
  out.i64(window_ms_);
  out.i32(quantizer_.num_bins());
  out.f64(quantizer_.scale());
  out.i64(latest_time_);
  out.u64(refits_);
  out.u64(evictions_);

  std::vector<std::uint32_t> claims;
  claims.reserve(pipelines_.size());
  for (const auto& [id, _] : pipelines_) claims.push_back(id);
  std::sort(claims.begin(), claims.end());
  out.u32(static_cast<std::uint32_t>(claims.size()));
  for (const std::uint32_t id : claims) {
    const ClaimPipeline& p = pipelines_.at(id);
    out.u32(id);
    p.acs.save(out);
    out.f64_vec(p.history);
    p.model.save(out);
    p.decoder->save(out);
    p.filter->save(out);
    out.i8(p.estimate);
    out.i32(p.intervals_seen);
    out.i32(p.last_report_interval);
    // pending_ingest_wall_s is wall-clock telemetry relative to this
    // process's lifetime; it resets to "no pending evidence" on load.
  }
  return out.take();
}

bool SstdStreaming::load_state(std::string_view blob) {
  ByteReader in(blob);
  if (in.u8() != kStreamStateVersion) return false;
  const int num_bins = in.i32();
  const TimestampMs interval_ms = in.i64();
  const TimestampMs window_ms = in.i64();
  const int q_bins = in.i32();
  const double q_scale = in.f64();
  const TimestampMs latest_time = in.i64();
  const std::uint64_t refits = in.u64();
  const std::uint64_t evictions = in.u64();
  const std::uint32_t count = in.u32();
  if (!in.ok() || num_bins != config_.num_bins ||
      interval_ms != interval_ms_ || window_ms != window_ms_ ||
      q_bins != config_.num_bins || !(q_scale > 0.0)) {
    return false;
  }

  std::unordered_map<std::uint32_t, ClaimPipeline> pipelines;
  pipelines.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t claim = in.u32();
    ClaimPipeline p(window_ms_);
    p.acs.load(in);
    in.f64_vec(&p.history);
    p.model.load(in);
    if (!in.ok()) return false;  // decoders need a valid core
    p.decoder = std::make_unique<OnlineViterbi>(p.model.core());
    p.filter = std::make_unique<OnlineForward>(p.model.core());
    p.decoder->load(in);
    p.filter->load(in);
    p.estimate = in.i8();
    p.intervals_seen = in.i32();
    p.last_report_interval = in.i32();
    if (!in.ok() || pipelines.contains(claim)) return false;
    pipelines.emplace(claim, std::move(p));
  }
  if (!in.ok() || in.remaining() != 0) return false;

  quantizer_ = AcsQuantizer(q_bins, q_scale);
  latest_time_ = latest_time;
  refits_ = refits;
  evictions_ = evictions;
  pipelines_ = std::move(pipelines);
  return true;
}

double SstdStreaming::current_probability(ClaimId claim) const {
  const auto it = pipelines_.find(claim.value);
  if (it == pipelines_.end() || it->second.filter->steps() == 0) return 0.5;
  return it->second.filter->probability_true();
}

}  // namespace sstd
