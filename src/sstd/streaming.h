// Streaming SSTD: the real-time form of the scheme (paper §III-E and Fig.
// 5's "streaming schemes keep reading new data and process them as they
// arrive"). Per claim it maintains a sliding ACS accumulator and an online
// Viterbi decoder; models start from the informed truth prior and are
// refit periodically on the accumulated observation history.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/acs.h"
#include "core/truth_discovery.h"
#include "hmm/discrete_hmm.h"
#include "hmm/online_forward.h"
#include "hmm/online_viterbi.h"
#include "hmm/quantizer.h"
#include "hmm/scaled_kernel.h"
#include "obs/cost.h"
#include "obs/metrics.h"
#include "sstd/config.h"
#include "util/stopwatch.h"

namespace sstd {

class SstdStreaming final : public StreamingTruthDiscovery {
 public:
  // `interval_ms` must match the cadence at which end_interval() is called
  // (it sizes the default ACS window).
  SstdStreaming(SstdConfig config, TimestampMs interval_ms);

  std::string name() const override { return "SSTD"; }

  void offer(const Report& report) override;
  void end_interval(IntervalIndex k) override;
  std::int8_t current_estimate(ClaimId claim) const override;

  // Soft estimate: filtering probability P(claim true | stream so far)
  // from an online forward filter running beside the Viterbi decoder.
  // 0.5 for claims with no evidence yet.
  double current_probability(ClaimId claim) const;

  // Fixed-lag smoothed estimate: the decoder's belief about the claim's
  // truth `lag` intervals ago, refined by the evidence that arrived since
  // (Viterbi backtracking). Trading `lag` intervals of latency buys
  // stability — early misinformation bursts get revised away before the
  // estimate is read. kNoEstimate when the claim has fewer than lag+1
  // decoded intervals.
  std::int8_t lagged_estimate(ClaimId claim, IntervalIndex lag) const;

  // Claims this engine holds. SstdSystem publishes the node-wide sum as
  // the stream.active_claims gauge.
  std::size_t active_claims() const { return pipelines_.size(); }

  // Total Baum-Welch refits performed (for tests/instrumentation).
  std::uint64_t refit_count() const { return refits_; }

  // Claims evicted by the idle GC (config.evict_after_idle_intervals).
  std::uint64_t evicted_claims() const { return evictions_; }

  // Durable state history (DESIGN.md §7): versioned byte-exact dump of the
  // whole engine — quantizer geometry, every per-claim pipeline (ACS
  // window, history, model, decoder/filter frontiers, last decision) and
  // the counters. Pipelines are written in claim-id order, so the image is
  // independent of hash-map iteration order and save → load → save is the
  // identity. load_state returns false (engine untouched) on malformed
  // input or a mismatch with this engine's configuration.
  std::string save_state() const;
  bool load_state(std::string_view blob);

  // Chaos hook: called just before each per-claim Baum-Welch refit with
  // (interval, refits completed so far). A hook that throws aborts the
  // interval mid-refit round — the crash-kill drill (dist/fault_plan.h)
  // uses this to kill a shard in the middle of model training.
  using RefitCrashHook = std::function<void(IntervalIndex, std::uint64_t)>;
  void set_refit_crash_hook(RefitCrashHook hook) {
    crash_hook_ = std::move(hook);
  }

  // Decision-provenance annotations (ISSUE 8): which shard this engine
  // serves and the durable-WAL frontier (next LSN) at dispatch time, so
  // every estimate flip recorded in the provenance ring cross-references
  // the exact log position a time-travel replay would resume from.
  // `traced_claim` is the claim the shard's current trace follows (-1 =
  // none): refit/decision spans and staleness exemplars are recorded for
  // that claim only — a causal chain follows one report, and per-claim
  // spans for the other claims of a 200-claim shard would be both noise
  // and measurable overhead (bench_trace) — while provenance records
  // still cite the interval's trace for every flip. SstdSystem refreshes
  // the annotations each interval; standalone engines can leave them at
  // the defaults.
  void set_decision_annotations(std::uint32_t shard, std::uint64_t wal_lsn,
                                std::int64_t traced_claim = -1) {
    shard_annotation_ = shard;
    wal_lsn_annotation_ = wal_lsn;
    traced_claim_annotation_ = traced_claim;
  }

 private:
  struct ClaimPipeline {
    SlidingAcs acs;
    std::vector<double> history;  // per-interval ACS so far
    DiscreteHmm model;
    std::unique_ptr<OnlineViterbi> decoder;
    std::unique_ptr<OnlineForward> filter;
    std::int8_t estimate = kNoEstimate;
    IntervalIndex intervals_seen = 0;
    IntervalIndex last_report_interval = 0;
    // Wall-clock arrival of the oldest report not yet reflected in the
    // estimate; < 0 when the claim has no undigested evidence. Feeds the
    // stream.decision_staleness_s freshness histogram (DESIGN.md §5c).
    double pending_ingest_wall_s = -1.0;

    explicit ClaimPipeline(TimestampMs window_ms) : acs(window_ms) {}
  };

  // Pre-resolved stream.* instruments (obs/metrics.h).
  struct Instruments {
    obs::Counter* reports_ingested = nullptr;
    obs::Counter* intervals_closed = nullptr;
    obs::Counter* refits = nullptr;
    obs::Counter* claims_evicted = nullptr;
    obs::Histogram* refit_s = nullptr;
    obs::Histogram* decision_staleness_s = nullptr;
    // Pre-resolved phase cost centers (obs/cost.h, ISSUE 10). cost_refit
    // covers exactly the stream.refit_s-timed region, so /cost.json
    // "refit" totals and the histogram sum agree.
    obs::CostCenter* cost_refit = nullptr;     // "refit"
    obs::CostCenter* cost_quantize = nullptr;  // "ingest/quantize"
    obs::CostCenter* cost_replay = nullptr;    // "refit/replay"
    obs::CostCenter* cost_decode = nullptr;    // "decode/viterbi"
  };

  ClaimPipeline& pipeline_for(std::uint32_t claim);
  void refit(std::uint32_t claim, ClaimPipeline& pipeline, IntervalIndex k);

  Instruments ins_;
  RefitCrashHook crash_hook_;
  SstdConfig config_;
  Stopwatch wall_clock_;  // ingest→decision staleness timestamps
  TimestampMs interval_ms_;
  TimestampMs window_ms_;
  AcsQuantizer quantizer_;
  std::unordered_map<std::uint32_t, ClaimPipeline> pipelines_;
  TimestampMs latest_time_ = 0;
  std::uint64_t refits_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint32_t shard_annotation_ = 0;
  std::uint64_t wal_lsn_annotation_ = 0;
  std::int64_t traced_claim_annotation_ = -1;

  // One workspace per engine instance: every claim this shard refits in an
  // interval trains through the same arena, so a whole refit round
  // allocates nothing at steady state. The engine itself is externally
  // synchronized (SstdSystem guards each shard with a mutex), which
  // satisfies the workspace's single-owner rule (DESIGN.md §6).
  HmmWorkspace workspace_;
  std::vector<std::vector<int>> refit_batch_{1};  // reused fit() input
  std::vector<double> log_emit_scratch_;          // per-step emission row
};

}  // namespace sstd
