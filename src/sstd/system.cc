#include "sstd/system.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/cost.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace sstd {

namespace {
// The one shard-interval step, shared by the live shard task, the
// crash-kill rebuild and node restart: offer the buffered reports in time
// order, clear the buffer and close interval `k`. Replay reaches the same
// engine state as the live run because it goes through this same code.
void close_shard_interval(SstdStreaming& engine, std::vector<Report>& buffer,
                          IntervalIndex k) {
  std::sort(buffer.begin(), buffer.end(),
            [](const Report& a, const Report& b) {
              return a.time_ms < b.time_ms;
            });
  for (const Report& report : buffer) engine.offer(report);
  buffer.clear();
  engine.end_interval(k);
}
}  // namespace

SstdSystem::SstdSystem(Config config, TimestampMs interval_ms)
    : config_(config),
      interval_ms_(interval_ms),
      queue_(std::max<std::size_t>(1, config.workers), config.retry),
      dtm_(config.dtm) {
  config_.num_jobs = std::max<std::size_t>(1, config_.num_jobs);
  shards_.reserve(config_.num_jobs);
  for (std::size_t i = 0; i < config_.num_jobs; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->engine =
        std::make_unique<SstdStreaming>(config_.sstd, interval_ms);
    shards_.push_back(std::move(shard));
  }
  for (std::size_t i = 0; i < config_.num_jobs; ++i) install_crash_hook(i);
  // The chaos schedule reaches both runtimes it can touch: crash-kill
  // drills go through the refit hook above; worker crashes, poisoned
  // tasks and stragglers go to the Work Queue (should_crash_kill is
  // inert there, so a kill-only plan changes nothing queue-side).
  if (!config_.fault_plan.empty()) {
    queue_.install_fault_plan(config_.fault_plan);
  }
  // Every shard is a long-lived TD job; its deadline is re-armed per
  // interval inside end_interval(). The SLO tracker mirrors each
  // registration so the exported deadline hit ratio and the DTM's
  // internal tally count the same events.
  dtm_.set_slo_tracker(&slo_);
  for (std::size_t i = 0; i < config_.num_jobs; ++i) {
    dtm_.register_job(static_cast<dist::JobId>(i), config_.interval_deadline_s);
  }

  if (config_.durability.enabled()) {
    durable::WalOptions wal_options;
    wal_options.segment_bytes = config_.durability.segment_bytes;
    wal_options.fsync = config_.durability.fsync;
    // Opening truncates any torn tail left by a previous crash, so a
    // subsequent recover() never sees a half-written record.
    wal_.open(config_.durability.dir, wal_options);
    snapshots_.open(config_.durability.dir,
                    config_.durability.keep_snapshots);
  }
}

SstdSystem::~SstdSystem() { queue_.shutdown(); }

void SstdSystem::ingest_batch(const Report* reports, std::size_t count) {
  if (count == 0) return;
  // Cost attribution: the batch path is the soak/throughput front door;
  // WAL appends inside it subtract out as a child, so "ingest" self time
  // is the bucketing + shard-buffer work.
  static obs::CostCenter* const cost_ingest =
      obs::CostRegistry::global().center("ingest");
  static obs::CostCenter* const cost_wal_append =
      obs::CostRegistry::global().center("wal/append");
  const obs::CostScope ingest_scope(cost_ingest);
  // Write-ahead: the reports reach the log before any in-memory state, so
  // an acknowledged report survives a crash.
  if (wal_.is_open()) {
    const obs::CostScope wal_scope(cost_wal_append, obs::CostScope::kWallOnly);
    std::lock_guard<std::mutex> wal_lock(wal_mutex_);
    for (std::size_t i = 0; i < count; ++i) {
      wal_.append(durable::WalRecordType::kReport,
                  durable::encode_report_payload(reports[i]));
    }
  }

  // Trace sampling (ISSUE 8): every ⌈1/rate⌉-th report is a trace
  // candidate; a candidate whose shard has no pending trace mints one
  // and becomes the next shard task's trace parent, so the task's
  // attempt spans (retries included) and the refit/decision spans below
  // them all share one trace id. Minting is gated on the promotion —
  // one ingest span per shard-interval, not per report — which keeps
  // full-rate tracing out of the ingest hot path (bench_trace measures
  // the difference) and keeps the span ring from thrashing on roots no
  // chain would ever hang off. Root spans are recorded after the shard
  // mutexes drop.
  struct Promotion {
    obs::TraceContext ctx;
    std::size_t shard;
    std::uint64_t claim;
  };
  std::vector<Promotion> promotions;

  {
    std::lock_guard<std::mutex> batch_lock(batch_mutex_);
    if (batch_scratch_.size() != config_.num_jobs) {
      batch_scratch_.resize(config_.num_jobs);
    }
    for (std::size_t i = 0; i < count; ++i) {
      batch_scratch_[reports[i].claim.value % config_.num_jobs].push_back(
          reports[i]);
    }
    for (std::size_t s = 0; s < config_.num_jobs; ++s) {
      std::vector<Report>& bucket = batch_scratch_[s];
      if (bucket.empty()) continue;
      Shard& shard = *shards_[s];
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (const Report& report : bucket) {
        shard.buffer.push_back(report);
        // The stride counter only advances while the shard's batch is
        // unrepresented, so a represented batch adds zero tracing work per
        // report — not even the atomic.
        if (config_.trace_sample_rate > 0.0 && !shard.pending_trace.valid()) {
          const auto stride = static_cast<std::uint64_t>(
              std::max(1.0, std::ceil(1.0 / config_.trace_sample_rate)));
          if (trace_sample_seq_.fetch_add(1, std::memory_order_relaxed) %
                  stride ==
              0) {
            const obs::TraceContext minted =
                obs::mint_trace(/*sampled=*/true);
            shard.pending_trace = minted;
            shard.pending_trace_claim = report.claim.value;
            promotions.push_back({minted, s, report.claim.value});
          }
        }
      }
      bucket.clear();
    }
  }

  for (const Promotion& promotion : promotions) {
    const double now_s = queue_.now();
    obs::record_causal_span(promotion.ctx, obs::SpanEdge::kRoot,
                            obs::SpanPhase::kIngest,
                            static_cast<std::uint32_t>(promotion.shard),
                            now_s, now_s,
                            {{"claim", std::to_string(promotion.claim)},
                             {"shard", std::to_string(promotion.shard)}});
  }
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  metrics_.reports_ingested += count;
}

void SstdSystem::install_crash_hook(std::size_t shard_index) {
  if (config_.fault_plan.empty()) return;
  Shard* shard = shards_[shard_index].get();
  shard->engine->set_refit_crash_hook(
      [this, shard](IntervalIndex k, std::uint64_t) {
        // Caller (the shard task body) holds shard->mutex.
        const int prior =
            shard->kill_interval == k ? shard->kills_at_interval : 0;
        if (!config_.fault_plan.should_crash_kill(k, prior)) return;
        shard->kill_interval = k;
        shard->kills_at_interval = prior + 1;
        throw dist::ProcessKilled(
            "crash-kill drill: shard killed mid-refit at interval " +
            std::to_string(k));
      });
}

void SstdSystem::run_shard_interval(std::size_t shard_index,
                                    IntervalIndex k) {
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.needs_recovery) recover_shard_locked(shard, shard_index);
  try {
    close_shard_interval(*shard.engine, shard.buffer, k);
  } catch (const dist::ProcessKilled&) {
    // Killed mid-refit: the in-memory engine is in an undefined
    // half-trained state. Mark for rebuild and let the master's
    // RetryPolicy re-run the interval on a recovered engine.
    shard.needs_recovery = true;
    obs::MetricsRegistry::global().counter("durable.crash_kills")->inc();
    throw;
  }
}

void SstdSystem::recover_shard_locked(Shard& shard,
                                      std::size_t shard_index) {
  const Stopwatch timer;
  const double recovery_begin_s = queue_.now();
  auto engine = std::make_unique<SstdStreaming>(config_.sstd, interval_ms_);

  if (config_.durability.enabled()) {
    // Node restart's replay, narrowed to this shard by its callbacks: only
    // this shard's snapshot blob loads, only its claims are buffered, and
    // its intervals close through the live step, so the rebuilt engine's
    // state is byte-identical. Reports logged after the last interval-end
    // belong to the in-flight interval and are left in the shard buffer
    // for the retry attempt to process.
    shard.buffer.clear();
    durable::RecoveryManager::Callbacks callbacks;
    callbacks.load_snapshot = [&](IntervalIndex,
                                  const std::vector<std::string>& blobs) {
      return blobs.size() == shards_.size() &&
             engine->load_state(blobs[shard_index]);
    };
    callbacks.on_report = [&](const Report& report) {
      if (report.claim.value % shards_.size() == shard_index) {
        shard.buffer.push_back(report);
      }
    };
    callbacks.on_interval_end = [&](IntervalIndex interval) {
      close_shard_interval(*engine, shard.buffer, interval);
    };
    durable::RecoveryManager::recover(config_.durability.dir, callbacks);
  }

  shard.engine = std::move(engine);
  shard.needs_recovery = false;
  install_crash_hook(shard_index);
  // The rebuilt engine starts with blank annotations; restore the
  // dispatch-time WAL frontier and traced claim so the retry's decisions
  // cite them.
  shard.engine->set_decision_annotations(
      static_cast<std::uint32_t>(shard_index), shard.annotation_lsn,
      shard.annotation_traced_claim);

  // The rebuild runs inside a Work Queue retry attempt, whose context the
  // queue installed thread-locally — so a traced crash-kill drill shows
  // ingest → evicted/retried attempts → recovery → refit → decision as
  // one chain.
  obs::record_causal_span(obs::current_trace_context(), obs::SpanEdge::kChild,
                          obs::SpanPhase::kRecovery,
                          static_cast<std::uint32_t>(shard_index),
                          recovery_begin_s, queue_.now(),
                          {{"shard", std::to_string(shard_index)}});

  auto& registry = obs::MetricsRegistry::global();
  registry.counter("durable.shard_recoveries")->inc();
  registry.gauge("durable.recovery_seconds")->set(timer.elapsed_seconds());
}

durable::RecoveryManager::Result SstdSystem::recover() {
  durable::RecoveryManager::Result result;
  if (!config_.durability.enabled()) return result;

  // Node-restart replay gets its own root trace (there is no surviving
  // ingest context to join), so the replayed decisions' provenance still
  // points at a reconstructible chain.
  obs::TraceContext replay_ctx;
  const double replay_begin_s = queue_.now();
  if (config_.trace_sample_rate > 0.0) {
    replay_ctx = obs::mint_trace(/*sampled=*/true);
  }
  obs::TraceScope replay_scope(replay_ctx);

  // Replay must not re-trigger the chaos drill: the crashes it models
  // already happened.
  for (auto& shard : shards_) {
    shard->engine->set_refit_crash_hook(nullptr);
  }

  durable::RecoveryManager::Callbacks callbacks;
  callbacks.load_snapshot = [this](IntervalIndex,
                                   const std::vector<std::string>& blobs) {
    if (blobs.size() != shards_.size()) return false;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (!shards_[i]->engine->load_state(blobs[i])) {
        // A half-loaded node must not mix snapshot state with the
        // from-scratch replay that follows a rejected snapshot.
        for (std::size_t j = 0; j <= i; ++j) {
          shards_[j]->engine = std::make_unique<SstdStreaming>(
              config_.sstd, interval_ms_);
        }
        return false;
      }
    }
    return true;
  };
  callbacks.on_report = [this](const Report& report) {
    // Straight to the shard buffer: the record is already in the WAL, and
    // pre-crash ingestion was already counted by the crashed process.
    shards_[report.claim.value % shards_.size()]->buffer.push_back(report);
  };
  callbacks.on_interval_end = [this](IntervalIndex interval) {
    for (auto& shard : shards_) {
      close_shard_interval(*shard->engine, shard->buffer, interval);
    }
  };

  result = durable::RecoveryManager::recover(config_.durability.dir,
                                             callbacks);
  for (std::size_t i = 0; i < shards_.size(); ++i) install_crash_hook(i);
  publish_active_claims();

  obs::record_causal_span(replay_ctx, obs::SpanEdge::kRoot,
                          obs::SpanPhase::kRecovery, 0, replay_begin_s,
                          queue_.now(),
                          {{"scope", "node-restart"},
                           {"next_interval",
                            std::to_string(result.next_interval)}});
  return result;
}

void SstdSystem::end_interval(IntervalIndex k) {
  const Stopwatch interval_watch;

  // WAL frontier at dispatch: decisions made while processing this
  // interval cite this LSN in the provenance ring, so a time-travel
  // replay up to it reproduces the pre-decision state.
  std::uint64_t wal_frontier = 0;
  if (wal_.is_open()) {
    std::lock_guard<std::mutex> wal_lock(wal_mutex_);
    wal_frontier = wal_.next_lsn();
  }

  // Dispatch one task per shard; shards with no data still need their
  // engines ticked so ACS windows expire and decoders advance.
  std::uint64_t dispatched_reports = 0;
  std::size_t max_shard_backlog = 0;
  for (std::size_t i = 0; i < config_.num_jobs; ++i) {
    Shard* shard = shards_[i].get();
    const auto job = static_cast<dist::JobId>(i);
    dist::Task task;
    task.id = next_task_id_++;
    task.job = job;
    task.max_retries = config_.shard_task_retries;
    task.work = [this, i, k] { run_shard_interval(i, k); };
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      task.data_size = static_cast<double>(shard->buffer.size());
      dispatched_reports += shard->buffer.size();
      max_shard_backlog = std::max(max_shard_backlog, shard->buffer.size());
      shard->annotation_lsn = wal_frontier;
      shard->annotation_traced_claim =
          shard->pending_trace.valid()
              ? static_cast<std::int64_t>(shard->pending_trace_claim)
              : -1;
      shard->engine->set_decision_annotations(
          static_cast<std::uint32_t>(i), wal_frontier,
          shard->annotation_traced_claim);
      // Representative trace: this interval's first sampled ingest
      // parents every attempt span of the shard task.
      task.trace = shard->pending_trace;
      shard->pending_trace = obs::TraceContext{};
    }
    queue_.submit(std::move(task), dtm_.priority(job));
  }

  queue_.wait_all();
  const double interval_seconds = interval_watch.elapsed_seconds();
  publish_active_claims();

  // Backpressure accounting (ISSUE 9): what this interval dispatched and
  // how fast it drained, for the soak monitor and /timeseries.csv.
  {
    BackpressureStats bp;
    bp.last_interval_reports = dispatched_reports;
    bp.max_shard_backlog = max_shard_backlog;
    bp.last_interval_s = interval_seconds;
    bp.last_interval_reports_per_s =
        interval_seconds > 0.0
            ? static_cast<double>(dispatched_reports) / interval_seconds
            : 0.0;
    auto& registry = obs::MetricsRegistry::global();
    registry.gauge("sys.interval_reports")
        ->set(static_cast<double>(bp.last_interval_reports));
    registry.gauge("sys.max_shard_backlog")
        ->set(static_cast<double>(bp.max_shard_backlog));
    registry.gauge("sys.interval_s")->set(bp.last_interval_s);
    registry.gauge("sys.reports_per_s")->set(bp.last_interval_reports_per_s);
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    backpressure_ = bp;
  }

  // Durability boundary: the interval is fully processed, so its marker
  // goes to the log (replay re-closes intervals in this order), the fsync
  // policy's interval boundary fires, and — on the snapshot cadence —
  // every shard's state is checkpointed against the marker's LSN.
  if (wal_.is_open()) {
    static obs::CostCenter* const cost_wal_sync =
        obs::CostRegistry::global().center("wal/sync");
    static obs::CostCenter* const cost_snapshot =
        obs::CostRegistry::global().center("snapshot/write");
    std::lock_guard<std::mutex> wal_lock(wal_mutex_);
    std::uint64_t lsn = 0;
    {
      // The marker append plus the interval-boundary fsync: the policy's
      // durability cost lives here, not in the per-report appends.
      const obs::CostScope sync_scope(cost_wal_sync);
      lsn = wal_.append(durable::WalRecordType::kIntervalEnd,
                        durable::encode_interval_end_payload(k));
      wal_.sync();
    }
    const IntervalIndex every = config_.durability.snapshot_every;
    if (every > 0 && (k + 1) % every == 0) {
      const obs::CostScope snapshot_scope(cost_snapshot);
      std::vector<std::string> blobs;
      blobs.reserve(shards_.size());
      for (auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        blobs.push_back(shard->engine->save_state());
      }
      snapshots_.write(k, lsn, blobs);
    }
  }

  // Account completions and feed the control loop.
  const auto reports = queue_.drain_reports();
  std::unordered_map<dist::JobId, double> remaining;  // all drained: zero
  double exec_total = 0.0;
  std::uint64_t failures = 0;
  for (const auto& report : reports) {
    exec_total += report.execution_s();
    failures += report.failed ? 1 : 0;
  }

  // Feed the control loop: each shard job's deadline is the per-interval
  // budget, and "now" is this interval's measured wall-clock, so the PID
  // error is (measured - deadline) — the paper's Eq. 9 sample. The work is
  // already drained, so the WCET backlog term is zero and the signal is
  // purely timing-driven.
  // also feeding the queue's fault counters so the GCK compensates for
  // work lost to evictions/failed attempts (DtmConfig::theta5).
  const auto queue_stats = queue_.stats();
  const control::FaultObservation faults{
      queue_stats.evictions,
      queue_stats.retries + queue_stats.quarantined};
  const auto decision = dtm_.sample(interval_seconds, remaining,
                                    queue_.target_workers(), faults);
  queue_.scale_workers(decision.worker_target);

  // Deadline SLO: every shard job shared this interval's wall-clock, so
  // each gets one completion observation against its deadline budget.
  for (std::size_t i = 0; i < config_.num_jobs; ++i) {
    dtm_.observe_completion(static_cast<dist::JobId>(i), interval_seconds);
  }

  std::lock_guard<std::mutex> lock(metrics_mutex_);
  metrics_.tasks_completed += reports.size();
  metrics_.task_failures += failures;
  ++metrics_.intervals_processed;
  if (interval_seconds <= config_.interval_deadline_s) {
    ++metrics_.deadline_hits;
  }
  if (metrics_.tasks_completed > 0) {
    metrics_.mean_task_exec_s =
        (metrics_.mean_task_exec_s *
             static_cast<double>(metrics_.tasks_completed - reports.size()) +
         exec_total) /
        static_cast<double>(metrics_.tasks_completed);
  }
  metrics_.current_workers = queue_.target_workers();
}

void SstdSystem::publish_active_claims() {
  std::size_t claims = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    claims += shard->engine->active_claims();
  }
  obs::MetricsRegistry::global()
      .gauge("stream.active_claims")
      ->set(static_cast<double>(claims));
}

std::int8_t SstdSystem::estimate(ClaimId claim) const {
  const Shard& shard = *shards_[claim.value % config_.num_jobs];
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.engine->current_estimate(claim);
}

SstdSystem::BackpressureStats SstdSystem::backpressure() const {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  return backpressure_;
}

SstdSystem::Metrics SstdSystem::metrics() const {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  Metrics snapshot = metrics_;
  snapshot.current_workers = queue_.target_workers();
  return snapshot;
}

}  // namespace sstd
