// Tests for src/sstd: batch SSTD decoding, streaming SSTD, the distributed
// (threaded) runner, and the simulation drivers.
#include <gtest/gtest.h>

#include "core/metrics.h"
#include "sstd/batch.h"
#include "sstd/distributed.h"
#include "sstd/streaming.h"
#include "trace/generator.h"
#include "util/rng.h"

namespace sstd {
namespace {

// Hand-built evolving dataset: a reliable crowd tracks a truth that flips
// TRUE -> FALSE -> TRUE across 30 intervals.
Dataset make_flip_dataset(double crowd_accuracy = 0.85,
                          std::uint64_t seed = 11) {
  Dataset data("flips", 30, 2, 30, 1000);
  TruthSeries truth(30);
  for (int k = 0; k < 30; ++k) truth[k] = (k < 10 || k >= 20) ? 1 : 0;
  data.set_ground_truth(ClaimId{0}, truth);
  TruthSeries steady(30, 1);
  data.set_ground_truth(ClaimId{1}, steady);

  Rng rng(seed);
  for (int k = 0; k < 30; ++k) {
    for (std::uint32_t s = 0; s < 10; ++s) {
      for (std::uint32_t u = 0; u < 2; ++u) {
        const bool truth_now = data.ground_truth(ClaimId{u})[k] != 0;
        Report r;
        r.source = SourceId{s};
        r.claim = ClaimId{u};
        r.time_ms = k * 1000 + 50 + s * 10;
        const bool correct = rng.bernoulli(crowd_accuracy);
        r.attitude = (correct == truth_now) ? 1 : -1;
        r.uncertainty = rng.uniform(0.0, 0.3);
        r.independence = rng.uniform(0.8, 1.0);
        data.add_report(r);
      }
    }
  }
  data.finalize();
  return data;
}

TEST(SstdBatch, TracksDoubleFlip) {
  Dataset data = make_flip_dataset();
  SstdBatch sstd;
  const auto cm = evaluate_scheme(sstd, data);
  EXPECT_GE(cm.accuracy(), 0.85);
}

TEST(SstdBatch, SmoothsNoiseBetterThanRawSign) {
  // With a noisy crowd (65% accurate), interval-by-interval sign flips
  // often; the HMM's sticky transitions should beat the raw ACS sign.
  Dataset data = make_flip_dataset(0.65, 23);

  ConfusionMatrix sign_cm;
  for (std::uint32_t u = 0; u < data.num_claims(); ++u) {
    const auto acs =
        build_acs_series(data.reports_of_claim(ClaimId{u}), data.intervals(),
                         data.interval_ms(), data.interval_ms());
    const auto& truth = data.ground_truth(ClaimId{u});
    for (IntervalIndex k = 0; k < data.intervals(); ++k) {
      sign_cm.add(truth[k] != 0, acs[k] > 0);
    }
  }

  SstdBatch sstd;
  const auto hmm_cm = evaluate_scheme(sstd, data);
  EXPECT_GT(hmm_cm.accuracy(), sign_cm.accuracy());
}

TEST(SstdBatch, GaussianEmissionVariantWorks) {
  Dataset data = make_flip_dataset();
  SstdConfig config;
  config.use_gaussian = true;
  SstdBatch sstd(config);
  const auto cm = evaluate_scheme(sstd, data);
  EXPECT_GE(cm.accuracy(), 0.8);
}

TEST(SstdBatch, PooledModelVariantWorks) {
  Dataset data = make_flip_dataset();
  SstdConfig config;
  config.per_claim_models = false;
  SstdBatch sstd(config);
  const auto cm = evaluate_scheme(sstd, data);
  EXPECT_GE(cm.accuracy(), 0.8);
}

TEST(SstdBatch, EstimateMatrixShape) {
  Dataset data = make_flip_dataset();
  SstdBatch sstd;
  const auto estimates = sstd.run(data);
  ASSERT_EQ(estimates.size(), data.num_claims());
  for (const auto& row : estimates) {
    ASSERT_EQ(row.size(), static_cast<std::size_t>(data.intervals()));
    for (auto cell : row) {
      EXPECT_TRUE(cell == 0 || cell == 1);
    }
  }
}

TEST(SstdStreaming, MatchesBatchQualityOnFlips) {
  Dataset data = make_flip_dataset();
  SstdConfig config;
  config.refit_every = 10;
  config.warmup_intervals = 5;
  SstdStreaming streaming(config, data.interval_ms());
  const auto estimates = replay_streaming(streaming, data);
  const auto cm = evaluate(data, estimates);
  EXPECT_GE(cm.accuracy(), 0.75);
  EXPECT_EQ(streaming.active_claims(), 2u);
  EXPECT_GT(streaming.refit_count(), 0u);
}

TEST(SstdStreaming, NoEstimateForUnknownClaim) {
  SstdConfig config;
  SstdStreaming streaming(config, 1000);
  EXPECT_EQ(streaming.current_estimate(ClaimId{5}), kNoEstimate);
}

TEST(SstdStreaming, EstimateAppearsAfterFirstInterval) {
  SstdConfig config;
  SstdStreaming streaming(config, 1000);
  Report r;
  r.source = SourceId{0};
  r.claim = ClaimId{0};
  r.time_ms = 100;
  r.attitude = 1;
  streaming.offer(r);
  streaming.end_interval(0);
  const auto estimate = streaming.current_estimate(ClaimId{0});
  EXPECT_TRUE(estimate == 0 || estimate == 1);
}

TEST(SstdStreaming, SingleIntervalClaimBoundsLaggedReads) {
  // A claim whose entire life is one interval: the filtered estimate
  // exists, lag 0 reads it, and any lag beyond the decoded history is
  // kNoEstimate rather than a throw.
  SstdConfig config;
  SstdStreaming streaming(config, 1000);
  Report r;
  r.source = SourceId{0};
  r.claim = ClaimId{3};
  r.time_ms = 10;
  r.attitude = 1;
  streaming.offer(r);
  streaming.end_interval(0);

  const auto estimate = streaming.current_estimate(ClaimId{3});
  ASSERT_TRUE(estimate == 0 || estimate == 1);
  EXPECT_EQ(streaming.lagged_estimate(ClaimId{3}, 0), estimate);
  EXPECT_EQ(streaming.lagged_estimate(ClaimId{3}, 1), kNoEstimate);
  EXPECT_EQ(streaming.lagged_estimate(ClaimId{3}, 1000), kNoEstimate);
}

TEST(SstdStreaming, TrainingEngineChoiceDoesNotChangeEstimates) {
  // config.train.engine selects the Baum-Welch arithmetic; the decoded
  // estimate stream must be identical under the oracle engine.
  Dataset data = make_flip_dataset();
  SstdConfig scaled_config;
  scaled_config.refit_every = 10;
  scaled_config.warmup_intervals = 5;
  SstdConfig log_config = scaled_config;
  log_config.train.engine = HmmEngine::kLogSpace;

  SstdStreaming scaled(scaled_config, data.interval_ms());
  SstdStreaming logspace(log_config, data.interval_ms());
  const auto scaled_estimates = replay_streaming(scaled, data);
  const auto logspace_estimates = replay_streaming(logspace, data);
  EXPECT_EQ(scaled_estimates, logspace_estimates);
  EXPECT_GT(scaled.refit_count(), 0u);
}

TEST(SstdStreaming, IdleClaimsAreEvicted) {
  SstdConfig config;
  config.evict_after_idle_intervals = 3;
  SstdStreaming streaming(config, 1000);

  // Claim 0 reports once, claim 1 reports every interval.
  Report once;
  once.source = SourceId{0};
  once.claim = ClaimId{0};
  once.time_ms = 100;
  once.attitude = 1;
  streaming.offer(once);
  for (IntervalIndex k = 0; k < 8; ++k) {
    Report r;
    r.source = SourceId{1};
    r.claim = ClaimId{1};
    r.time_ms = k * 1000 + 500;
    r.attitude = 1;
    streaming.offer(r);
    streaming.end_interval(k);
  }
  EXPECT_EQ(streaming.active_claims(), 1u);  // claim 0 evicted
  EXPECT_EQ(streaming.evicted_claims(), 1u);
  EXPECT_EQ(streaming.current_estimate(ClaimId{0}), kNoEstimate);
  EXPECT_NE(streaming.current_estimate(ClaimId{1}), kNoEstimate);
}

TEST(SstdStreaming, EvictedClaimRestartsCleanlyOnNewReports) {
  SstdConfig config;
  config.evict_after_idle_intervals = 2;
  SstdStreaming streaming(config, 1000);
  Report r;
  r.source = SourceId{0};
  r.claim = ClaimId{0};
  r.time_ms = 100;
  r.attitude = 1;
  streaming.offer(r);
  for (IntervalIndex k = 0; k < 5; ++k) streaming.end_interval(k);
  EXPECT_EQ(streaming.active_claims(), 0u);

  // The claim comes back: fresh pipeline, fresh estimate.
  Report revived = r;
  revived.time_ms = 6 * 1000 + 100;
  revived.attitude = -1;
  streaming.offer(revived);
  streaming.end_interval(6);
  EXPECT_EQ(streaming.active_claims(), 1u);
  EXPECT_NE(streaming.current_estimate(ClaimId{0}), kNoEstimate);
}

TEST(SstdStreaming, LaggedEstimateRevisesEarlyMistakes) {
  // A misinformation burst dominates intervals 0-2; honest evidence from
  // interval 3 on. The filtered estimate at interval 2 is wrong; the
  // lag-3 smoothed estimate read at interval 5 (i.e. about interval 2)
  // should be corrected by the later evidence.
  SstdConfig config;
  config.refit_every = 0;  // keep the informed prior: deterministic
  SstdStreaming streaming(config, 1000);

  auto feed = [&](IntervalIndex k, int attitude, int copies) {
    for (int s = 0; s < copies; ++s) {
      Report r;
      r.source = SourceId{static_cast<std::uint32_t>(s)};
      r.claim = ClaimId{0};
      r.time_ms = k * 1000 + 100 + s;
      r.attitude = static_cast<std::int8_t>(attitude);
      streaming.offer(r);
    }
    streaming.end_interval(k);
  };

  for (IntervalIndex k = 0; k < 3; ++k) feed(k, 1, 3);   // burst: "true"
  const auto filtered_at_2 = streaming.current_estimate(ClaimId{0});
  EXPECT_EQ(filtered_at_2, 1);

  for (IntervalIndex k = 3; k < 9; ++k) feed(k, -1, 8);  // truth: "false"

  // Smoothed view of interval 2 after seeing intervals 3-8: with sticky
  // transitions and overwhelming later denial, the most likely path says
  // the claim was already false (the burst was noise) or at least the
  // recent past is false; check lag-3 agrees with the honest evidence.
  EXPECT_EQ(streaming.lagged_estimate(ClaimId{0}, 3), 0);
}

TEST(SstdStreaming, LaggedEstimateBoundsChecked) {
  SstdConfig config;
  SstdStreaming streaming(config, 1000);
  EXPECT_EQ(streaming.lagged_estimate(ClaimId{0}, 0), kNoEstimate);
  Report r;
  r.source = SourceId{0};
  r.claim = ClaimId{0};
  r.time_ms = 100;
  r.attitude = 1;
  streaming.offer(r);
  streaming.end_interval(0);
  EXPECT_NE(streaming.lagged_estimate(ClaimId{0}, 0), kNoEstimate);
  EXPECT_EQ(streaming.lagged_estimate(ClaimId{0}, 1), kNoEstimate);
}

TEST(SstdStreaming, NeverRefitsWhenDisabled) {
  Dataset data = make_flip_dataset();
  SstdConfig config;
  config.refit_every = 0;
  SstdStreaming streaming(config, data.interval_ms());
  replay_streaming(streaming, data);
  EXPECT_EQ(streaming.refit_count(), 0u);
}

TEST(DistributedSstd, MatchesSingleThreadedEstimates) {
  Dataset data = make_flip_dataset();

  SstdConfig config;
  config.per_claim_scale = true;
  SstdBatch reference(config);
  const auto expected = reference.run(data);

  DistributedConfig dist_config;
  dist_config.workers = 3;
  dist_config.sstd = config;
  DistributedSstd distributed(dist_config);
  const auto actual = distributed.run(data);

  EXPECT_EQ(actual, expected);
  EXPECT_EQ(distributed.last_reports().size(), data.num_claims());
}

TEST(DistributedSstd, AccurateOnGeneratedTrace) {
  trace::TraceGenerator gen(trace::tiny(trace::boston_bombing(), 20'000, 15));
  Dataset data = gen.generate();
  DistributedConfig config;
  config.workers = 2;
  DistributedSstd distributed(config);
  EvalOptions eval;
  eval.window_ms = data.interval_ms();
  const auto cm = evaluate(data, distributed.run(data), eval);
  EXPECT_GE(cm.accuracy(), 0.7);
}

TEST(SimulateMakespan, SpeedupIsSubLinearButReal) {
  const double t1 = simulate_makespan(1e6, 64, 1);
  const double t4 = simulate_makespan(1e6, 64, 4);
  const double t16 = simulate_makespan(1e6, 64, 16);
  EXPECT_GT(t1 / t4, 2.0);   // parallelism helps
  EXPECT_LT(t1 / t4, 4.0);   // but not ideally (overheads)
  EXPECT_GT(t1 / t16, t1 / t4);  // more workers still help
  EXPECT_LT(t1 / t16, 16.0);
}

TEST(SimulateMakespan, SpeedupImprovesWithDataSize) {
  const double small_speedup =
      simulate_makespan(1e5, 64, 16) > 0
          ? simulate_makespan(1e5, 64, 1) / simulate_makespan(1e5, 64, 16)
          : 0.0;
  const double large_speedup =
      simulate_makespan(1e7, 64, 1) / simulate_makespan(1e7, 64, 16);
  EXPECT_GT(large_speedup, small_speedup);
}

TEST(PartitionTraffic, SplitsVolumeByClaimHash) {
  Dataset data = make_flip_dataset();
  const auto per_job = partition_traffic(data, 2);
  ASSERT_EQ(per_job.size(), static_cast<std::size_t>(data.intervals()));
  double total = 0.0;
  for (const auto& interval : per_job) {
    ASSERT_EQ(interval.size(), 2u);
    total += interval[0] + interval[1];
  }
  EXPECT_DOUBLE_EQ(total, static_cast<double>(data.num_reports()));
  // Claim 0 -> job 0, claim 1 -> job 1; both get traffic every interval.
  EXPECT_GT(per_job[0][0], 0.0);
  EXPECT_GT(per_job[0][1], 0.0);
}

DeadlineExperimentConfig deadline_config(bool pid) {
  DeadlineExperimentConfig config;
  config.deadline_s = 1.0;
  config.interval_arrival_s = 2.0;
  config.initial_workers = 4;
  config.policy = pid ? ControlPolicy::kPid : ControlPolicy::kStatic;
  config.sim.theta1 = 2e-3;
  config.sim.comm_per_unit_s = 2e-4;
  return config;
}

TEST(DeadlineExperiment, PidBeatsStaticUnderTightDeadlines) {
  trace::TraceGenerator gen(trace::tiny(trace::boston_bombing(), 30'000, 20));
  Dataset data = gen.generate();
  const auto per_job = partition_traffic(data, 8);

  const auto pid = run_deadline_experiment(per_job, deadline_config(true));
  const auto fixed = run_deadline_experiment(per_job, deadline_config(false));
  EXPECT_EQ(pid.intervals, fixed.intervals);
  EXPECT_GT(pid.intervals, 50u);
  EXPECT_GE(pid.hit_rate, fixed.hit_rate);
  EXPECT_GT(pid.hit_rate, 0.5);
}

TEST(DeadlineExperiment, LooserDeadlinesHitMore) {
  trace::TraceGenerator gen(trace::tiny(trace::boston_bombing(), 30'000, 20));
  Dataset data = gen.generate();
  const auto per_job = partition_traffic(data, 8);

  auto tight = deadline_config(true);
  tight.deadline_s = 0.4;
  auto loose = deadline_config(true);
  loose.deadline_s = 3.0;
  const auto tight_result = run_deadline_experiment(per_job, tight);
  const auto loose_result = run_deadline_experiment(per_job, loose);
  EXPECT_GE(loose_result.hit_rate, tight_result.hit_rate);
}

TEST(CentralizedBaseline, BacklogCausesMisses) {
  // Volumes that exceed what one node can do per arrival period.
  std::vector<std::uint64_t> volumes(50, 1000);
  const auto result = centralized_deadline_baseline(
      volumes, /*deadline=*/1.0, /*arrival=*/1.0, /*sec_per_unit=*/2e-3);
  // 2 s of work arriving every second: the backlog grows without bound and
  // almost every interval misses.
  EXPECT_LT(result.hit_rate, 0.1);

  const auto comfortable = centralized_deadline_baseline(
      volumes, 1.0, 1.0, 2e-4);  // 0.2 s of work per second
  EXPECT_GT(comfortable.hit_rate, 0.9);
}

TEST(CentralizedBaseline, EmptyInputIsSafe) {
  const auto result = centralized_deadline_baseline({}, 1.0, 1.0, 1e-3);
  EXPECT_EQ(result.intervals, 0u);
  EXPECT_EQ(result.hit_rate, 0.0);
}

}  // namespace
}  // namespace sstd
