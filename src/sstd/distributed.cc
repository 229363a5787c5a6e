#include "sstd/distributed.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "control/rto.h"
#include "core/acs.h"
#include "hmm/quantizer.h"
#include "sstd/batch.h"
#include "util/stopwatch.h"

namespace {

// Graceful degradation (DESIGN.md "Fault model"): when a claim's decode
// task exhausts its attempt budget, fall back to thresholding the raw ACS
// stream — positive corroboration means true, contradiction means false,
// and ambiguous intervals carry the last known estimate forward. Cheaper
// and cruder than the HMM decode, but the claim still gets an answer.
std::vector<std::int8_t> degraded_estimate(const std::vector<double>& acs) {
  constexpr double kEpsilon = 1e-9;
  std::vector<std::int8_t> row(acs.size(), sstd::kNoEstimate);
  std::int8_t carry = sstd::kNoEstimate;
  for (std::size_t k = 0; k < acs.size(); ++k) {
    if (acs[k] > kEpsilon) {
      carry = 1;
    } else if (acs[k] < -kEpsilon) {
      carry = 0;
    }
    row[k] = carry;
  }
  return row;
}

}  // namespace

namespace sstd {

EstimateMatrix DistributedSstd::run(const Dataset& data) {
  const TimestampMs window =
      config_.sstd.window_ms > 0 ? config_.sstd.window_ms
                                 : data.interval_ms();

  // Master-side preprocessing (paper §III-E: each TD job implements data
  // preprocessing + HMM decode; here the ACS build is the preprocessing
  // and runs inside the task too).
  EstimateMatrix estimates(
      data.num_claims(),
      std::vector<std::int8_t>(data.intervals(), kNoEstimate));

  dist::WorkQueue queue(config_.workers, config_.retry, config_.fast_abort);
  queue.set_telemetry(config_.telemetry);
  if (!config_.fault_plan.empty()) {
    queue.install_fault_plan(config_.fault_plan);
  }
  const SstdConfig sstd_config = config_.sstd;

  // Speculative duplicates of one task may commit concurrently, so row
  // writes go through a commit mutex; first commit wins per claim.
  std::mutex commit_mu;
  std::vector<char> committed(data.num_claims(), 0);

  // Per-claim ingest→decision staleness (DESIGN.md §5c): a claim's batch
  // "ingests" at submit and "decides" at first row commit.
  obs::Histogram* staleness_hist =
      config_.telemetry.metrics->histogram("stream.decision_staleness_s");
  const auto wall = std::make_shared<Stopwatch>();

  for (std::uint32_t u = 0; u < data.num_claims(); ++u) {
    const auto reports = data.reports_of_claim(ClaimId{u});
    dist::Task task;
    task.id = u;
    task.job = static_cast<dist::JobId>(u % config_.num_jobs);
    task.data_size = static_cast<double>(reports.size());
    auto* row = &estimates[u];
    const double ingested_s = wall->elapsed_seconds();
    task.cancellable_work = [reports, row, u, &data, window, sstd_config,
                             &commit_mu, &committed, staleness_hist, wall,
                             ingested_s](const dist::CancelToken& token) {
      if (token.cancelled()) return false;
      const std::vector<double> acs = build_acs_series(
          reports, data.intervals(), data.interval_ms(), window);
      if (token.cancelled()) return false;
      const AcsQuantizer quantizer = AcsQuantizer::fit(
          {acs}, sstd_config.num_bins, sstd_config.scale_quantile);
      auto decoded = SstdBatch::decode_claim(acs, quantizer, sstd_config);
      std::lock_guard<std::mutex> lock(commit_mu);
      if (!committed[u]) {
        committed[u] = 1;
        *row = std::move(decoded);
        staleness_hist->observe(wall->elapsed_seconds() - ingested_s);
      }
      return true;
    };
    queue.submit(std::move(task), /*priority=*/0.0);
  }

  queue.wait_all();
  reports_ = queue.drain_reports();

  run_stats_ = DistributedRunStats{};
  run_stats_.claims = data.num_claims();
  run_stats_.queue = queue.stats();
  queue.shutdown();

  // Graceful degradation: every claim whose task never committed a decode
  // (retries exhausted / quarantined) still gets an estimate row.
  for (const auto& report : reports_) {
    if (report.failed) ++run_stats_.failed_claims;
  }
  if (config_.degrade_on_failure) {
    obs::Counter* fallbacks =
        config_.telemetry.metrics->counter("stream.acs_fallback_activations");
    for (std::uint32_t u = 0; u < data.num_claims(); ++u) {
      if (committed[u]) continue;
      const auto reports = data.reports_of_claim(ClaimId{u});
      const std::vector<double> acs = build_acs_series(
          reports, data.intervals(), data.interval_ms(), window);
      estimates[u] = degraded_estimate(acs);
      ++run_stats_.degraded_claims;
      fallbacks->inc();
    }
  }
  return estimates;
}

double simulate_makespan(double total_data, std::size_t num_tasks,
                         std::size_t workers, const dist::SimConfig& sim) {
  dist::SimCluster cluster = dist::SimCluster::homogeneous(workers, sim);
  num_tasks = std::max<std::size_t>(1, num_tasks);
  const double per_task = total_data / static_cast<double>(num_tasks);
  for (std::size_t i = 0; i < num_tasks; ++i) {
    dist::Task task;
    task.id = i;
    task.job = 0;
    task.data_size = per_task;
    cluster.submit(task);
  }
  return cluster.run_to_completion();
}

std::vector<std::vector<double>> partition_traffic(const Dataset& data,
                                                   std::size_t num_jobs) {
  num_jobs = std::max<std::size_t>(1, num_jobs);
  std::vector<std::vector<double>> per_job(
      data.intervals(), std::vector<double>(num_jobs, 0.0));
  for (const auto& report : data.reports()) {
    const IntervalIndex k = data.interval_of(report.time_ms);
    per_job[k][report.claim.value % num_jobs] += 1.0;
  }
  return per_job;
}

DeadlineExperimentResult run_deadline_experiment(
    const std::vector<std::vector<double>>& per_job_data,
    const DeadlineExperimentConfig& config) {
  DeadlineExperimentResult result;
  if (per_job_data.empty()) return result;
  const std::size_t num_jobs = per_job_data.front().size();

  dist::SimCluster cluster =
      dist::SimCluster::homogeneous(config.initial_workers, config.sim);
  if (!config.fault.empty()) {
    cluster.install_fault_plan(config.fault);
  }
  control::DtmConfig dtm_config = config.dtm;
  // Keep the simulator and the controller's plant model consistent.
  dtm_config.wcet.task_init_s = config.sim.task_init_s;
  dtm_config.wcet.theta1 = config.sim.theta1;
  dtm_config.wcet.theta2 = config.sim.theta1 + config.sim.comm_per_unit_s;
  control::DynamicTaskManager dtm(dtm_config);
  const ControlPolicy policy = config.policy;
  control::RtoAllocator::Options rto_options;
  rto_options.min_workers = dtm_config.min_workers;
  rto_options.max_workers = dtm_config.max_workers;
  rto_options.max_parallelism_per_job = 1.0;  // one task per TD job here
  const control::RtoAllocator rto(dtm_config.wcet, rto_options);

  // Per logical job (interval x group): absolute deadline and completion.
  struct JobTracking {
    double deadline = 0.0;
    std::size_t outstanding = 0;
    double finished_at = 0.0;
  };
  std::unordered_map<dist::JobId, JobTracking> tracking;

  std::uint64_t next_task_id = 0;
  double last_sample = 0.0;
  double worker_time_integral = 0.0;
  double last_integral_time = 0.0;
  auto integrate_workers = [&](const dist::SimCluster& c) {
    worker_time_integral +=
        static_cast<double>(c.worker_count()) *
        (c.now() - last_integral_time);
    last_integral_time = c.now();
  };

  auto job_deadline_lookup = [&](dist::JobId job) {
    const auto it = tracking.find(job);
    return it != tracking.end() ? it->second.deadline : 0.0;
  };
  int rto_comfortable = 0;

  // One control sample under the configured policy.
  auto control_sample = [&](std::unordered_map<dist::JobId, double>&
                                remaining,
                            dist::SimCluster& c) {
    if (policy == ControlPolicy::kPid) {
      // Fault feedback: the DTM sees the cluster's cumulative eviction and
      // failure counters and compensates lost work via the GCK (theta5).
      const control::FaultObservation faults{c.evictions(),
                                             c.task_failures()};
      const auto decision =
          dtm.sample(c.now(), remaining, c.worker_count(), faults);
      for (const auto& [job, priority] : decision.priorities) {
        c.set_job_priority(job, priority);
      }
      c.set_worker_count(decision.worker_target);
    } else if (policy == ControlPolicy::kRto) {
      // The Eq. 12 plant model omits the fixed per-task init and the
      // startup lag of freshly recruited workers, so plan against a
      // slack reduced by those overheads.
      const double overhead_margin =
          config.sim.task_init_s + 0.5 * config.sim.worker_startup_s;
      std::vector<control::RtoJob> rto_jobs;
      for (const auto& [job, volume] : remaining) {
        control::RtoJob entry;
        entry.job = job;
        entry.data_size = volume;
        entry.deadline_s = job_deadline_lookup(job) - overhead_margin;
        rto_jobs.push_back(entry);
      }
      if (!rto_jobs.empty()) {
        const auto allocation = rto.allocate(rto_jobs, c.now());
        // Scale up immediately; scale down only after several consecutive
        // samples agree (a just-drained queue would otherwise thrash the
        // pool to the minimum right before the next interval arrives).
        std::size_t target = allocation.workers;
        if (target < c.worker_count()) {
          if (++rto_comfortable < 3) {
            target = c.worker_count();
          } else {
            rto_comfortable = 0;
          }
        } else {
          rto_comfortable = 0;
        }
        c.set_worker_count(target);
        for (const auto& alloc : allocation.jobs) {
          c.set_job_priority(alloc.job, alloc.share);
        }
      }
    }
  };


  const auto total_intervals = per_job_data.size();
  const double horizon =
      config.interval_arrival_s * static_cast<double>(total_intervals + 2) +
      1000.0;

  auto process_completions = [&](const std::vector<dist::TaskReport>& done) {
    for (const auto& report : done) {
      auto& track = tracking.at(report.job);
      if (--track.outstanding == 0) {
        track.finished_at = report.finished_s;
        // Deadlines here are absolute sim times, so the "elapsed" the
        // SLO tally judges is the absolute finish time.
        dtm.observe_completion(report.job, track.finished_at);
        dtm.complete_job(report.job);
      }
    }
  };

  for (std::size_t k = 0; k < total_intervals; ++k) {
    const double arrival = config.interval_arrival_s * static_cast<double>(k);

    // Advance the simulation (with 1 Hz control sampling) up to `arrival`.
    while (cluster.now() < arrival) {
      const double step_end =
          std::min(arrival, last_sample + dtm_config.sample_period_s);
      process_completions(cluster.advance_to(step_end));
      integrate_workers(cluster);
      if (policy != ControlPolicy::kStatic &&
          cluster.now() >= last_sample +
              dtm_config.sample_period_s - 1e-9) {
        std::unordered_map<dist::JobId, double> remaining;
        for (const auto& [job, track] : tracking) {
          if (track.outstanding > 0) {
            remaining[job] = cluster.outstanding_data_of_job(job);
          }
        }
        control_sample(remaining, cluster);
      }
      last_sample = step_end;
      if (step_end >= arrival) break;
    }

    // Submit this interval's TD jobs.
    for (std::size_t g = 0; g < num_jobs; ++g) {
      const double volume = per_job_data[k][g];
      if (volume <= 0.0) continue;
      const auto job_id =
          static_cast<dist::JobId>(k * num_jobs + g);
      tracking[job_id].deadline = arrival + config.deadline_s;
      tracking[job_id].outstanding = 1;
      dtm.register_job(job_id, arrival + config.deadline_s);
      cluster.set_job_priority(job_id, dtm.priority(job_id));

      dist::Task task;
      task.id = next_task_id++;
      task.job = job_id;
      task.data_size = volume;
      cluster.submit(task);
    }
  }

  // Drain everything that is still in flight.
  while (cluster.pending() + cluster.running() > 0 &&
         cluster.now() < horizon) {
    process_completions(
        cluster.advance_to(cluster.now() + dtm_config.sample_period_s));
    integrate_workers(cluster);
    if (policy != ControlPolicy::kStatic) {
      std::unordered_map<dist::JobId, double> remaining;
      for (const auto& [job, track] : tracking) {
        if (track.outstanding > 0) {
          remaining[job] = cluster.outstanding_data_of_job(job);
        }
      }
      control_sample(remaining, cluster);
    }
  }

  // Score deadline hits per interval: an interval hits iff all of its jobs
  // finished by the interval deadline.
  std::vector<double> completion_times;
  for (std::size_t k = 0; k < total_intervals; ++k) {
    bool any = false;
    bool hit = true;
    const double arrival = config.interval_arrival_s * static_cast<double>(k);
    double finished = arrival;
    for (std::size_t g = 0; g < num_jobs; ++g) {
      const auto job_id = static_cast<dist::JobId>(k * num_jobs + g);
      const auto it = tracking.find(job_id);
      if (it == tracking.end()) continue;
      any = true;
      if (it->second.outstanding > 0 ||
          it->second.finished_at > it->second.deadline) {
        hit = false;
      }
      finished = std::max(finished, it->second.finished_at);
    }
    if (!any) continue;
    ++result.intervals;
    result.deadline_hits += hit;
    completion_times.push_back(finished - arrival);
  }
  result.hit_rate =
      result.intervals
          ? static_cast<double>(result.deadline_hits) / result.intervals
          : 0.0;
  double total_completion = 0.0;
  for (double t : completion_times) total_completion += t;
  result.mean_completion_s =
      completion_times.empty()
          ? 0.0
          : total_completion / static_cast<double>(completion_times.size());
  result.final_workers = cluster.worker_count();
  result.mean_workers = last_integral_time > 0.0
                            ? worker_time_integral / last_integral_time
                            : static_cast<double>(cluster.worker_count());
  return result;
}

DeadlineExperimentResult centralized_deadline_baseline(
    const std::vector<std::uint64_t>& interval_volumes, double deadline_s,
    double interval_arrival_s, double seconds_per_unit) {
  DeadlineExperimentResult result;
  double busy_until = 0.0;  // single node, sequential backlog
  for (std::size_t k = 0; k < interval_volumes.size(); ++k) {
    const double arrival = interval_arrival_s * static_cast<double>(k);
    const double start = std::max(arrival, busy_until);
    const double finish =
        start + static_cast<double>(interval_volumes[k]) * seconds_per_unit;
    busy_until = finish;
    ++result.intervals;
    if (finish <= arrival + deadline_s) ++result.deadline_hits;
    result.mean_completion_s += finish - arrival;
  }
  if (result.intervals > 0) {
    result.hit_rate =
        static_cast<double>(result.deadline_hits) / result.intervals;
    result.mean_completion_s /= static_cast<double>(result.intervals);
  }
  result.final_workers = 1;
  return result;
}

}  // namespace sstd
