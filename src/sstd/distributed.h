// Distributed SSTD (paper §III-E, §IV): the per-claim decomposition of the
// HMM truth-discovery computation onto the Work Queue runtime, plus the
// simulation drivers for the cluster-scale experiments.
//
// Scalability comes from the scheme itself: the HMM consumes per-claim ACS
// aggregates rather than global source-reliability state, so the stream
// splits cleanly by claim and TD jobs run embarrassingly parallel.
#pragma once

#include <cstdint>
#include <vector>

#include "control/dtm.h"
#include "core/truth_discovery.h"
#include "dist/sim_cluster.h"
#include "dist/work_queue.h"
#include "obs/telemetry.h"
#include "sstd/config.h"

namespace sstd {

// ---------------------------------------------------------------------
// Real threaded execution (examples + Figure 4/5 real-time measurements).
// ---------------------------------------------------------------------

struct DistributedConfig {
  std::size_t workers = 4;   // paper §V-B runs SSTD with 4 workers
  std::size_t num_jobs = 8;  // claims are partitioned into this many TD jobs
  SstdConfig sstd;

  // Fault tolerance (DESIGN.md "Fault model"). Fast-abort is on by
  // default: one wedged worker must not pin the interval makespan.
  dist::RetryPolicy retry;
  dist::FastAbortConfig fast_abort{.enabled = true};

  // Chaos schedule injected into the Work Queue (empty = no faults).
  dist::FaultPlan fault_plan;

  // Graceful degradation: claims whose task exhausted its attempt budget
  // fall back to a thresholded streaming estimate computed master-side,
  // so run() never returns a missing row for a claim that had reports.
  bool degrade_on_failure = true;

  // Where the run's wq.*/stream.* metrics and task spans land (defaults
  // to the process-global registry/recorder).
  obs::Telemetry telemetry;
};

// What the fault-tolerance layer did during the last run().
struct DistributedRunStats {
  std::size_t claims = 0;
  std::size_t failed_claims = 0;    // tasks that exhausted their retries
  std::size_t degraded_claims = 0;  // rows filled by the fallback estimator
  dist::WorkQueueStats queue;
};

class DistributedSstd final : public BatchTruthDiscovery {
 public:
  explicit DistributedSstd(DistributedConfig config = {})
      : config_(config) {}

  std::string name() const override { return "SSTD"; }

  // Partitions claims into TD jobs, runs each claim's decode as a Work
  // Queue task on the worker pool, and merges the estimates.
  EstimateMatrix run(const Dataset& data) override;

  // Task-level completion reports of the last run (timings per claim).
  const std::vector<dist::TaskReport>& last_reports() const {
    return reports_;
  }

  // Fault/degradation counters of the last run.
  const DistributedRunStats& last_run_stats() const { return run_stats_; }

 private:
  DistributedConfig config_;
  std::vector<dist::TaskReport> reports_;
  DistributedRunStats run_stats_;
};

// ---------------------------------------------------------------------
// Simulated cluster experiments (Figures 6 and 7).
// ---------------------------------------------------------------------

// Figure 7 speedup: makespan of `total_data` units of TD work split into
// `num_tasks` tasks on `workers` simulated workers (incl. startup and
// communication overhead). Speedup(N) = makespan(1) / makespan(N).
double simulate_makespan(double total_data, std::size_t num_tasks,
                         std::size_t workers,
                         const dist::SimConfig& sim = {});

// Figure 6 deadline experiment. Every `interval_arrival_s` of simulated
// time one interval's worth of data arrives, split into `num_jobs` TD
// jobs (sizes from `per_job_data[interval][job]`); each interval's jobs
// carry a soft deadline `deadline_s` after their arrival.
//
// Control policies:
//   kStatic — priorities and pool size stay fixed (strawman);
//   kPid    — the DTM samples once per second and retunes job priorities
//             (LCK) and the worker pool (GCK) via PID feedback (the
//             paper's implemented mechanism);
//   kRto    — the exact knob optimization the paper leaves as future work
//             (§VII): each sample solves for the minimal pool and optimal
//             shares under the Eq. 12 WCET model (control/rto.h).
enum class ControlPolicy { kStatic, kPid, kRto };

struct DeadlineExperimentConfig {
  double deadline_s = 5.0;
  double interval_arrival_s = 5.0;
  std::size_t initial_workers = 4;
  ControlPolicy policy = ControlPolicy::kPid;
  dist::SimConfig sim;
  control::DtmConfig dtm;

  // Chaos schedule installed into the simulated cluster (empty = none).
  // Under kPid the DTM also receives the cluster's eviction/failure
  // counters each sample and compensates via the GCK (DtmConfig::theta5).
  dist::FaultPlan fault;
};

struct DeadlineExperimentResult {
  std::size_t intervals = 0;
  std::size_t deadline_hits = 0;
  double hit_rate = 0.0;
  double mean_completion_s = 0.0;   // mean interval completion latency
  std::size_t final_workers = 0;
  double mean_workers = 0.0;        // time-averaged pool size (GCK cost)
};

DeadlineExperimentResult run_deadline_experiment(
    const std::vector<std::vector<double>>& per_job_data,
    const DeadlineExperimentConfig& config);

// Splits a dataset's per-interval traffic into `num_jobs` job volumes by
// hashing claims onto jobs — the input run_deadline_experiment expects.
std::vector<std::vector<double>> partition_traffic(
    const Dataset& data, std::size_t num_jobs);

// Centralized baseline for Figure 6: a single node processes each
// interval's entire volume sequentially at `seconds_per_unit`; an interval
// hits its deadline iff its backlog-adjusted completion time is within
// `deadline_s`. Models the paper's non-distributed baselines.
DeadlineExperimentResult centralized_deadline_baseline(
    const std::vector<std::uint64_t>& interval_volumes, double deadline_s,
    double interval_arrival_s, double seconds_per_unit);

}  // namespace sstd
