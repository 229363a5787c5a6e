// The node benchmark's closed loop. It plays the crawler: for each
// interval it generates that interval's reports, hands them to SstdSystem
// with ingest_batch(), closes the interval with end_interval(k), and only
// then moves on to the next interval. Everything it times is a call into
// SstdSystem's public API; report generation and probing happen outside
// the timed windows.
//
// The work per run is a fixed number of intervals, never a wall-clock
// budget: refit cost grows with claim age, so a budgeted run would hand a
// faster build older, costlier claims.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "spans.h"
#include "sstd/system.h"
#include "workload/synth.h"

namespace sstd::nodebench {

// Seed of record, and the seed held out for confirming a claimed gain
// (never used while tuning a change).
inline constexpr std::uint64_t kDefaultSeed = 20260808;
inline constexpr std::uint64_t kHeldOutSeed = 7122031;

// Measured intervals per run: 200 closes leave ten beyond their p95.
inline constexpr IntervalIndex kRunIntervals = 200;
// Set-up seeds every claim once, this many claims per interval.
inline constexpr std::uint64_t kLoadReportsPerInterval = 75'000;

struct WorkloadSpec {
  std::string name;
  workload::KeyDistKind kind = workload::KeyDistKind::kZipfian;
  std::uint64_t num_claims = 0;
  std::uint64_t reports_per_interval = 0;
  // Hotspot only: the hot range moves every this many intervals.
  std::uint64_t hot_shift_intervals = 0;
  // WAL + periodic snapshots on, and the run ends with node restarts.
  bool durable = false;
};

// zipf_hot, uniform_churn, durable_shift (README.md says why each exists).
const std::vector<WorkloadSpec>& standard_workloads();
const WorkloadSpec* find_workload(const std::string& name);

workload::WorkloadConfig workload_config(const WorkloadSpec& spec,
                                         std::uint64_t seed);

// The soak's engine settings with the pool pinned at `workers`: the DTM
// may not grow or shrink it. `durable_dir` is used only by durable specs.
SstdSystem::Config system_config(const WorkloadSpec& spec, std::size_t workers,
                                 const std::string& durable_dir);

// What an interval's close does besides the plain per-claim step.
enum IntervalClass : unsigned { kPlain = 0, kRefit = 1, kSnapshot = 2, kBoth = 3 };
IntervalClass interval_class(IntervalIndex k, const SstdSystem::Config& config);
const char* interval_class_name(IntervalClass cls);

// Claims probed after interval k closes: up to `n` evenly spaced picks
// from the interval's own reports, in batch order.
std::vector<std::uint32_t> probe_claims(const std::vector<Report>& batch,
                                        std::size_t n);

struct PassOptions {
  std::uint64_t seed = kDefaultSeed;
  std::size_t workers = 2;
  // Timed set-ups, each a fresh node + load sweep in a fresh process: the
  // pass's own, plus setups - 1 in child processes forked before it. The
  // restarts, durable specs only, run after the run in child processes
  // forked at the same point. A pass that forks must start while the
  // process has no thread but the caller's.
  int setups = 1;
  int restarts = 0;
  bool gate = false;    // shard-0 reference check after the run
  // The traced pass's extras: live-claim counts, the benchmark's own WAL
  // writer and a wal_scan, and run spans in alternating blocks.
  bool layers = false;
  IntervalIndex run_intervals = kRunIntervals;
  // Every file the pass writes goes under dir/node and dir/own_wal, and
  // the pass removes both.
  std::string dir;
};

struct IntervalRecord {
  IntervalIndex k = 0;
  IntervalClass cls = kPlain;
  bool traced = false;  // spans were on
  std::size_t reports = 0;
  double gen_s = 0.0;
  double ingest_s = 0.0;
  double close_s = 0.0;
  double cpu_s = 0.0;  // process CPU, all threads, over ingest + close
  double own_wal_s = 0.0;
  std::uint64_t refits = 0;
  std::uint64_t snapshot_writes = 0;
  std::uint64_t provenance_records = 0;
  std::size_t live_workers = 0;
  std::size_t max_shard_backlog = 0;
  std::size_t live_claims = 0;
};

struct PassResult {
  std::vector<double> setup_s;
  std::vector<IntervalRecord> intervals;
  std::uint64_t probes = 0;
  std::uint64_t probes_correct = 0;  // estimate equals the latent truth
  double peak_rss_mib = 0.0;
  std::vector<double> recovery_s;
  std::uint64_t replayed_records = 0;

  // Registry deltas around the run's ingest_batch + end_interval calls.
  obs::HistogramSnapshot queue_wait_s;
  obs::HistogramSnapshot task_exec_s;
  obs::HistogramSnapshot wal_fsync_s;
  std::uint64_t wal_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t snapshot_writes = 0;

  // The benchmark's own WAL writer and the scan after the run.
  std::uint64_t own_wal_records = 0;
  double scan_s = 0.0;
  std::uint64_t scan_bytes = 0;

  // Correctness checks: shard tasks, reference probes, restart probes.
  std::uint64_t checks = 0;
  std::uint64_t failures = 0;
  std::vector<std::string> notes;  // one line per kind of failure
};

PassResult run_pass(const WorkloadSpec& spec, const PassOptions& options,
                    SpanRecorder& spans);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// The end-to-end metrics of one untraced pass, in BENCHMARK.json order.
std::vector<Metric> end_to_end_metrics(const PassResult& pass);

// The per-layer metrics: `traced` is the traced pass at the pinned pool
// (spans alternating by block), `single` its repeat with one worker over
// the first part of the run.
std::vector<Metric> per_layer_metrics(const WorkloadSpec& spec,
                                      const PassResult& traced,
                                      const PassResult& single,
                                      std::size_t workers);

}  // namespace sstd::nodebench
