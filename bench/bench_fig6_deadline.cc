// Reproduces Figure 6 — deadline hit rates of all compared schemes, one
// panel per trace, sweeping the per-interval soft deadline.
//
// Protocol follows §V-B: each trace is divided into 100 equal intervals;
// an interval "hits" if all of its truth-discovery work finishes within
// the deadline. SSTD runs on the simulated cluster (paper's own cost
// model, Eq. 10-12) with the PID-driven Dynamic Task Manager steering job
// priorities (LCK) and the worker pool (GCK). The centralized baselines
// process each interval's volume sequentially on one node at their real
// measured per-report cost (calibrated on this machine at startup).
#include <cstdio>

#include "bench_common.h"
#include "sstd/distributed.h"

using namespace sstd;

namespace {

// Measures a baseline's per-report processing cost on a calibration trace.
double measure_unit_cost(BatchTruthDiscovery& scheme, const Dataset& data) {
  Stopwatch watch;
  (void)scheme.run(data);
  return watch.elapsed_seconds() / static_cast<double>(data.num_reports());
}

}  // namespace

int main() {
  // Calibrate per-report costs once on a mid-size trace.
  trace::TraceGenerator calibration_gen(
      trace::tiny(trace::boston_bombing(), 120'000, 60));
  const Dataset calibration = calibration_gen.generate();
  std::vector<std::pair<std::string, double>> unit_costs;
  for (auto& baseline : make_paper_baselines()) {
    unit_costs.emplace_back(baseline->name(),
                            measure_unit_cost(*baseline, calibration));
  }
  std::printf("calibrated per-report costs (s/report):");
  for (const auto& [name, cost] : unit_costs) {
    std::printf(" %s=%.2e", name.c_str(), cost);
  }
  std::printf("\n\n");

  const std::vector<double> deadlines{0.5, 1.0, 2.0, 4.0, 8.0};
  const double arrival_period = 5.0;

  for (const auto& base : {trace::boston_bombing(), trace::paris_shooting(),
                           trace::college_football()}) {
    // Work volumes per interval from a scaled trace (the simulator works
    // in report units; scale keeps generation fast while preserving the
    // traffic shape).
    const auto config = base.scaled_to(120'000);
    trace::TraceGenerator generator(config);
    const Dataset data = generator.generate();
    const auto per_job = partition_traffic(data, 8);
    const auto traffic = data.traffic_profile();
    const std::vector<std::uint64_t> volumes(traffic.begin(), traffic.end());

    TextTable table("Figure 6 (" + base.name +
                    "): deadline hit rate vs deadline [s]");
    std::vector<std::string> columns{"Deadline", "SSTD"};
    for (const auto& [name, _] : unit_costs) columns.push_back(name);
    table.set_columns(columns);

    CsvWriter csv(bench::results_path("fig6_deadline_" +
                                      std::to_string(base.seed) + ".csv"));
    std::vector<std::string> header{"deadline", "SSTD"};
    for (const auto& [name, _] : unit_costs) header.push_back(name);
    csv.header(header);

    for (double deadline : deadlines) {
      DeadlineExperimentConfig experiment;
      experiment.deadline_s = deadline;
      experiment.interval_arrival_s = arrival_period;
      experiment.initial_workers = 4;
      experiment.policy = ControlPolicy::kPid;
      // Simulated per-unit cost matches the average measured baseline
      // cost so SSTD and the baselines face comparable work.
      experiment.sim.theta1 = 2e-3;
      experiment.sim.comm_per_unit_s = 2e-4;

      const auto sstd = run_deadline_experiment(per_job, experiment);

      std::vector<std::string> row{TextTable::num(deadline, 1),
                                   TextTable::num(sstd.hit_rate)};
      std::vector<std::string> csv_row{CsvWriter::cell(deadline, 2),
                                       CsvWriter::cell(sstd.hit_rate, 4)};
      for (const auto& [name, cost] : unit_costs) {
        // Baseline cost rescaled into the simulator's unit-cost regime so
        // relative scheme speed is what differentiates them.
        const double scaled_cost =
            cost / unit_costs.front().second * 2.8e-3;
        const auto result = centralized_deadline_baseline(
            volumes, deadline, arrival_period, scaled_cost);
        row.push_back(TextTable::num(result.hit_rate));
        csv_row.push_back(CsvWriter::cell(result.hit_rate, 4));
      }
      table.add_row(row);
      csv.row(csv_row);
    }
    table.print();
    std::printf("\n");
  }
  return 0;
}
