// Ablation A2 — the feedback control loop:
//   * PID gain grid (the paper tunes Kp/Ki/Kd in [0,3] and lands on
//     1.2/0.3/0.2, §V-A3)
//   * PID DTM vs fixed allocation at several deadlines
//   * knob isolation: LCK-only (priorities, fixed pool) vs full control
#include <cstdio>

#include "bench_common.h"
#include "sstd/distributed.h"

using namespace sstd;

namespace {

DeadlineExperimentConfig base_experiment(double deadline) {
  DeadlineExperimentConfig config;
  config.deadline_s = deadline;
  config.interval_arrival_s = 2.0;
  config.initial_workers = 4;
  config.sim.theta1 = 2e-3;
  config.sim.comm_per_unit_s = 2e-4;
  return config;
}

}  // namespace

int main() {
  trace::TraceGenerator generator(
      trace::tiny(trace::boston_bombing(), 60'000, 40));
  const Dataset data = generator.generate();
  const auto per_job = partition_traffic(data, 8);

  // --- PID gain grid at a tight deadline --------------------------------
  TextTable grid("Ablation A2a: PID gain grid, hit rate at 1.0 s deadline "
                 "(paper's pick: Kp=1.2 Ki=0.3 Kd=0.2)");
  grid.set_columns({"Kp", "Ki", "Kd", "Hit rate", "Mean workers"});
  CsvWriter grid_csv(bench::results_path("ablation_pid_grid.csv"));
  grid_csv.header({"kp", "ki", "kd", "hit_rate", "mean_workers"});

  for (double kp : {0.0, 0.6, 1.2, 2.4}) {
    for (double ki : {0.0, 0.3}) {
      for (double kd : {0.0, 0.2}) {
        auto experiment = base_experiment(1.0);
        experiment.dtm.gains.kp = kp;
        experiment.dtm.gains.ki = ki;
        experiment.dtm.gains.kd = kd;
        const auto result = run_deadline_experiment(per_job, experiment);
        grid.add_row({TextTable::num(kp, 1), TextTable::num(ki, 1),
                      TextTable::num(kd, 1),
                      TextTable::num(result.hit_rate),
                      TextTable::num(result.mean_workers, 1)});
        grid_csv.row({CsvWriter::cell(kp, 1), CsvWriter::cell(ki, 1),
                      CsvWriter::cell(kd, 1),
                      CsvWriter::cell(result.hit_rate, 4),
                      CsvWriter::cell(result.mean_workers, 2)});
      }
    }
  }
  grid.print();
  std::printf("\n");

  // --- control policy comparison across deadlines -----------------------
  TextTable policy(
      "Ablation A2b: control policy vs deadline (hit rate | mean workers)");
  policy.set_columns({"Deadline (s)", "PID (LCK+GCK)", "LCK only",
                      "Fixed allocation", "RTO (exact, SVII)"});
  CsvWriter policy_csv(bench::results_path("ablation_pid_policy.csv"));
  policy_csv.header({"deadline", "pid_full", "pid_workers", "lck_only",
                     "fixed", "rto", "rto_workers"});

  for (double deadline : {0.5, 1.0, 2.0, 4.0}) {
    auto full = base_experiment(deadline);
    const auto full_result = run_deadline_experiment(per_job, full);

    auto lck_only = base_experiment(deadline);
    lck_only.dtm.min_workers = lck_only.dtm.max_workers = 4;  // pin GCK
    const auto lck_result = run_deadline_experiment(per_job, lck_only);

    auto fixed = base_experiment(deadline);
    fixed.policy = ControlPolicy::kStatic;
    const auto fixed_result = run_deadline_experiment(per_job, fixed);

    auto rto = base_experiment(deadline);
    rto.policy = ControlPolicy::kRto;
    const auto rto_result = run_deadline_experiment(per_job, rto);

    auto cell = [](const DeadlineExperimentResult& r) {
      return TextTable::num(r.hit_rate) + " | " +
             TextTable::num(r.mean_workers, 1);
    };
    policy.add_row({TextTable::num(deadline, 1), cell(full_result),
                    cell(lck_result), cell(fixed_result),
                    cell(rto_result)});
    policy_csv.row({CsvWriter::cell(deadline, 2),
                    CsvWriter::cell(full_result.hit_rate, 4),
                    CsvWriter::cell(full_result.mean_workers, 2),
                    CsvWriter::cell(lck_result.hit_rate, 4),
                    CsvWriter::cell(fixed_result.hit_rate, 4),
                    CsvWriter::cell(rto_result.hit_rate, 4),
                    CsvWriter::cell(rto_result.mean_workers, 2)});
  }
  policy.print();
  return 0;
}
