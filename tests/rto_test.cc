// Tests for the RTO knob optimizer (the paper's §VII future work,
// implemented in control/rto.h) and its integration as a deadline-
// experiment control policy.
#include <gtest/gtest.h>

#include <numeric>

#include "control/rto.h"
#include "sstd/distributed.h"
#include "trace/generator.h"

namespace sstd {
namespace {

using control::RtoAllocator;
using control::RtoJob;

RtoAllocator make_allocator(double theta2 = 1e-3,
                            std::size_t max_workers = 128,
                            int task_budget = 64) {
  control::WcetParams wcet;
  wcet.theta2 = theta2;
  RtoAllocator::Options options;
  options.max_workers = max_workers;
  options.task_budget = task_budget;
  return RtoAllocator(wcet, options);
}

TEST(Rto, SingleJobExactPoolSize) {
  // Work = TI + D*theta2 = 0.25 + 10 s; deadline slack 2 s =>
  // needs ceil(10.25 / 2) = 6 workers with share 1.
  const auto allocator = make_allocator();
  const auto result =
      allocator.allocate({RtoJob{1, 10'000.0, 2.0}}, /*now=*/0.0);
  EXPECT_EQ(result.workers, 6u);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(result.jobs[0].share, 1.0);
  EXPECT_TRUE(result.all_feasible);
}

TEST(Rto, SharesProportionalToUrgencyTimesVolume) {
  // Job A: (0.25 + 4)/1 = 4.25; job B: (0.25 + 2)/2 = 1.125.
  // Pool = ceil(5.375) = 6, shares proportional to the requirements.
  const auto allocator = make_allocator();
  const auto result = allocator.allocate(
      {RtoJob{1, 4000.0, 1.0}, RtoJob{2, 2000.0, 2.0}}, 0.0);
  EXPECT_EQ(result.workers, 6u);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_NEAR(result.jobs[0].share, 4.25 / 5.375, 1e-9);
  EXPECT_NEAR(result.jobs[1].share, 1.125 / 5.375, 1e-9);
  EXPECT_TRUE(result.all_feasible);
}

TEST(Rto, AllocationMeetsEveryDeadlineWhenFeasible) {
  const auto allocator = make_allocator();
  const std::vector<RtoJob> jobs{
      {1, 3000.0, 1.5}, {2, 500.0, 0.4}, {3, 8000.0, 6.0}};
  const auto result = allocator.allocate(jobs, 0.0);
  ASSERT_TRUE(result.all_feasible);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const double wcet =
        (0.25 + jobs[i].data_size * 1e-3) /
        (static_cast<double>(result.workers) * result.jobs[i].share);
    EXPECT_LE(wcet, jobs[i].deadline_s + 1e-6) << "job " << i;
  }
}

TEST(Rto, InfeasibleWhenMaxWorkersTooSmall) {
  const auto allocator = make_allocator(1e-3, /*max_workers=*/2);
  const auto result =
      allocator.allocate({RtoJob{1, 10'000.0, 1.0}}, 0.0);  // needs 11
  EXPECT_EQ(result.workers, 2u);
  EXPECT_FALSE(result.all_feasible);
  EXPECT_FALSE(result.jobs[0].feasible);
}

TEST(Rto, BlownDeadlineMarkedInfeasibleButStillServed) {
  const auto allocator = make_allocator();
  const auto result = allocator.allocate(
      {RtoJob{1, 1000.0, /*deadline=*/1.0}}, /*now=*/5.0);
  EXPECT_FALSE(result.all_feasible);
  EXPECT_GT(result.jobs[0].share, 0.0);  // still gets capacity
}

TEST(Rto, TaskApportionmentSumsToBudgetAndGivesEveryJobOne) {
  const auto allocator = make_allocator(1e-3, 128, /*task_budget=*/16);
  std::vector<RtoJob> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(RtoJob{static_cast<dist::JobId>(i),
                          1000.0 * (i + 1), 10.0});
  }
  const auto result = allocator.allocate(jobs, 0.0);
  int total = 0;
  for (const auto& alloc : result.jobs) {
    EXPECT_GE(alloc.tasks, 1);
    total += alloc.tasks;
  }
  EXPECT_GE(total, 16);
  EXPECT_LE(total, 16 + static_cast<int>(jobs.size()));
  // Larger jobs get at least as many tasks (same slack => share grows
  // with volume).
  for (std::size_t i = 1; i < result.jobs.size(); ++i) {
    EXPECT_GE(result.jobs[i].tasks, result.jobs[i - 1].tasks);
  }
}

TEST(Rto, EmptyInputIsSafe) {
  const auto allocator = make_allocator();
  const auto result = allocator.allocate({}, 0.0);
  EXPECT_EQ(result.workers, 1u);
  EXPECT_TRUE(result.jobs.empty());
}

TEST(RtoPolicy, MatchesOrBeatsPidOnTightDeadlines) {
  trace::TraceGenerator generator(
      trace::tiny(trace::boston_bombing(), 30'000, 20));
  const Dataset data = generator.generate();
  const auto per_job = partition_traffic(data, 8);

  // Start under-provisioned (2 workers): a fixed pool cannot keep up, so
  // the comparison exercises the optimizer's scaling rather than a lucky
  // static operating point.
  DeadlineExperimentConfig config;
  config.deadline_s = 1.0;
  config.interval_arrival_s = 2.0;
  config.initial_workers = 2;
  config.sim.theta1 = 2e-3;
  config.sim.comm_per_unit_s = 2e-4;

  config.policy = ControlPolicy::kPid;
  const auto pid = run_deadline_experiment(per_job, config);
  config.policy = ControlPolicy::kRto;
  const auto rto = run_deadline_experiment(per_job, config);
  config.policy = ControlPolicy::kStatic;
  const auto fixed = run_deadline_experiment(per_job, config);

  // RTO plans with the exact model instead of feeding back on error, so it
  // should roughly match PID and clearly beat the fixed pool.
  EXPECT_GE(rto.hit_rate + 0.05, pid.hit_rate);
  EXPECT_GT(rto.hit_rate, fixed.hit_rate + 0.1);
}

TEST(RtoPolicy, UsesFewerWorkersThanPidAtLooseDeadlines) {
  trace::TraceGenerator generator(
      trace::tiny(trace::boston_bombing(), 30'000, 20));
  const Dataset data = generator.generate();
  const auto per_job = partition_traffic(data, 8);

  DeadlineExperimentConfig config;
  config.deadline_s = 4.0;
  config.interval_arrival_s = 2.0;
  config.initial_workers = 4;
  config.sim.theta1 = 2e-3;
  config.sim.comm_per_unit_s = 2e-4;

  config.policy = ControlPolicy::kRto;
  const auto rto = run_deadline_experiment(per_job, config);
  EXPECT_GT(rto.hit_rate, 0.9);
  // The optimizer sizes the pool to the work; it should not balloon.
  EXPECT_LT(rto.mean_workers, 16.0);
}

}  // namespace
}  // namespace sstd
