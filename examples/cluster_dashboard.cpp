// Cluster dashboard: the distributed side of SSTD.
//
// Part 1 runs the real threaded Work Queue: per-claim TD tasks execute on
// an elastic worker pool and the dashboard prints task timing statistics.
// Part 2 runs the discrete-event cluster simulation with the PID-driven
// Dynamic Task Manager and shows deadline hit rates with and without
// feedback control.
//
//   $ ./cluster_dashboard
#include <cstdio>
#include <sstream>
#include <string>

#include "core/metrics.h"
#include "obs/http_exposition.h"
#include "sstd/distributed.h"
#include "trace/generator.h"
#include "util/stats.h"
#include "util/table.h"

using namespace sstd;

namespace {

// Print the exposition lines an operator would care about from a real
// scrape — the dashboard polls the endpoint over the socket rather than
// reading the registry directly, so what it shows is what Prometheus sees.
void print_scrape_lines(const std::string& body) {
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("wq_tasks", 0) == 0 || line.rfind("wq_retries", 0) == 0 ||
        line.rfind("wq_workers", 0) == 0 ||
        line.rfind("stream_decision_staleness_s_count", 0) == 0) {
      std::printf("    %s\n", line.c_str());
    }
  }
}

}  // namespace

int main() {
  auto config = trace::tiny(trace::boston_bombing(), 60'000, 48);
  trace::TraceGenerator generator(config);
  const Dataset data = generator.generate();
  std::printf("trace: %zu reports, %u claims\n\n", data.num_reports(),
              data.num_claims());

  // Serve the global registry while the engine runs; the dashboard then
  // scrapes its own endpoint exactly like an external poller would.
  obs::HttpExposition server;
  if (!server.start()) {
    std::fprintf(stderr, "warning: telemetry endpoint failed to bind\n");
  }

  // ---- Part 1: threaded Work Queue execution -------------------------
  DistributedConfig dist_config;
  dist_config.workers = 4;
  DistributedSstd engine(dist_config);
  const EstimateMatrix estimates = engine.run(data);

  if (server.running()) {
    obs::HttpGetResult scrape;
    if (obs::http_get("127.0.0.1", server.port(), "/metrics", &scrape) &&
        scrape.status == 200) {
      std::printf("live scrape of 127.0.0.1:%d/metrics (%zu bytes):\n",
                  server.port(), scrape.body.size());
      print_scrape_lines(scrape.body);
      std::printf("\n");
    }
  }

  EvalOptions eval;
  eval.window_ms = data.interval_ms();
  const ConfusionMatrix cm = evaluate(data, estimates, eval);
  std::printf("distributed SSTD (4 workers): %s\n", cm.summary().c_str());

  RunningStats wait;
  RunningStats exec;
  std::vector<int> per_worker(16, 0);
  for (const auto& report : engine.last_reports()) {
    wait.add(report.queue_wait_s() * 1e3);
    exec.add(report.execution_s() * 1e3);
    if (report.worker < per_worker.size()) ++per_worker[report.worker];
  }
  std::printf("tasks: %zu | queue wait %.2f ms avg | exec %.2f ms avg "
              "(max %.2f)\n",
              engine.last_reports().size(), wait.mean(), exec.mean(),
              exec.max());
  std::printf("per-worker task counts:");
  for (std::size_t w = 0; w < 4; ++w) std::printf(" w%zu=%d", w, per_worker[w]);
  std::printf("\n\n");

  // ---- Part 2: simulated cluster with PID feedback control -----------
  const auto per_job = partition_traffic(data, 8);
  TextTable table("Deadline hit rate on the simulated cluster");
  table.set_columns({"Deadline (s)", "SSTD + PID DTM", "Fixed allocation",
                     "Centralized"});

  const auto traffic = data.traffic_profile();
  std::vector<std::uint64_t> volumes(traffic.begin(), traffic.end());

  for (double deadline : {0.5, 1.0, 2.0, 4.0}) {
    DeadlineExperimentConfig experiment;
    experiment.deadline_s = deadline;
    experiment.interval_arrival_s = 2.0;
    experiment.initial_workers = 4;
    experiment.sim.theta1 = 2e-3;
    experiment.sim.comm_per_unit_s = 2e-4;

    experiment.policy = ControlPolicy::kPid;
    const auto pid = run_deadline_experiment(per_job, experiment);
    experiment.policy = ControlPolicy::kStatic;
    const auto fixed = run_deadline_experiment(per_job, experiment);
    const auto central = centralized_deadline_baseline(
        volumes, deadline, experiment.interval_arrival_s, 2.8e-3);

    table.add_row({TextTable::num(deadline, 1),
                   TextTable::num(pid.hit_rate),
                   TextTable::num(fixed.hit_rate),
                   TextTable::num(central.hit_rate)});
  }
  table.print();
  return 0;
}
