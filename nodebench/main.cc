// node_bench: one run of the node benchmark on one workload.
//
//   node_bench --workload zipf_hot|uniform_churn|durable_shift
//              [--seed N] [--trace 0|1] [--dir SCRATCH] [--spans FILE]
//              [--seconds N]
//
// --trace 0 prints the end-to-end metrics of one untraced pass. --trace 1
// runs the workload traced, with spans on in alternating blocks of
// intervals so the same pass also measures the tracing overhead, then
// repeats the first quarter of the run, untraced, with a single worker; it
// prints the per-layer metrics and the span self-time table. Either way
// the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero when any correctness check failed.
//
// --dir must be new or empty. The run writes only under it, removes what
// it wrote, and then removes --dir if it is empty.
//
// --seconds is accepted and ignored: the work per run is a fixed number of
// intervals (see closed_loop.h).
#include <charconv>
#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "closed_loop.h"

namespace sstd::nodebench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  bool trace = false;
  std::string dir = "nodebench_scratch";
  std::string spans_path;
};

void usage() {
  std::fprintf(stderr,
               "usage: node_bench --workload zipf_hot|uniform_churn|durable_shift"
               " [--seed N] [--trace 0|1] [--dir SCRATCH] [--spans FILE]"
               " [--seconds N]\n"
               "seed of record %llu; held out for confirming gains: %llu\n",
               static_cast<unsigned long long>(kDefaultSeed),
               static_cast<unsigned long long>(kHeldOutSeed));
}

bool parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, args->seed);
      if (ec != std::errc() || ptr != end) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--dir") {
      args->dir = value;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else if (flag != "--seconds") {
      return false;
    }
  }
  return !args->workload.empty();
}

std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-38s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_span_table(const SpanRecorder& spans) {
  std::printf("spans (traced pass; self = duration minus children)\n");
  std::printf("  %-12s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const SpanTotals& t : spans.totals()) {
    std::printf("  %-12s %8llu %12.3f %12.3f\n", t.name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_s * 1e3,
                t.self_s * 1e3);
  }
}

void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "node_bench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.dir);
  constexpr std::size_t kWorkers = 2;  // pinned; README.md says why
  std::printf("node_bench: workload=%s seed=%llu workers=%zu run_intervals=%d"
              " reports_per_interval=%llu claims=%llu trace=%d\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              kWorkers, kRunIntervals,
              static_cast<unsigned long long>(spec->reports_per_interval),
              static_cast<unsigned long long>(spec->num_claims), args.trace ? 1 : 0);

  PassOptions options;
  options.seed = args.seed;
  options.workers = kWorkers;
  options.dir = args.dir;

  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> notes;
  auto account = [&](const PassResult& pass) {
    attempted += pass.checks;
    failed += pass.failures;
    notes.insert(notes.end(), pass.notes.begin(), pass.notes.end());
  };

  std::vector<Metric> metrics;
  if (!args.trace) {
    options.setups = 3;
    options.restarts = 3;
    options.gate = true;
    SpanRecorder off(false);
    const PassResult pass = run_pass(*spec, options, off);
    account(pass);
    metrics = end_to_end_metrics(pass);
    print_table("end-to-end", metrics);
    std::printf("  %-38s", "setup_s samples (each a fresh process)");
    for (const double s : pass.setup_s) std::printf(" %.4f", s);
    std::printf("\n");
    std::printf("  %-38s %16.6g  %s  (%llu of %llu checks failed)\n", "error_rate",
                static_cast<double>(failed) / static_cast<double>(attempted), "ratio",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
  } else {
    PassOptions traced_options = options;
    traced_options.restarts = 1;
    traced_options.gate = true;
    traced_options.layers = true;
    SpanRecorder spans(true);
    const PassResult traced = run_pass(*spec, traced_options, spans);
    account(traced);

    PassOptions single_options = options;
    single_options.workers = 1;
    single_options.run_intervals = kRunIntervals / 4;
    SpanRecorder off(false);
    const PassResult single = run_pass(*spec, single_options, off);
    account(single);

    print_span_table(spans);
    if (!args.spans_path.empty() && !spans.write_json(args.spans_path)) {
      std::fprintf(stderr, "node_bench: cannot write %s\n", args.spans_path.c_str());
    }
    metrics = per_layer_metrics(*spec, traced, single, kWorkers);
    print_table("per-layer", metrics);
  }
  for (const std::string& note : notes) std::fprintf(stderr, "CHECK FAILED: %s\n", note.c_str());
  std::error_code ignored;
  std::filesystem::remove(args.dir, ignored);  // only if empty
  std::fflush(stdout);
  print_result(attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sstd::nodebench

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  sstd::nodebench::Args args;
  if (!sstd::nodebench::parse(argc, argv, &args)) {
    sstd::nodebench::usage();
    return 2;
  }
  // A forked job that dies early must fail the run, not end it on SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  std::error_code ec;
  if (fs::exists(args.dir, ec) && !fs::is_empty(args.dir, ec)) {
    std::fprintf(stderr, "node_bench: --dir %s is not empty\n", args.dir.c_str());
    return 2;
  }
  try {
    return sstd::nodebench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "node_bench: %s\n", e.what());
    return 1;
  }
}
