// The node benchmark's own tests: interval classes agree with the counters
// they are named after, probing the generator's truth leaves the stream
// untouched, and the printed metric names are BENCHMARK.json's.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "closed_loop.h"
#include "durable/wal.h"

namespace sstd::nodebench {
namespace {

namespace fs = std::filesystem;

// A durable workload small enough for a unit test: one load interval,
// then 60 run intervals that cover every interval class.
TEST(NodeBench, IntervalClassesMatchCounterDeltas) {
  WorkloadSpec spec = *find_workload("durable_shift");
  spec.num_claims = 4'096;
  spec.reports_per_interval = 2'000;
  PassOptions options;
  options.run_intervals = 60;
  options.restarts = 1;
  options.gate = true;
  options.dir = (fs::current_path() / "node_bench_test_scratch").string();
  SpanRecorder spans(false);
  const PassResult pass = run_pass(spec, options, spans);
  fs::remove_all(options.dir);

  std::vector<int> seen(4, 0);
  std::uint64_t refits = 0;
  for (const IntervalRecord& rec : pass.intervals) {
    ++seen[rec.cls];
    refits += rec.refits;
    SCOPED_TRACE("interval " + std::to_string(rec.k) + " (" +
                 interval_class_name(rec.cls) + ")");
    if ((rec.cls & kRefit) == 0) {
      EXPECT_EQ(rec.refits, 0u);
    }
    EXPECT_EQ(rec.snapshot_writes > 0, (rec.cls & kSnapshot) != 0);
  }
  EXPECT_GT(refits, 0u);
  for (unsigned cls = kPlain; cls <= kBoth; ++cls) EXPECT_GT(seen[cls], 0) << cls;
  EXPECT_EQ(pass.failures, 0u);
  EXPECT_GT(pass.checks, 0u);
}

std::string stream_bytes(const WorkloadSpec& spec, bool probe) {
  workload::ReportSynthesizer synth(workload_config(spec, kDefaultSeed));
  std::vector<Report> batch;
  std::string bytes;
  const IntervalIndex last = synth.load_intervals() + 40;
  for (IntervalIndex k = 0; k < last; ++k) {
    synth.generate_interval(k, &batch);
    for (const Report& r : batch) bytes += durable::encode_report_payload(r);
    if (probe) {
      for (const std::uint32_t claim : probe_claims(batch, 64)) synth.truth_at(claim, k);
    }
  }
  return bytes;
}

TEST(NodeBench, StreamIsIdenticalWithProbesOnAndOff) {
  for (WorkloadSpec spec : standard_workloads()) {
    spec.num_claims = 8'192;
    spec.reports_per_interval = 1'000;
    EXPECT_EQ(stream_bytes(spec, true), stream_bytes(spec, false)) << spec.name;
  }
}

// The "name" fields of one top-level array of BENCHMARK.json, in order.
std::vector<std::string> names_in(const std::string& json, const std::string& key) {
  const std::size_t begin = json.find("\"" + key + "\"");
  const std::size_t end = json.find(']', begin);
  const std::string section = json.substr(begin, end - begin);
  std::vector<std::string> names;
  const std::regex name_re("\"name\": \"([^\"]+)\"");
  for (auto it = std::sregex_iterator(section.begin(), section.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

std::vector<std::string> names_of(const std::vector<Metric>& metrics) {
  std::vector<std::string> names;
  for (const Metric& m : metrics) names.push_back(m.name);
  return names;
}

TEST(NodeBench, PrintedNamesMatchBenchmarkJson) {
  std::ifstream in(NODEBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << NODEBENCH_BENCHMARK_JSON;
  std::ostringstream text;
  text << in.rdbuf();
  const std::string json = text.str();

  const PassResult empty;
  EXPECT_EQ(names_of(end_to_end_metrics(empty)), names_in(json, "end_to_end"));
  EXPECT_EQ(names_of(per_layer_metrics(standard_workloads()[0], empty, empty, 2)),
            names_in(json, "per_layer"));
  std::vector<std::string> workloads;
  for (const WorkloadSpec& spec : standard_workloads()) workloads.push_back(spec.name);
  EXPECT_EQ(workloads, names_in(json, "workloads"));
}

}  // namespace
}  // namespace sstd::nodebench
