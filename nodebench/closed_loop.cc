#include "closed_loop.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>

#include "durable/wal.h"
#include "sstd/streaming.h"
#include "util/stats.h"
#include "util/stopwatch.h"

namespace sstd::nodebench {

namespace fs = std::filesystem;

namespace {

// Probes per interval against the generator's latent truth, and the
// stride of claim ids a restarted node is asked about.
constexpr std::size_t kProbesPerInterval = 64;
constexpr std::uint32_t kRestartProbeStride = 97;
// sstd.live_claims counts claims reported in this many trailing intervals.
constexpr IntervalIndex kLiveWindowIntervals = 7;
// Intervals between the load sweep and the measured run: one refit cycle,
// longer than the eviction of the swept claims.
constexpr IntervalIndex kWarmupIntervals = 10;
// With PassOptions::layers, run spans are on in blocks 0, 3, 4, 7, 8, ...
// of this many intervals and off in the others: an ABBA order, so a trend
// over the run cancels out of the traced-vs-untraced comparison.
constexpr IntervalIndex kSpanBlock = 10;

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// VmHWM: the process's peak resident set so far.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

// Distinct claims with a report in the last kLiveWindowIntervals intervals,
// counted from the generated stream.
class LiveClaims {
 public:
  explicit LiveClaims(std::uint64_t num_claims) : last_(num_claims, kNever) {}

  std::size_t update(IntervalIndex k, const std::vector<Report>& batch) {
    while (!window_.empty() && window_.front().k <= k - kLiveWindowIntervals) {
      for (const std::uint32_t claim : window_.front().claims) {
        if (last_[claim] == window_.front().k) --live_;
      }
      window_.pop_front();
    }
    Interval fresh{k, {}};
    for (const Report& r : batch) {
      IntervalIndex& last = last_[r.claim.value];
      if (last == k) continue;
      if (last == kNever || last <= k - kLiveWindowIntervals) ++live_;
      last = k;
      fresh.claims.push_back(r.claim.value);
    }
    window_.push_back(std::move(fresh));
    return live_;
  }

 private:
  static constexpr IntervalIndex kNever = std::numeric_limits<IntervalIndex>::min();
  struct Interval {
    IntervalIndex k;
    std::vector<std::uint32_t> claims;
  };
  std::vector<IntervalIndex> last_;
  std::deque<Interval> window_;
  std::size_t live_ = 0;
};

std::uint64_t counter_delta(const obs::MetricsSnapshot& before,
                            const obs::MetricsSnapshot& after,
                            const std::string& name) {
  return after.counter_value(name) - before.counter_value(name);
}

// Adds `after` minus `before` of one histogram into `total`.
void add_histogram_delta(obs::HistogramSnapshot& total,
                         const obs::MetricsSnapshot& before,
                         const obs::MetricsSnapshot& after, const std::string& name) {
  const obs::HistogramSnapshot* a = after.histogram(name);
  if (a == nullptr) return;
  const obs::HistogramSnapshot* b = before.histogram(name);
  if (total.buckets.empty()) {
    total.bounds = a->bounds;
    total.buckets.assign(a->buckets.size(), 0);
  }
  for (std::size_t i = 0; i < total.buckets.size(); ++i) {
    total.buckets[i] += a->buckets[i] - (b != nullptr ? b->buckets[i] : 0);
  }
  total.count += a->count - (b != nullptr ? b->count : 0);
  total.sum += a->sum - (b != nullptr ? b->sum : 0.0);
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

// Runs `call` inside a span and returns its wall time. The span opens and
// closes inside the timed window, so a traced call's time includes what
// tracing adds to it.
template <typename Call>
double timed(SpanRecorder& spans, const char* name, std::uint32_t parent, Call&& call) {
  const Stopwatch watch;
  {
    const SpanScope span(spans, name, parent);
    call();
  }
  return watch.elapsed_seconds();
}

// Reports ÷ wall time inside ingest_batch + end_interval, over the
// intervals `keep` selects.
double reports_per_s(const std::vector<IntervalRecord>& intervals,
                     bool (*keep)(const IntervalRecord&) = nullptr) {
  double reports = 0.0, wall_s = 0.0;
  for (const IntervalRecord& rec : intervals) {
    if (keep != nullptr && !keep(rec)) continue;
    reports += static_cast<double>(rec.reports);
    wall_s += rec.ingest_s + rec.close_s;
  }
  return reports / wall_s;
}

struct Shard0Probe {
  IntervalIndex k;
  std::uint32_t claim;
  std::int8_t estimate;
};

struct Node {
  std::unique_ptr<SstdSystem> system;
  std::unique_ptr<workload::ReportSynthesizer> synth;
  double setup_s = 0.0;
};

// A fresh node plus the load sweep that seeds every claim once. Only the
// system's own calls are timed.
Node set_up(const SstdSystem::Config& config, const workload::WorkloadConfig& wc,
            SpanRecorder& spans, LiveClaims* live, std::vector<Report>& batch) {
  if (config.durability.enabled()) fs::remove_all(config.durability.dir);
  Node node;
  node.synth = std::make_unique<workload::ReportSynthesizer>(wc);
  const SpanScope root(spans, "setup");
  node.setup_s += timed(spans, "construct", root.id(), [&] {
    node.system = std::make_unique<SstdSystem>(config, wc.interval_ms);
  });
  for (IntervalIndex k = 0; k < node.synth->load_intervals(); ++k) {
    timed(spans, "generate", root.id(), [&] { node.synth->generate_interval(k, &batch); });
    node.setup_s +=
        timed(spans, "ingest", root.id(), [&] { node.system->ingest_batch(batch); });
    node.setup_s +=
        timed(spans, "close", root.id(), [&] { node.system->end_interval(k); });
    if (live != nullptr) live->update(k, batch);
  }
  return node;
}

template <typename T>
void put(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T take(const std::string& in, std::size_t& pos) {
  T value;
  if (pos + sizeof value > in.size()) throw std::runtime_error("forked job: short reply");
  std::memcpy(&value, in.data() + pos, sizeof value);
  pos += sizeof value;
  return value;
}

// A child process that does one job with a heap as fresh as a node
// start's, not one that has held and freed a whole node. It is forked at
// construction, which must happen before the pass starts any thread, and
// waits there until run() lets it go; its reply is the bytes `job`
// returns. A job that never ran is killed and reaped on destruction.
class ForkedJob {
 public:
  explicit ForkedJob(const std::function<std::string()>& job) {
    int go[2], reply[2];
    if (pipe(go) != 0) throw std::runtime_error("forked job: pipe failed");
    if (pipe(reply) != 0) {
      close(go[0]);
      close(go[1]);
      throw std::runtime_error("forked job: pipe failed");
    }
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ == 0) {
      close(go[1]);
      close(reply[0]);
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      char byte = 0;
      if (getppid() != parent || read(go[0], &byte, 1) != 1) _exit(1);
      try {
        const std::string bytes = job();
        for (std::size_t sent = 0; sent < bytes.size();) {
          const ssize_t n = write(reply[1], bytes.data() + sent, bytes.size() - sent);
          if (n <= 0) _exit(1);
          sent += static_cast<std::size_t>(n);
        }
        _exit(0);
      } catch (...) {
        _exit(1);
      }
    }
    close(go[0]);
    close(reply[1]);
    go_fd_ = go[1];
    reply_fd_ = reply[0];
    if (pid_ < 0) {
      close(go_fd_);
      close(reply_fd_);
      throw std::runtime_error("forked job: fork failed");
    }
  }

  ~ForkedJob() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      close(go_fd_);
      close(reply_fd_);
    }
  }

  ForkedJob(const ForkedJob&) = delete;
  ForkedJob& operator=(const ForkedJob&) = delete;

  std::string run() {
    const char byte = 1;
    const bool started = write(go_fd_, &byte, 1) == 1;
    std::string bytes;
    char buf[1 << 16];
    ssize_t n = 0;
    while ((n = read(reply_fd_, buf, sizeof buf)) != 0) {
      if (n < 0 && errno != EINTR) break;
      if (n > 0) bytes.append(buf, static_cast<std::size_t>(n));
    }
    close(go_fd_);
    close(reply_fd_);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    if (!started || n < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("forked job failed");
    }
    return bytes;
  }

 private:
  pid_t pid_ = -1;
  int go_fd_ = -1;
  int reply_fd_ = -1;
};

// A restart from the run's WAL and snapshots: a fresh SstdSystem plus
// recover(). Replies with the restart's seconds, the records it replayed,
// its estimate of every probed claim (ids 0, kRestartProbeStride, ...) and
// its spans. Span names are string literals, so their pointers are as
// valid in the parent as in this forked child.
std::string restart_reply(const SstdSystem::Config& config,
                          const workload::WorkloadConfig& wc, bool trace) {
  SpanRecorder spans(trace);
  std::string reply;
  {
    const SpanScope root(spans, "restart");
    std::unique_ptr<SstdSystem> node;
    std::uint64_t replayed = 0;
    const Stopwatch watch;
    timed(spans, "construct", root.id(),
          [&] { node = std::make_unique<SstdSystem>(config, wc.interval_ms); });
    timed(spans, "recover", root.id(),
          [&] { replayed = node->recover().replayed_records; });
    put(reply, watch.elapsed_seconds());
    put(reply, replayed);
    timed(spans, "probe", root.id(), [&] {
      for (std::uint64_t c = 0; c < wc.num_claims; c += kRestartProbeStride) {
        const std::int8_t estimate = node->estimate(ClaimId{static_cast<std::uint32_t>(c)});
        put(reply, estimate);
      }
    });
  }
  for (const Span& span : spans.spans()) put(reply, span);
  return reply;
}

}  // namespace

const std::vector<WorkloadSpec>& standard_workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    WorkloadSpec zipf;
    zipf.name = "zipf_hot";
    zipf.kind = workload::KeyDistKind::kZipfian;
    zipf.num_claims = 131'072;
    zipf.reports_per_interval = 25'000;

    WorkloadSpec churn;
    churn.name = "uniform_churn";
    churn.kind = workload::KeyDistKind::kUniform;
    churn.num_claims = 524'288;
    churn.reports_per_interval = 7'500;

    WorkloadSpec shift;
    shift.name = "durable_shift";
    shift.kind = workload::KeyDistKind::kHotspot;
    shift.num_claims = 262'144;
    shift.reports_per_interval = 10'000;
    shift.hot_shift_intervals = 10;
    shift.durable = true;
    return std::vector<WorkloadSpec>{zipf, churn, shift};
  }();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : standard_workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

workload::WorkloadConfig workload_config(const WorkloadSpec& spec,
                                         std::uint64_t seed) {
  workload::WorkloadConfig wc;
  wc.name = spec.name;
  wc.seed = seed;
  wc.num_claims = spec.num_claims;
  wc.dist.kind = spec.kind;
  wc.reports_per_interval = spec.reports_per_interval;
  wc.load_reports_per_interval = kLoadReportsPerInterval;
  wc.dist.hotspot_shift_every = spec.reports_per_interval * spec.hot_shift_intervals;
  return wc;
}

SstdSystem::Config system_config(const WorkloadSpec& spec, std::size_t workers,
                                 const std::string& durable_dir) {
  SstdSystem::Config config;
  config.workers = workers;
  config.dtm.min_workers = workers;
  config.dtm.max_workers = workers;
  config.num_jobs = 8;
  config.interval_deadline_s = 30.0;
  config.sstd.refit_every = 10;
  config.sstd.warmup_intervals = 4;
  config.sstd.evict_after_idle_intervals = 6;
  config.trace_sample_rate = 0.01;
  if (spec.durable) config.durability.dir = durable_dir;
  return config;
}

IntervalClass interval_class(IntervalIndex k, const SstdSystem::Config& config) {
  const IntervalIndex refit = config.sstd.refit_every;
  const IntervalIndex snap = config.durability.snapshot_every;
  unsigned cls = kPlain;
  if (refit > 0 && (k + 1) % refit == 0) cls |= kRefit;
  if (config.durability.enabled() && snap > 0 && (k + 1) % snap == 0) {
    cls |= kSnapshot;
  }
  return static_cast<IntervalClass>(cls);
}

const char* interval_class_name(IntervalClass cls) {
  switch (cls) {
    case kPlain: return "plain";
    case kRefit: return "refit";
    case kSnapshot: return "snapshot";
    case kBoth: return "both";
  }
  return "?";
}

std::vector<std::uint32_t> probe_claims(const std::vector<Report>& batch,
                                        std::size_t n) {
  std::vector<std::uint32_t> out;
  const std::size_t picks = std::min(n, batch.size());
  out.reserve(picks);
  for (std::size_t i = 0; i < picks; ++i) {
    out.push_back(batch[i * batch.size() / picks].claim.value);
  }
  return out;
}

PassResult run_pass(const WorkloadSpec& spec, const PassOptions& options,
                    SpanRecorder& spans) {
  PassResult res;
  const std::string node_dir = (fs::path(options.dir) / "node").string();
  const SstdSystem::Config config = system_config(spec, options.workers, node_dir);
  const workload::WorkloadConfig wc = workload_config(spec, options.seed);
  auto& registry = obs::MetricsRegistry::global();

  // Every forked job is forked here, while this process has no thread and
  // no node. Restarts wait until the run is over; the extra set-ups run
  // at once, one after the other.
  std::vector<std::unique_ptr<ForkedJob>> restarts;
  if (spec.durable) {
    for (int r = 0; r < options.restarts; ++r) {
      restarts.push_back(std::make_unique<ForkedJob>(
          [&] { return restart_reply(config, wc, spans.enabled()); }));
    }
  }
  for (int rep = 1; rep < options.setups; ++rep) {
    ForkedJob job([&] {
      SpanRecorder off(false);
      std::vector<Report> batch;
      std::string reply;
      put(reply, set_up(config, wc, off, nullptr, batch).setup_s);
      return reply;
    });
    const std::string reply = job.run();
    std::size_t pos = 0;
    res.setup_s.push_back(take<double>(reply, pos));
  }

  std::vector<Report> batch;
  std::unique_ptr<LiveClaims> live;
  if (options.layers) live = std::make_unique<LiveClaims>(wc.num_claims);
  Node node = set_up(config, wc, spans, live.get(), batch);
  res.setup_s.push_back(node.setup_s);
  std::unique_ptr<SstdSystem>& system = node.system;
  std::unique_ptr<workload::ReportSynthesizer>& synth = node.synth;

  durable::WalWriter own_wal;
  const std::string own_wal_dir = (fs::path(options.dir) / "own_wal").string();
  if (options.layers) {
    fs::remove_all(own_wal_dir);
    durable::WalOptions wal_options;
    wal_options.fsync = durable::FsyncPolicy::kNone;
    own_wal.open(own_wal_dir, wal_options);
  }

  // Warm-up, untimed: the load sweep's claims go idle and are evicted over
  // the next evict_after_idle_intervals + 1 closes, a transient that would
  // otherwise sit at the head of the measured run.
  const IntervalIndex first = synth->load_intervals() + kWarmupIntervals;
  {
    const SpanScope root(spans, "warmup");
    for (IntervalIndex k = synth->load_intervals(); k < first; ++k) {
      synth->generate_interval(k, &batch);
      system->ingest_batch(batch);
      system->end_interval(k);
      if (live) live->update(k, batch);
    }
  }

  const SstdSystem::Metrics metrics_before = system->metrics();
  const std::uint64_t quarantined_before = system->queue().stats().quarantined;
  std::vector<Shard0Probe> shard0_probes;
  res.intervals.reserve(static_cast<std::size_t>(options.run_intervals));
  const bool spans_on = spans.enabled();

  for (IntervalIndex i = 0; i < options.run_intervals; ++i) {
    IntervalRecord rec;
    rec.k = first + i;
    rec.cls = interval_class(rec.k, config);
    const IntervalIndex block = i / kSpanBlock;
    rec.traced = spans_on && options.layers && (block % 4 == 0 || block % 4 == 3);
    spans.set_enabled(rec.traced);
    const SpanScope root(spans, "interval");
    rec.gen_s = timed(spans, "generate", root.id(),
                      [&] { synth->generate_interval(rec.k, &batch); });
    rec.reports = batch.size();
    const obs::MetricsSnapshot before = registry.snapshot();
    const double cpu_begin_s = process_cpu_s();
    rec.ingest_s = timed(spans, "ingest", root.id(), [&] { system->ingest_batch(batch); });
    rec.close_s = timed(spans, "close", root.id(), [&] { system->end_interval(rec.k); });
    rec.cpu_s = process_cpu_s() - cpu_begin_s;
    const obs::MetricsSnapshot after = registry.snapshot();
    rec.refits = counter_delta(before, after, "stream.refits");
    rec.snapshot_writes = counter_delta(before, after, "durable.snapshot_writes");
    rec.provenance_records =
        counter_delta(before, after, "obs.provenance.recorded_records");
    res.snapshot_writes += rec.snapshot_writes;
    res.snapshot_bytes += counter_delta(before, after, "durable.snapshot_bytes");
    res.wal_bytes += counter_delta(before, after, "durable.wal_bytes_appended");
    add_histogram_delta(res.queue_wait_s, before, after, "wq.queue_wait_s");
    add_histogram_delta(res.task_exec_s, before, after, "wq.execution_s");
    add_histogram_delta(res.wal_fsync_s, before, after, "durable.wal_fsync_seconds");

    {
      const SpanScope span(spans, "probe", root.id());
      for (const std::uint32_t claim : probe_claims(batch, kProbesPerInterval)) {
        const std::int8_t estimate = system->estimate(ClaimId{claim});
        const bool truth = synth->truth_at(claim, rec.k);
        ++res.probes;
        if (estimate == (truth ? 1 : 0)) ++res.probes_correct;
        if (claim % config.num_jobs == 0) {
          shard0_probes.push_back({rec.k, claim, estimate});
        }
      }
    }
    if (options.layers) {
      rec.own_wal_s = timed(spans, "wal_append", root.id(), [&] {
        for (const Report& r : batch) {
          own_wal.append(durable::WalRecordType::kReport,
                         durable::encode_report_payload(r));
        }
      });
      res.own_wal_records += batch.size();
    }

    rec.live_workers = system->queue().live_workers();
    rec.max_shard_backlog = system->backpressure().max_shard_backlog;
    if (live) rec.live_claims = live->update(rec.k, batch);
    res.intervals.push_back(rec);
  }
  spans.set_enabled(spans_on);

  // Read before anything else allocates: the gate and restarts below
  // must not show up in the node's peak.
  res.peak_rss_mib = peak_rss_mib();

  // Check: every shard task of the run completed, none was quarantined.
  {
    const SstdSystem::Metrics m = system->metrics();
    const std::uint64_t failed = m.task_failures - metrics_before.task_failures;
    const std::uint64_t quarantined =
        system->queue().stats().quarantined - quarantined_before;
    const std::uint64_t tasks =
        static_cast<std::uint64_t>(options.run_intervals) * config.num_jobs;
    res.checks += tasks;
    res.failures += failed + quarantined;
    if (failed + quarantined > 0) {
      res.notes.push_back("shard tasks: " + std::to_string(failed) + " failed, " +
                          std::to_string(quarantined) + " quarantined of " +
                          std::to_string(tasks));
    }
  }

  std::vector<std::pair<std::uint32_t, std::int8_t>> live_answers;
  if (spec.durable) {
    for (std::uint64_t c = 0; c < wc.num_claims; c += kRestartProbeStride) {
      const auto claim = static_cast<std::uint32_t>(c);
      live_answers.emplace_back(claim, system->estimate(ClaimId{claim}));
    }
  }
  system.reset();

  if (options.layers) {
    own_wal.close();
    // The node's own log on durable workloads, the benchmark's otherwise.
    const std::string scan_dir = spec.durable ? node_dir : own_wal_dir;
    res.scan_s = timed(spans, "wal_scan", 0, [&] {
      res.scan_bytes =
          durable::wal_scan(scan_dir, 0, [](const durable::WalRecord&) {}).bytes;
    });
    fs::remove_all(own_wal_dir);
  }

  // Restarts from the run's WAL and snapshots: each restarted node must
  // answer every probe as the live node did.
  if (spec.durable) {
    std::uint64_t mismatched = 0;
    for (const std::unique_ptr<ForkedJob>& job : restarts) {
      const std::string reply = job->run();
      std::size_t pos = 0;
      res.recovery_s.push_back(take<double>(reply, pos));
      res.replayed_records = take<std::uint64_t>(reply, pos);
      for (const auto& [claim, estimate] : live_answers) {
        ++res.checks;
        if (take<std::int8_t>(reply, pos) != estimate) ++mismatched;
      }
      std::vector<Span> restart_spans;
      while (pos < reply.size()) restart_spans.push_back(take<Span>(reply, pos));
      spans.adopt(restart_spans);
    }
    res.failures += mismatched;
    if (mismatched > 0) {
      res.notes.push_back("restart: " + std::to_string(mismatched) + " of " +
                          std::to_string(live_answers.size() * restarts.size()) +
                          " probes differ from the live node");
    }
  }

  // Shard-0 reference: a single-threaded engine fed shard 0's reports of a
  // regenerated stream must decide exactly as the node's shard 0 did.
  if (options.gate) {
    synth.reset();
    workload::ReportSynthesizer ref_synth(wc);
    SstdStreaming reference(config.sstd, wc.interval_ms);
    std::uint64_t mismatched = 0;
    std::size_t next = 0;
    for (IntervalIndex k = 0; k < first + options.run_intervals; ++k) {
      ref_synth.generate_interval(k, &batch);
      for (const Report& r : batch) {
        if (r.claim.value % config.num_jobs == 0) reference.offer(r);
      }
      reference.end_interval(k);
      for (; next < shard0_probes.size() && shard0_probes[next].k == k; ++next) {
        ++res.checks;
        const Shard0Probe& p = shard0_probes[next];
        if (reference.current_estimate(ClaimId{p.claim}) != p.estimate) ++mismatched;
      }
    }
    res.failures += mismatched;
    if (mismatched > 0) {
      res.notes.push_back("reference: " + std::to_string(mismatched) + " of " +
                          std::to_string(shard0_probes.size()) +
                          " shard-0 probes differ");
    }
  }
  if (spec.durable) {
    fs::remove_all(node_dir);
  } else {
    // A node without durable state gets its decisions back only by being
    // seeded again, so its restart is the set-up path.
    res.recovery_s = res.setup_s;
  }
  return res;
}

std::vector<Metric> end_to_end_metrics(const PassResult& pass) {
  double cpu_s = 0.0, reports = 0.0;
  std::vector<double> close_ms;
  for (const IntervalRecord& rec : pass.intervals) {
    cpu_s += rec.cpu_s;
    reports += static_cast<double>(rec.reports);
    close_ms.push_back(rec.close_s * 1e3);
  }
  return {
      {"reports_per_s", "reports/s", reports_per_s(pass.intervals)},
      {"cpu_us_per_report", "us", cpu_s / reports * 1e6},
      {"decision_latency_p50_ms", "ms", percentile(close_ms, 0.50)},
      {"decision_latency_p95_ms", "ms", percentile(close_ms, 0.95)},
      {"setup_s", "s", median(pass.setup_s)},
      {"peak_rss_mib", "MiB", pass.peak_rss_mib},
      {"decision_accuracy", "ratio",
       static_cast<double>(pass.probes_correct) / static_cast<double>(pass.probes)},
      {"recovery_s", "s", median(pass.recovery_s)},
  };
}

std::vector<Metric> per_layer_metrics(const WorkloadSpec& spec,
                                      const PassResult& traced,
                                      const PassResult& single,
                                      std::size_t workers) {
  const auto run = static_cast<double>(traced.intervals.size());
  const std::size_t prefix = single.intervals.size();
  double reports = 0.0, gen_s = 0.0, ingest_s = 0.0, close_s = 0.0;
  double own_wal_s = 0.0, workers_sum = 0.0, provenance = 0.0;
  std::vector<double> plain_ms, refit_ms, snapshot_ms, refits, skew, live;
  std::vector<double> refit_q2_ms, refit_q4_ms;
  for (std::size_t i = 0; i < traced.intervals.size(); ++i) {
    const IntervalRecord& rec = traced.intervals[i];
    reports += static_cast<double>(rec.reports);
    gen_s += rec.gen_s;
    ingest_s += rec.ingest_s;
    close_s += rec.close_s;
    own_wal_s += rec.own_wal_s;
    workers_sum += static_cast<double>(rec.live_workers);
    provenance += static_cast<double>(rec.provenance_records);
    skew.push_back(static_cast<double>(rec.max_shard_backlog) * 8.0 /
                   static_cast<double>(rec.reports));
    const double ms = rec.close_s * 1e3;
    switch (rec.cls) {
      case kPlain:
        plain_ms.push_back(ms);
        live.push_back(static_cast<double>(rec.live_claims));
        break;
      case kRefit:
        refit_ms.push_back(ms);
        refits.push_back(static_cast<double>(rec.refits));
        if (4 * i >= traced.intervals.size() && 4 * i < 2 * traced.intervals.size()) {
          refit_q2_ms.push_back(ms);
        } else if (4 * i >= 3 * traced.intervals.size()) {
          refit_q4_ms.push_back(ms);
        }
        break;
      case kSnapshot: snapshot_ms.push_back(ms); break;
      case kBoth: break;
    }
  }
  const double plain = median(plain_ms);
  const double live_claims = median(live);
  auto or_zero = [](double v) { return std::isfinite(v) ? v : 0.0; };
  auto pct_change = [](double from, double to) { return (to / from - 1.0) * 100.0; };
  const std::vector<IntervalRecord> traced_prefix(traced.intervals.begin(),
                                                  traced.intervals.begin() + prefix);

  return {
      {"workload.gen_ns_per_report", "ns", gen_s / reports * 1e9},
      {"sstd.ingest_ns_per_report", "ns", ingest_s / reports * 1e9},
      {"sstd.close_plain_ms", "ms", plain},
      {"sstd.live_claims", "count", live_claims},
      {"sstd.close_us_per_live_claim", "us", plain * 1e3 / live_claims},
      {"hmm.refit_round_ms", "ms", median(refit_ms) - plain},
      {"hmm.refits_per_round", "count", median(refits)},
      {"hmm.refit_round_growth_pct", "%",
       pct_change(median(refit_q2_ms), median(refit_q4_ms))},
      {"dist.pool_workers", "count", workers_sum / run},
      {"dist.shard_skew", "ratio", median(skew)},
      {"dist.queue_wait_ms_p50", "ms", or_zero(traced.queue_wait_s.quantile(0.5)) * 1e3},
      {"dist.task_exec_ms_p50", "ms", or_zero(traced.task_exec_s.quantile(0.5)) * 1e3},
      {"dist.busy_ratio", "ratio",
       traced.task_exec_s.sum / (static_cast<double>(workers) * close_s)},
      {"dist.speedup_vs_1_worker", "x",
       reports_per_s(traced_prefix) / reports_per_s(single.intervals)},
      {"durable.append_ns_per_record", "ns",
       own_wal_s / static_cast<double>(traced.own_wal_records) * 1e9},
      {"durable.wal_bytes_per_report", "B", static_cast<double>(traced.wal_bytes) / reports},
      {"durable.fsync_ms_p50", "ms", or_zero(traced.wal_fsync_s.quantile(0.5)) * 1e3},
      {"durable.snapshot_round_ms", "ms",
       spec.durable ? median(snapshot_ms) - plain : 0.0},
      {"durable.snapshot_mib", "MiB",
       traced.snapshot_writes > 0
           ? static_cast<double>(traced.snapshot_bytes) /
                 static_cast<double>(traced.snapshot_writes) / (1024.0 * 1024.0)
           : 0.0},
      {"durable.scan_mb_per_s", "MB/s",
       static_cast<double>(traced.scan_bytes) / traced.scan_s / 1e6},
      {"durable.replayed_records", "count", static_cast<double>(traced.replayed_records)},
      {"obs.provenance_records_per_interval", "count", provenance / run},
      {"bench.trace_overhead_pct", "%",
       pct_change(reports_per_s(traced.intervals,
                                [](const IntervalRecord& r) { return r.traced; }),
                  reports_per_s(traced.intervals,
                                [](const IntervalRecord& r) { return !r.traced; }))},
  };
}

}  // namespace sstd::nodebench
