#include "durable/recovery.h"

#include <algorithm>

#include "durable/snapshot.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace sstd::durable {

RecoveryManager::Result RecoveryManager::recover(const std::string& dir,
                                                 const Callbacks& callbacks) {
  Stopwatch timer;
  Result result;

  // 1. Newest valid snapshot, if the engine accepts it. The picker is
  // read-only: recovery of a blank node must not create the directory.
  SnapshotMeta meta;
  std::vector<std::string> blobs;
  if (load_newest_snapshot(dir, &meta, &blobs) && callbacks.load_snapshot &&
      callbacks.load_snapshot(meta.interval, blobs)) {
    result.snapshot_loaded = true;
    result.snapshot_interval = meta.interval;
    result.snapshot_lsn = meta.lsn;
    result.next_interval = meta.interval + 1;
  }

  // 2. Replay the WAL suffix past the snapshot.
  const std::uint64_t after_lsn =
      result.snapshot_loaded ? result.snapshot_lsn : 0;
  const WalScanStats stats =
      wal_scan(dir, after_lsn, [&](const WalRecord& record) {
        ++result.replayed_records;
        switch (static_cast<WalRecordType>(record.type)) {
          case WalRecordType::kReport: {
            Report report;
            if (decode_report_payload(record.payload, &report) &&
                callbacks.on_report) {
              callbacks.on_report(report);
            }
            break;
          }
          case WalRecordType::kIntervalEnd: {
            IntervalIndex interval = 0;
            if (decode_interval_end_payload(record.payload, &interval)) {
              if (callbacks.on_interval_end) {
                callbacks.on_interval_end(interval);
              }
              result.next_interval =
                  std::max(result.next_interval, interval + 1);
            }
            break;
          }
          default:
            break;  // unknown record type: forward-compat skip
        }
      });
  result.replayed_bytes = stats.bytes;
  result.torn_bytes = stats.torn_bytes;
  result.max_lsn = std::max(stats.max_lsn, result.snapshot_lsn);
  result.seconds = timer.elapsed_seconds();

  auto& reg = obs::MetricsRegistry::global();
  reg.counter("durable.recovery_runs")->inc();
  reg.counter("durable.recovery_replayed_records")
      ->inc(result.replayed_records);
  reg.gauge("durable.recovery_seconds")->set(result.seconds);
  reg.gauge("durable.recovery_torn_bytes")
      ->set(static_cast<double>(result.torn_bytes));
  return result;
}

}  // namespace sstd::durable
