// Write-ahead log for ingested reports (DESIGN.md §7).
//
// Every report a node accepts is appended to an on-disk log *before* the
// in-memory engine sees it, so a crash can lose at most the tail the fsync
// policy allows. The log is a directory of fixed-prefix segment files
// ("wal-000001.seg", ...), each a magic header followed by length-prefixed,
// CRC-32-checksummed records. Recovery replays the log in LSN order on top
// of the latest snapshot (snapshot.h); because the engine is deterministic
// given its state and inputs, replay reproduces the pre-crash decisions
// byte-exactly.
//
// Record frame (little-endian):
//
//   [u32 len][u32 crc][u16 type][u64 lsn][payload ...]
//
// `len` counts the bytes after the 8-byte header (type + lsn + payload);
// `crc` is CRC-32 over those same bytes. A record whose frame runs past the
// end of the segment is a *torn tail* (the crash hit mid-write): the tail
// is truncated on the next open and replay skips it. A record whose CRC
// mismatches is *corrupt*: the scan stops there, having delivered every
// record before it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.h"

namespace sstd::durable {

// When appends reach the disk platter. kNone trusts the page cache (crash
// of the *process* loses nothing, crash of the *host* may lose the tail);
// kEveryRecord fsyncs per append (maximum durability, slowest);
// kOnIntervalEnd fsyncs at interval boundaries via WalWriter::sync() — the
// default: an interval is the engine's decision granularity, so a host
// crash rolls back to the last decided interval at worst.
enum class FsyncPolicy { kNone = 0, kEveryRecord = 1, kOnIntervalEnd = 2 };

enum class WalRecordType : std::uint16_t {
  kReport = 1,       // one ingested Report (encode_report_payload)
  kIntervalEnd = 2,  // interval boundary marker (encode_interval_end_payload)
};

struct WalRecord {
  std::uint16_t type = 0;
  std::uint64_t lsn = 0;
  std::string payload;
};

// Frame header: u32 len + u32 crc.
inline constexpr std::size_t kWalFrameHeaderBytes = 8;
// Bytes of (type + lsn) inside the checksummed region.
inline constexpr std::size_t kWalRecordMetaBytes = 10;
// 8-byte segment magic at the start of every segment file.
inline constexpr std::string_view kWalSegmentMagic = "SSTDWAL1";

// --- record codec (exercised directly by the WAL property test) --------

std::string encode_wal_record(std::uint16_t type, std::uint64_t lsn,
                              std::string_view payload);

enum class WalDecodeStatus {
  kOk,         // record decoded, `*consumed` bytes advanced
  kTruncated,  // frame runs past the end of the buffer (torn tail)
  kCorrupt,    // CRC mismatch or impossible frame length
};

// Decodes the record starting at `pos`. On kOk fills `out` and sets
// `consumed` to the full frame size. `pos == buf.size()` is kTruncated
// (nothing left), so a scan loop can treat "clean end" and "torn tail"
// uniformly by checking how many bytes remain.
WalDecodeStatus decode_wal_record(std::string_view buf, std::size_t pos,
                                  WalRecord* out, std::size_t* consumed);

// --- payload codecs -----------------------------------------------------

std::string encode_report_payload(const Report& report);
bool decode_report_payload(std::string_view payload, Report* out);

std::string encode_interval_end_payload(IntervalIndex interval);
bool decode_interval_end_payload(std::string_view payload,
                                 IntervalIndex* out);

// --- writer -------------------------------------------------------------

struct WalOptions {
  std::uint64_t segment_bytes = 4ull << 20;  // rotate past this many bytes
  FsyncPolicy fsync = FsyncPolicy::kOnIntervalEnd;
};

// Single-writer append handle. Not thread-safe: the owning node serializes
// appends (SstdSystem appends under its shard dispatch, which is already
// single-threaded per node).
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Opens `dir` (creating it if needed), truncates a torn tail left by a
  // previous crash, and positions for append with the LSN sequence
  // resumed past the last valid record of the newest segment that holds
  // one (older segments are not read). Throws std::runtime_error on I/O
  // failure.
  void open(const std::string& dir, const WalOptions& options = {});
  bool is_open() const { return fd_ >= 0; }
  void close();

  // Appends one record, returns its LSN. Rotates to a new segment first
  // when the current one is past options.segment_bytes. Under
  // kEveryRecord the append fsyncs before returning.
  std::uint64_t append(WalRecordType type, std::string_view payload);

  // Explicit fsync; SstdSystem calls this at interval boundaries under
  // kOnIntervalEnd. No-op when nothing was written since the last sync.
  void sync();

  std::uint64_t next_lsn() const { return next_lsn_; }
  std::uint64_t segment_index() const { return segment_index_; }

 private:
  // Makes segment `index` the append target: a new segment gets its
  // magic, an existing one is cut back to its valid prefix. Returns the
  // LSN of its last valid record (0 when it holds none).
  std::uint64_t open_segment(std::uint64_t index);
  void fsync_now();

  std::string dir_;
  WalOptions options_;
  int fd_ = -1;
  std::uint64_t segment_index_ = 0;
  std::uint64_t segment_offset_ = 0;  // bytes in the current segment
  std::uint64_t next_lsn_ = 1;
  bool dirty_ = false;  // bytes written since last fsync
};

// --- scanning / replay --------------------------------------------------

struct WalScanStats {
  std::uint64_t records = 0;     // records delivered to the callback
  std::uint64_t bytes = 0;       // frame bytes of delivered records
  std::uint64_t torn_bytes = 0;  // trailing bytes skipped as a torn tail
  std::uint64_t segments = 0;    // segment files visited
  std::uint64_t max_lsn = 0;     // highest LSN delivered (0 if none)
};

// Replays every valid record with lsn > after_lsn, in log order, through
// `fn`. A truncated tail in the final segment is skipped cleanly and
// counted in torn_bytes; a corrupt or truncated record anywhere else stops
// the scan at that point (everything before it was delivered). A missing
// directory scans as empty.
WalScanStats wal_scan(const std::string& dir, std::uint64_t after_lsn,
                      const std::function<void(const WalRecord&)>& fn);

// Segment files under `dir`, sorted by segment index (== lexicographic for
// the zero-padded names). Empty for a missing directory.
std::vector<std::string> wal_segments(const std::string& dir);

}  // namespace sstd::durable
